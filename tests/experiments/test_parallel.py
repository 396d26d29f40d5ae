"""Deterministic parallel execution: results never depend on job count."""

import dataclasses

import numpy as np
import pytest

from repro.experiments.faultmatrix import fault_matrix_world
from repro.experiments.figures import WORLDS
from repro.experiments.parallel import (
    default_jobs,
    figure_kwargs,
    parallel_map,
    run_figures_parallel,
    scenario_seed,
)
from repro.experiments.sweeps import sweep_window
from repro.experiments.scaling import run_scaling_sweep


def _square(x):
    return x * x


class TestSeedPartitioning:
    def test_stable_across_calls(self):
        assert scenario_seed(0, "fig6") == scenario_seed(0, "fig6")

    def test_distinct_per_scenario(self):
        names = ["fig6", "fig7", "fig9", "sweep:0.1", "sweep:0.2"]
        seeds = {scenario_seed(42, n) for n in names}
        assert len(seeds) == len(names)

    def test_base_seed_matters(self):
        assert scenario_seed(0, "fig6") != scenario_seed(1, "fig6")

    def test_valid_numpy_seed(self):
        s = scenario_seed(2**31 - 1, "x" * 100)
        assert 0 <= s < 2**31
        np.random.default_rng(s)   # must not raise


class TestParallelMap:
    def test_preserves_order(self):
        items = list(range(20))
        assert parallel_map(_square, items, jobs=1) == [x * x for x in items]

    def test_jobs_do_not_change_results(self):
        items = list(range(10))
        serial = parallel_map(_square, items, jobs=1)
        pooled = parallel_map(_square, items, jobs=2)
        assert serial == pooled

    def test_empty_items(self):
        assert parallel_map(_square, [], jobs=4) == []

    def test_default_jobs_positive(self):
        assert default_jobs() >= 1


class TestDefaultJobs:
    def test_env_override_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert default_jobs() == 3

    def test_env_garbage_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            default_jobs()

    def test_env_nonpositive_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "0")
        with pytest.raises(ValueError, match=">= 1"):
            default_jobs()

    def test_affinity_respected(self, monkeypatch):
        import os

        monkeypatch.delenv("REPRO_JOBS", raising=False)
        if hasattr(os, "sched_getaffinity"):
            # The affinity mask, not the machine's core count, is the
            # authority inside cgroup/taskset-limited environments.
            assert default_jobs() == len(os.sched_getaffinity(0))

    def test_cpu_count_fallback(self, monkeypatch):
        import os

        monkeypatch.delenv("REPRO_JOBS", raising=False)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert default_jobs() == max(1, os.cpu_count() or 1)


class TestFigureBatch:
    def test_unknown_figure_rejected(self):
        with pytest.raises(KeyError):
            run_figures_parallel(["nope"], jobs=1)

    def test_kwargs_shapes(self):
        assert figure_kwargs("fig1", 0.3, 7) == {}
        # No lane: every entry point runs its record's.
        for name in WORLDS:
            assert figure_kwargs(name, 0.3, 7) == {
                "duration_scale": 0.3, "seed": 7,
            }
        assert figure_kwargs("faultmatrix", 0.3, 7) == {
            "duration_scale": 0.3, "seed": 7,
        }
        assert figure_kwargs("fig1d", 0.3, 7)["duration"] == pytest.approx(30.0)

    def test_partitioned_seeds_differ(self):
        k6 = figure_kwargs("fig6", 0.3, 7, partition_seeds=True)
        k7 = figure_kwargs("fig7", 0.3, 7, partition_seeds=True)
        assert k6["seed"] != k7["seed"]

    def test_parallel_matches_serial(self):
        serial = run_figures_parallel(["fig6"], scale=0.05, jobs=1)
        pooled = run_figures_parallel(["fig6"], scale=0.05, jobs=2)
        (n1, r1), (n2, r2) = serial[0], pooled[0]
        assert n1 == n2 == "fig6"
        assert [dataclasses.asdict(p) for p in r1.phases] == [
            dataclasses.asdict(p) for p in r2.phases
        ]


class TestSweepJobs:
    def test_sweep_results_independent_of_jobs(self):
        kw = dict(lengths=(0.1, 0.2), duration=8.0, seed=3)
        serial = sweep_window(jobs=1, **kw)
        pooled = sweep_window(jobs=2, **kw)
        assert [dataclasses.asdict(p) for p in serial] == [
            dataclasses.asdict(p) for p in pooled
        ]

    def test_scaling_sweep_accepts_jobs(self):
        pts = run_scaling_sweep(sizes=(6,), seed=0, duration=2.0, jobs=2)
        assert len(pts) == 1 and pts[0].n_principals == 6


class TestLaneThreading:
    def test_lane_reaches_columnar_capable_figures_only(self):
        # The lane reaches a run through its record alone: every §5 world
        # says columnar, the fault matrix (crash plans) says slotted, and
        # no figure's kwargs carry a lane.
        for name in WORLDS:
            assert WORLDS[name]().lane == "columnar"
        assert fault_matrix_world().lane == "slotted"
        for name in (*WORLDS, "fig1d", "faultmatrix"):
            assert "lane" not in figure_kwargs(name, 0.3, 7)


class TestShardThreading:
    def test_shards_reach_sharded_figures_only(self):
        assert figure_kwargs("fig6", 0.3, 7, shards=4)["shards"] == 4
        assert figure_kwargs("fig9", 0.3, 7, shards=4)["shards"] == 4
        assert "shards" not in figure_kwargs("fig10", 0.3, 7, shards=4)
        assert "shards" not in figure_kwargs("fig7", 0.3, 7, shards=4)
        assert "shards" not in figure_kwargs("fig6", 0.3, 7)

    def test_sharded_figures_run_beside_the_pool(self):
        # Sharded figures bring their own worker processes, which daemonic
        # pool workers may not have: they run in the parent, results in
        # the order asked for.
        names = ["fig7", "fig6", "fig8"]
        serial = run_figures_parallel(names, scale=0.05, jobs=1, shards=2)
        pooled = run_figures_parallel(names, scale=0.05, jobs=2, shards=2)
        assert [n for n, _ in pooled] == names
        for (_, a), (_, b) in zip(serial, pooled):
            assert [dataclasses.asdict(p) for p in a.phases] == [
                dataclasses.asdict(p) for p in b.phases
            ]
        assert "sharded lane" in pooled[1][1].notes

    def test_shards_do_not_change_seed(self):
        base = figure_kwargs("fig6", 0.3, 7, partition_seeds=True)
        sharded = figure_kwargs("fig6", 0.3, 7, partition_seeds=True, shards=8)
        assert sharded["seed"] == base["seed"]
