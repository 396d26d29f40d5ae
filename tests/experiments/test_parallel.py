"""Deterministic parallel execution: results never depend on job count."""

import dataclasses

import pytest

from repro.experiments.faultmatrix import fault_matrix_world
from repro.experiments.figures import ALL_FIGURES, WORLDS
from repro.experiments import figures
from repro.experiments.parallel import (
    default_jobs,
    parallel_map,
    run_figures_parallel,
)
from repro.experiments.sweeps import sweep_window
from repro.experiments.scaling import run_scaling_sweep


def _square(x):
    return x * x


def _fields(result):
    """A figure result as plain values, its series' arrays as lists."""
    fields = dataclasses.asdict(result)
    series = fields.pop("series", {})
    return fields, {k: [a.tolist() for a in v] for k, v in series.items()}


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

    def test_kwargs_shapes(self, monkeypatch):
        # fig1d's entry holds its duration rule: 100 s × scale, >= 20 s.
        calls = []
        monkeypatch.setattr(figures, "run_fig1_distributed",
                            lambda duration, seed: calls.append((duration, seed)))
        ALL_FIGURES["fig1d"](0.3, 7)
        ALL_FIGURES["fig1d"](0.05, 7)
        assert calls == [(pytest.approx(30.0), 7), (20.0, 7)]

    def test_parallel_matches_serial(self):
        names = list(ALL_FIGURES)
        serial = run_figures_parallel(names, scale=0.1, jobs=1)
        pooled = run_figures_parallel(names, scale=0.1, jobs=2)
        assert [n for n, _ in serial] == [n for n, _ in pooled] == names
        for (_, r1), (_, r2) in zip(serial, pooled):
            assert _fields(r1) == _fields(r2)


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
        # says columnar, the fault matrix (crash plans) says slotted.
        for name in WORLDS:
            assert WORLDS[name]().lane == "columnar"
        assert fault_matrix_world().lane == "slotted"
