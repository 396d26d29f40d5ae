"""Sharded single-scenario execution: parity, routing, and failure tests.

The sharded lane's whole contract is one equality: ``shards=1`` and
``shards=R`` produce bit-identical SHA-256 digests for every R.  The
digest deliberately excludes the shard count, so equality *is* the proof
that partitioning, boundary publication through the shared-memory ring
slots and the column sum carry no shard-dependent state.
"""

import multiprocessing as mp
import os
import signal
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.coordination.aggregation import StreamStats
from repro.coordination.barrier import EpochBarrier, ShardWorkerError
from repro.coordination.checkpoint import RecoveryPolicy
from repro.coordination.shm import ShmDataPlane, ShmUnavailable
from repro.experiments.figures import (
    fig6_world, fig9_world, fig10_world, run_fig6, run_fig9,
)
from repro.experiments.sharded import (
    ShardCluster,
    ShardedRunner,
    _ClusterState,
    _Scratch,
    SHARDED_WORLDS,
    run_sharded,
    shard_world,
)
from repro.faults.plan import FaultPlanError
from repro.sim.rng import RngStreams

# Small but non-degenerate worlds: 4 replicas give fig6 8 clusters and
# fig9 4 clusters, so every shard count below actually partitions work.
SCALE = 0.02
REPLICAS = 4


def digest(figure, shards, seed=0):
    return run_sharded(figure, duration_scale=SCALE, seed=seed,
                       shards=shards, replicas=REPLICAS).digest()


class TestDigestParity:
    def test_fig6_bit_identical_across_shard_counts(self):
        reference = digest("fig6", 1)
        for shards in (2, 4, 8):
            assert digest("fig6", shards) == reference

    def test_fig9_bit_identical_across_shard_counts(self):
        reference = digest("fig9", 1)
        for shards in (2, 4):
            assert digest("fig9", shards) == reference

    def test_digest_depends_on_seed_not_shards(self):
        assert digest("fig6", 1, seed=0) != digest("fig6", 1, seed=1)
        assert digest("fig6", 4, seed=1) == digest("fig6", 1, seed=1)

    def test_shards_clamped_to_cluster_count(self):
        world = SHARDED_WORLDS["fig6"](duration_scale=SCALE, seed=0, replicas=1)
        runner = ShardedRunner(world, shards=64)
        assert runner.shards == len(world.clusters)

    def test_invalid_shards_rejected(self):
        world = SHARDED_WORLDS["fig6"](duration_scale=SCALE, seed=0, replicas=1)
        with pytest.raises(ValueError, match="shards must be >= 1"):
            ShardedRunner(world, shards=0)

    def test_policy_counters_match_inline(self):
        a = run_sharded("fig6", duration_scale=SCALE, seed=0, shards=1,
                        replicas=REPLICAS)
        b = run_sharded("fig6", duration_scale=SCALE, seed=0, shards=4,
                        replicas=REPLICAS)
        # The LP runs in the parent either way: identical merged demand
        # must produce identical solve/cache/fallback counts.
        assert (a.lp_solves, a.cache_hits, a.fallback_windows) == \
               (b.lp_solves, b.cache_hits, b.fallback_windows)


class LindleyOracle:
    """``_ClusterState._observe`` as it was before it worked in place:
    every temporary allocated, kept verbatim as the reference."""

    def __init__(self, rng, window, capacity):
        self.rng, self.window, self.svc = rng, window, 1.0 / capacity
        self.response = StreamStats()
        self.clock = 0.0

    def _observe(self, t0, m):
        arr = t0 + np.sort(self.rng.uniform(0.0, self.window, size=m))
        svc = self.svc
        # finish_i = svc*(i+1) + max(clock, max_{j<=i}(arr_j - svc*j))
        idx = np.arange(m + 1)
        slack = np.maximum.accumulate(arr - svc * idx[:-1])
        finish = svc * idx[1:] + np.maximum(slack, self.clock)
        resp = finish - arr
        self.clock = float(finish[-1])
        mean = resp.mean()
        batch = StreamStats(
            count=m,
            mean=float(mean),
            m2=float(((resp - mean) ** 2).sum()),
            min=float(resp.min()),
            max=float(resp.max()),
        )
        self.response = self.response.merge(batch)


def observed(state):
    stats = state.response
    return (state.clock.hex(), stats.count, stats.mean.hex(), stats.m2.hex(),
            stats.min.hex(), stats.max.hex())


class TestLindleyInPlace:
    """The in-place observer is the allocating one, bit for bit."""

    WINDOW = 0.1

    @given(
        batches=st.lists(
            st.tuples(st.integers(1, 6000), st.sampled_from([0, 1]),
                      st.floats(-0.2, 0.2)),
            min_size=1, max_size=8),
        seed=st.integers(0, 3),
    )
    @settings(max_examples=40, deadline=None)
    def test_moments_and_clock_equal_the_allocating_form(self, batches, seed):
        # Two clusters of different capacity share one scratch, as every
        # cluster of a worker does; batches grow and shrink, and the
        # clock starts ahead of or behind the window by up to 2 windows.
        scratch = _Scratch()
        pairs = []
        for name, capacity in (("R1", 32000.0), ("R2", 640.0)):
            state = _ClusterState(ShardCluster(name, (), capacity), ("A",),
                                  self.WINDOW, RngStreams(seed), scratch)
            oracle = LindleyOracle(RngStreams(seed).get(f"cluster:{name}"),
                                   self.WINDOW, capacity)
            pairs.append((state, oracle))
        for k, (m, which, lead) in enumerate(batches):
            state, oracle = pairs[which]
            t0 = k * self.WINDOW
            state.clock = oracle.clock = t0 + lead
            state._observe(t0, m)
            oracle._observe(t0, m)
            assert observed(state) == observed(oracle), (k, m)


class TestDataPlane:
    """The one data plane, its byte accounting, and the inline fallback."""

    def test_invalid_transport_rejected(self):
        # run_sharded alone still takes the word (the frozen e2e benchmark
        # passes it), and only the one value that exists.
        assert run_sharded("fig6", duration_scale=SCALE, replicas=REPLICAS,
                           shards=1, transport="shm").data_plane == "inline"
        for gone in ("pipe", "carrier-pigeon"):
            with pytest.raises(ValueError, match="transport"):
                run_sharded("fig6", duration_scale=SCALE, transport=gone)

    def test_inline_run_reports_inline_plane(self):
        res = run_sharded("fig6", duration_scale=SCALE, seed=0, shards=1,
                          replicas=REPLICAS)
        assert res.data_plane == "inline"
        assert res.transport_fallback is None

    def test_sharded_run_reports_shm_plane_and_its_bytes(self):
        res = run_sharded("fig6", duration_scale=SCALE, seed=0, shards=4,
                          replicas=REPLICAS)
        assert (res.shards, res.data_plane) == (4, "shm")
        assert res.transport_fallback is None
        assert res.bytes_per_epoch > 0
        # The deferred checkpoint ring is accounted, not hidden.
        assert res.ring_bytes_per_epoch > 0


@pytest.fixture
def no_shm(monkeypatch):
    def refuse(*args, **kwargs):
        raise ShmUnavailable("shared memory allocation failed: test says no")

    monkeypatch.setattr(ShmDataPlane, "create", refuse)


class TestInlineFallback:
    """No shared memory: run inline, say so, and never pass vacuously."""

    def test_runs_inline_with_equal_digest_and_recorded_reason(
            self, no_shm, monkeypatch, caplog):
        world = SHARDED_WORLDS["fig6"](duration_scale=SCALE, seed=0,
                                   replicas=REPLICAS)
        runner = ShardedRunner(world, shards=4)

        def no_children(task):
            raise AssertionError("inline fallback spawned a worker")

        monkeypatch.setattr(runner, "_spawn", no_children)
        with caplog.at_level("WARNING", logger="repro.sharded"):
            res = runner.run()
        assert mp.active_children() == []
        assert (res.shards, res.data_plane) == (1, "inline")
        assert "test says no" in res.transport_fallback
        assert "test says no" in caplog.text
        assert res.digest() == digest("fig6", 1)
        assert res.bytes_per_epoch == res.ring_bytes_per_epoch == 0

    def test_explicit_faults_raise_instead_of_not_firing(self, no_shm):
        with pytest.raises(ShmUnavailable, match=r"0:3:exc.*would not fire"):
            faulted("fig6", 2, ["0:3:exc"])

    def test_explicit_faults_on_one_shard_raise(self):
        # shards=1 runs inline by design: a fault there would never fire.
        with pytest.raises(ShmUnavailable, match=r"0:5:exc.*would not fire"):
            faulted("fig6", 1, ["0:5:exc"])

    def test_explicit_faults_on_shards_clamped_to_one_raise(self):
        # The fig9 world with one replica has a single cluster, so any
        # shard count clamps to one and the run executes inline.
        with pytest.raises(ShmUnavailable, match=r"0:2:kill.*would not fire"):
            run_sharded("fig9", duration_scale=SCALE, shards=4, replicas=1,
                        faults=["0:2:kill"])

    def test_parity_report_marks_a_comparison_that_ran_inline(self, no_shm):
        from repro.analysis.replay import sharded_replay

        report = sharded_replay("fig6", duration_scale=SCALE, shards=2)
        assert report.digests[1] == report.digests[0] + ":ran-inline"
        assert not report.ok
        assert report.meta["transport_fallback"]


def _sharded_figure(make_world):
    """A figure's record measured on a 2-shard run of its sharded world."""
    world = make_world(0.2)
    return world.measure(ShardedRunner(shard_world(world), shards=2).run())


class TestFigureIntegration:
    def test_fig6_phase_rates_match_paper(self):
        res = _sharded_figure(fig6_world)
        assert res.ok, res.deviations()

    def test_fig9_phase_rates_match_paper(self):
        res = _sharded_figure(fig9_world)
        assert res.ok, res.deviations()

    def test_unknown_figure_rejected(self):
        with pytest.raises(ValueError, match="sharded lane supports"):
            run_sharded("fig10")
        # A record that does not run sharded is refused, not approximated.
        with pytest.raises(ValueError, match="sharded lane supports"):
            shard_world(fig10_world(0.02))

    @pytest.mark.parametrize("run_fig", [run_fig6, run_fig9],
                             ids=["fig6", "fig9"])
    @pytest.mark.parametrize("lane", ["slotted", "columnar"])
    def test_lane_with_shards_rejected(self, run_fig, lane):
        # A figure runner takes neither a shard count nor a lane: the
        # sharded lane is its own model, reached through ShardedRunner and
        # run_sharded, and the record names the lane.
        with pytest.raises(TypeError, match="shards"):
            run_fig(duration_scale=SCALE, seed=0, shards=2)
        with pytest.raises(TypeError, match="lane"):
            run_fig(duration_scale=SCALE, seed=0, lane=lane)


class TestWorkerFailure:
    def test_worker_death_raises_typed_error_not_hang(self):
        # Shard 0 calls os._exit(3) at the top of epoch 1; with recovery
        # disabled the barrier must detect the dead process and raise
        # within its timeout (the PR 7 fail-stop contract, preserved).
        world = SHARDED_WORLDS["fig6"](duration_scale=SCALE, seed=0,
                                   replicas=REPLICAS)
        runner = ShardedRunner(world, shards=2, epoch_timeout=30.0,
                               recovery=None, faults=["0:1"])
        with pytest.raises(ShardWorkerError, match="died mid-window"):
            runner.run()

    def test_failed_attach_reaches_the_parent_with_its_reason(self, monkeypatch):
        # Forked workers inherit the patch; the attach error must arrive as
        # a WorkerFailure, not as an anonymous "died mid-window".
        def refuse(spec):
            raise FileNotFoundError(f"no segment {spec.name}")

        monkeypatch.setattr(ShmDataPlane, "attach", refuse)
        world = SHARDED_WORLDS["fig6"](duration_scale=SCALE, seed=0,
                                   replicas=REPLICAS)
        runner = ShardedRunner(world, shards=2, epoch_timeout=30.0,
                               recovery=None)
        with pytest.raises(ShardWorkerError,
                           match="FileNotFoundError: no segment"):
            runner.run()

    def test_failed_spawn_leaves_no_segment(self, monkeypatch):
        from multiprocessing import shared_memory

        world = SHARDED_WORLDS["fig6"](duration_scale=SCALE, seed=0,
                                   replicas=REPLICAS)
        runner = ShardedRunner(world, shards=2)

        def refuse(task):
            raise OSError("no more processes")

        monkeypatch.setattr(runner, "_spawn", refuse)
        with pytest.raises(OSError, match="no more processes"):
            runner.run()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=runner._plane.spec.name)

    def test_explicit_out_of_range_fault_is_typed_error(self):
        world = SHARDED_WORLDS["fig6"](duration_scale=SCALE, seed=0,
                                   replicas=REPLICAS)
        with pytest.raises(FaultPlanError, match="shard 9"):
            ShardedRunner(world, shards=2, faults=["9:1"])

    def test_explicit_malformed_fault_is_typed_error(self):
        world = SHARDED_WORLDS["fig6"](duration_scale=SCALE, seed=0,
                                   replicas=REPLICAS)
        with pytest.raises(FaultPlanError, match="malformed"):
            ShardedRunner(world, shards=2, faults=["0:1:frobnicate"])


def faulted(figure, shards, faults, **kwargs):
    return run_sharded(figure, duration_scale=SCALE, seed=0, shards=shards,
                       replicas=REPLICAS, faults=faults, **kwargs)


class TestCrashRecovery:
    """Self-healing: deaths at window barriers leave the digest intact.

    Recovery restores from the shared checkpoint ring (decoded binary
    records) and must land on the unfaulted digests.
    """

    def test_exception_death_recovers_bit_identical(self):
        res = faulted("fig6", 2, ["0:3:exc"])
        assert [r.epoch for r in res.restarts] == [3]
        assert res.restarts[0].restored_epoch == 2
        assert res.digest() == digest("fig6", 1)

    def test_sigkill_death_recovers_bit_identical(self):
        res = faulted("fig6", 2, ["1:4:kill"])
        assert len(res.restarts) == 1
        assert res.digest() == digest("fig6", 1)

    def test_two_deaths_two_epochs_both_paths(self):
        baseline = run_sharded("fig6", duration_scale=SCALE, seed=0,
                               shards=1, replicas=REPLICAS)
        res = faulted("fig6", 4, ["0:2:exc", "1:5:kill"])
        assert [(r.shard, r.epoch) for r in res.restarts] == [(0, 2), (1, 5)]
        assert res.digest() == baseline.digest()
        # Recovery restored exactly the state the unfaulted run ends in.
        assert res.final_checkpoint_digest == baseline.final_checkpoint_digest

    def test_death_at_epoch_zero_rebuilds_fresh(self):
        res = faulted("fig6", 2, ["0:0:exc"])
        assert res.restarts[0].restored_epoch == -1
        assert res.digest() == digest("fig6", 1)

    def test_restart_records_checkpoint_digest(self):
        res = faulted("fig6", 2, ["0:3:exc"])
        assert res.restarts[0].restored_digest  # non-empty SHA-256
        assert res.restarts[0].attempt == 1     # 1-based: first respawn

    def test_budget_exhaustion_reassigns_to_survivors(self):
        policy = RecoveryPolicy(max_restarts=1, backoff_base=0.01)
        res = faulted("fig6", 2, ["0:2:kill", "0:4:kill"], recovery=policy)
        assert len(res.restarts) == 1
        assert len(res.reassignments) == 1
        move = res.reassignments[0]
        assert move.shard == 0 and move.epoch == 4
        assert set(move.assignments.values()) == {1}   # only survivor
        assert res.digest() == digest("fig6", 1)

    def test_fig9_recovery_parity(self):
        res = faulted("fig9", 2, ["0:3:kill"])
        assert len(res.restarts) == 1
        assert res.digest() == digest("fig9", 1)

    def test_respawned_worker_resumes_on_the_resent_allocation(
            self, monkeypatch):
        sent = []
        send = EpochBarrier.send

        def spy(self, shard, msg):
            sent.append((shard, msg))
            return send(self, shard, msg)

        monkeypatch.setattr(EpochBarrier, "send", spy)
        res = faulted("fig6", 2, ["0:3:kill"])
        assert [r.epoch for r in res.restarts] == [3]
        to_0 = [msg[0] for shard, msg in sent
                if shard == 0 and isinstance(msg, tuple)]
        # Epoch 3 went to the dead worker and again to its replacement,
        # which then carried on from epoch 4.
        assert to_0[:6] == [0, 1, 2, 3, 3, 4]
        assert res.digest() == digest("fig6", 1)


_ORPHAN_SCRIPT = textwrap.dedent("""
    from repro.experiments import sharded

    start = sharded.ShardedRunner._start_workers

    def announce(self):
        barrier = start(self)
        print(self._plane.spec.name,
              *[p.pid for p in barrier.processes], flush=True)
        return barrier

    sharded.ShardedRunner._start_workers = announce
    sharded.run_sharded("fig6", duration_scale=50.0, shards=2, replicas=4)
""")


def _running(pid):
    """Alive and not a zombie (an orphan's zombie may wait on a lazy init)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc") or not os.path.isdir("/dev/shm"),
                    reason="needs /proc and /dev/shm")
class TestParentDeath:
    def test_workers_and_segment_go_when_the_parent_is_killed(self):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.abspath(src)] + env.get("PYTHONPATH", "").split(os.pathsep))
        with subprocess.Popen([sys.executable, "-c", _ORPHAN_SCRIPT],
                              stdout=subprocess.PIPE, env=env,
                              text=True) as proc:
            try:
                name, *pids = proc.stdout.readline().split()
                assert len(pids) == 2
                time.sleep(0.5)                   # let the epochs run
            finally:
                proc.send_signal(signal.SIGKILL)
                proc.wait(timeout=30)
        deadline = time.monotonic() + 3.0
        while time.monotonic() < deadline and (
                any(_running(int(p)) for p in pids)
                or os.path.exists(f"/dev/shm/{name}")):
            time.sleep(0.05)
        alive = [p for p in pids if _running(int(p))]
        for p in alive:                           # never leak them here
            os.kill(int(p), signal.SIGKILL)
        assert not alive, f"workers {alive} outlived their killed parent"
        assert not os.path.exists(f"/dev/shm/{name}"), \
            f"segment {name} outlived the run"
