"""Sharded single-scenario execution: parity, routing, and failure tests.

The sharded lane's whole contract is one equality: ``shards=1`` and
``shards=R`` produce bit-identical SHA-256 digests for every R — and,
since the zero-copy data plane landed, for either transport.  The digest
deliberately excludes both the shard count and the transport, so equality
*is* the proof that partitioning, boundary publication (pickled pipe
messages or shared-memory seqlock slots) and the combining-tree fold
carry no shard- or transport-dependent state.
"""

import pytest

from repro.coordination.barrier import ShardWorkerError
from repro.coordination.checkpoint import RecoveryPolicy
from repro.experiments.figures import run_fig6, run_fig9
from repro.experiments.sharded import (
    ShardedRunner,
    run_sharded,
    run_sharded_figure,
    sharded_fig6_world,
)
from repro.faults.plan import FaultPlanError

# Small but non-degenerate worlds: 4 replicas give fig6 8 clusters and
# fig9 4 clusters, so every shard count below actually partitions work.
SCALE = 0.02
REPLICAS = 4


def digest(figure, shards, seed=0, transport="shm"):
    return run_sharded(figure, duration_scale=SCALE, seed=seed,
                       shards=shards, replicas=REPLICAS,
                       transport=transport).digest()


class TestDigestParity:
    @pytest.mark.parametrize("transport", ["pipe", "shm"])
    def test_fig6_bit_identical_across_shard_counts(self, transport):
        reference = digest("fig6", 1)
        for shards in (2, 4, 8):
            assert digest("fig6", shards, transport=transport) == reference

    @pytest.mark.parametrize("transport", ["pipe", "shm"])
    def test_fig9_bit_identical_across_shard_counts(self, transport):
        reference = digest("fig9", 1)
        for shards in (2, 4):
            assert digest("fig9", shards, transport=transport) == reference

    def test_digest_depends_on_seed_not_shards(self):
        assert digest("fig6", 1, seed=0) != digest("fig6", 1, seed=1)
        assert digest("fig6", 4, seed=1) == digest("fig6", 1, seed=1)

    def test_shards_clamped_to_cluster_count(self):
        world = sharded_fig6_world(duration_scale=SCALE, seed=0, replicas=1)
        runner = ShardedRunner(world, shards=64)
        assert runner.shards == len(world.clusters)

    def test_invalid_shards_rejected(self):
        world = sharded_fig6_world(duration_scale=SCALE, seed=0, replicas=1)
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


class TestDataPlane:
    """Transport selection and the byte accounting the bench gates on."""

    def test_invalid_transport_rejected(self):
        world = sharded_fig6_world(duration_scale=SCALE, seed=0,
                                   replicas=REPLICAS)
        with pytest.raises(ValueError, match="transport"):
            ShardedRunner(world, shards=2, transport="carrier-pigeon")

    def test_inline_run_reports_inline_plane(self):
        res = run_sharded("fig6", duration_scale=SCALE, seed=0, shards=1,
                          replicas=REPLICAS)
        assert res.data_plane == "inline"

    def test_shm_moves_an_order_of_magnitude_fewer_bytes(self):
        pipe = run_sharded("fig6", duration_scale=SCALE, seed=0, shards=4,
                           replicas=REPLICAS, transport="pipe")
        shm = run_sharded("fig6", duration_scale=SCALE, seed=0, shards=4,
                          replicas=REPLICAS, transport="shm")
        assert pipe.data_plane == "pipe" and pipe.bytes_per_epoch > 0
        if shm.data_plane != "shm":        # platform without POSIX shm
            assert shm.transport_fallback
            pytest.skip(f"shm unavailable: {shm.transport_fallback}")
        assert shm.transport_fallback is None
        # The PR's headline number: >= 10x fewer parent-handled bytes.
        assert pipe.bytes_per_epoch >= 10 * shm.bytes_per_epoch
        # The deferred checkpoint ring is accounted, not hidden.
        assert shm.ring_bytes_per_epoch > 0

    def test_figure_notes_name_the_data_plane(self):
        res = run_sharded_figure("fig6", duration_scale=SCALE, seed=0,
                                 shards=2, transport="pipe")
        assert "data plane pipe" in res.notes


class TestFigureIntegration:
    def test_fig6_phase_rates_match_paper(self):
        res = run_sharded_figure("fig6", duration_scale=0.2, seed=0, shards=2)
        assert res.ok, res.notes
        assert "shards=2" in res.notes

    def test_fig9_phase_rates_match_paper(self):
        res = run_sharded_figure("fig9", duration_scale=0.2, seed=0, shards=2)
        assert res.ok, res.notes

    def test_run_fig6_routes_to_sharded_lane(self):
        res = run_fig6(duration_scale=0.2, seed=0, shards=2)
        assert "sharded lane" in res.notes

    def test_run_fig9_routes_to_sharded_lane(self):
        res = run_fig9(duration_scale=0.2, seed=0, shards=2)
        assert "sharded lane" in res.notes

    def test_unknown_figure_rejected(self):
        with pytest.raises(ValueError, match="sharded lane supports"):
            run_sharded("fig10")

    @pytest.mark.parametrize("run_fig", [run_fig6, run_fig9],
                             ids=["fig6", "fig9"])
    @pytest.mark.parametrize("lane", ["scalar", "columnar"])
    def test_lane_with_shards_rejected(self, run_fig, lane):
        # The sharded lane is its own execution model: asking for another
        # one as well used to be silently ignored.
        with pytest.raises(ValueError, match=r"lane=.*shards="):
            run_fig(duration_scale=SCALE, seed=0, lane=lane, shards=2)


class TestWorkerFailure:
    def test_worker_death_raises_typed_error_not_hang(self, monkeypatch):
        # Shard 0 calls os._exit(3) at the top of epoch 1; with recovery
        # disabled the barrier must detect the dead process and raise
        # within its timeout (the PR 7 fail-stop contract, preserved).
        monkeypatch.setenv("REPRO_SHARD_FAULT", "0:1")
        world = sharded_fig6_world(duration_scale=SCALE, seed=0,
                                   replicas=REPLICAS)
        runner = ShardedRunner(world, shards=2, epoch_timeout=30.0,
                               recovery=None)
        with pytest.raises(ShardWorkerError, match="died mid-window"):
            runner.run()

    def test_failed_spawn_leaves_no_segment(self, monkeypatch):
        from multiprocessing import shared_memory

        world = sharded_fig6_world(duration_scale=SCALE, seed=0,
                                   replicas=REPLICAS)
        runner = ShardedRunner(world, shards=2)

        def refuse(task):
            raise OSError("no more processes")

        monkeypatch.setattr(runner, "_spawn", refuse)
        with pytest.raises(OSError, match="no more processes"):
            runner.run()
        if runner._plane is None:              # platform without POSIX shm
            pytest.skip(f"shm unavailable: {runner.transport_fallback}")
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=runner._plane.spec.name)

    def test_fault_env_ignored_by_other_shards(self, monkeypatch):
        # A fault address that never fires must leave results untouched.
        monkeypatch.setenv("REPRO_SHARD_FAULT", "99:0")
        assert digest("fig6", 2) == digest("fig6", 1)

    def test_explicit_out_of_range_fault_is_typed_error(self):
        world = sharded_fig6_world(duration_scale=SCALE, seed=0,
                                   replicas=REPLICAS)
        with pytest.raises(FaultPlanError, match="shard 9"):
            ShardedRunner(world, shards=2, faults=["9:1"])

    def test_explicit_malformed_fault_is_typed_error(self):
        world = sharded_fig6_world(duration_scale=SCALE, seed=0,
                                   replicas=REPLICAS)
        with pytest.raises(FaultPlanError, match="malformed"):
            ShardedRunner(world, shards=2, faults=["0:1:frobnicate"])


def faulted(figure, shards, faults, **kwargs):
    return run_sharded(figure, duration_scale=SCALE, seed=0, shards=shards,
                       replicas=REPLICAS, faults=faults, **kwargs)


class TestCrashRecovery:
    """Self-healing: deaths at window barriers leave the digest intact.

    Parametrized cells run on both data planes — recovery under shm
    restores from the shared checkpoint ring (decoded binary records)
    rather than the parent's pickled store, and must land on the same
    digests.
    """

    @pytest.mark.parametrize("transport", ["pipe", "shm"])
    def test_exception_death_recovers_bit_identical(self, transport):
        res = faulted("fig6", 2, ["0:3:exc"], transport=transport)
        assert [r.epoch for r in res.restarts] == [3]
        assert res.restarts[0].restored_epoch == 2
        assert res.digest() == digest("fig6", 1)

    @pytest.mark.parametrize("transport", ["pipe", "shm"])
    def test_sigkill_death_recovers_bit_identical(self, transport):
        res = faulted("fig6", 2, ["1:4:kill"], transport=transport)
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

    @pytest.mark.parametrize("transport", ["pipe", "shm"])
    def test_budget_exhaustion_reassigns_to_survivors(self, transport):
        policy = RecoveryPolicy(max_restarts=1, backoff_base=0.01)
        res = faulted("fig6", 2, ["0:2:kill", "0:4:kill"], recovery=policy,
                      transport=transport)
        assert len(res.restarts) == 1
        assert len(res.reassignments) == 1
        move = res.reassignments[0]
        assert move.shard == 0 and move.epoch == 4
        assert set(move.assignments.values()) == {1}   # only survivor
        assert res.digest() == digest("fig6", 1)

    def test_no_reassign_policy_fails_stop(self):
        policy = RecoveryPolicy(max_restarts=0, reassign_on_exhaustion=False,
                                backoff_base=0.01)
        world = sharded_fig6_world(duration_scale=SCALE, seed=0,
                                   replicas=REPLICAS)
        runner = ShardedRunner(world, shards=2, epoch_timeout=30.0,
                               recovery=policy, faults=["0:2:exc"])
        with pytest.raises(ShardWorkerError):
            runner.run()

    @pytest.mark.parametrize("transport", ["pipe", "shm"])
    def test_fig9_recovery_parity(self, transport):
        res = faulted("fig9", 2, ["0:3:kill"], transport=transport)
        assert len(res.restarts) == 1
        assert res.digest() == digest("fig9", 1)
