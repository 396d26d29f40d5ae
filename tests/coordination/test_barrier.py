"""EpochBarrier failure model: every bad outcome is a typed error, fast.

The control channel's contract is that a worker that dies, stalls, or
breaks the epoch protocol surfaces as :class:`ShardWorkerError` in the
parent — never a hang.  These tests drive ``send`` and the one blocking
``wait`` directly over raw pipes, so each failure mode is isolated; the
runner-level stall case checks that the epoch loop passes the timeout on.
"""

import multiprocessing as mp
import os
from time import monotonic, sleep

import pytest

from repro.coordination.barrier import (
    BoundaryMessage,
    EpochBarrier,
    FinishMessage,
    ReassignMessage,
    ShardWorkerError,
    WorkerFailure,
)

CTX = mp.get_context("fork" if "fork" in mp.get_all_start_methods()
                     else "spawn")


def _next(barrier, epoch=0, shard=0, timeout=30.0):
    """The shard's next item from ``wait``, raised if it is an error."""
    [(got, item)] = barrier.wait([shard], epoch, timeout)
    assert got == shard
    if isinstance(item, ShardWorkerError):
        raise item
    return item


def _echo_worker(conn):
    """Reply to each ReassignMessage with a matching BoundaryMessage."""
    while True:
        msg = conn.recv()
        if isinstance(msg, FinishMessage):
            return
        conn.send(BoundaryMessage(msg.epoch, 0))


def _crash_worker(conn):
    conn.recv()
    os._exit(7)


def _late_crash_worker(conn):
    sleep(0.3)
    os._exit(7)


def _stuck_worker(conn, task=None):
    """Never reads, never replies — simulates a wedged worker."""
    while True:
        sleep(60.0)


def _pipe_pair():
    parent, child = CTX.Pipe()
    return parent, child


class TestHappyPath:
    def test_broadcast_gather_roundtrip(self):
        # The runner's adoption exchange: send to every active slot, then
        # block for each typed reply.
        parent, child = _pipe_pair()
        proc = CTX.Process(target=_echo_worker, args=(child,), daemon=True)
        proc.start()
        child.close()
        barrier = EpochBarrier([parent], [proc])
        try:
            for epoch in range(3):
                for shard in barrier.active:
                    barrier.send(shard, ReassignMessage(epoch))
                msg = _next(barrier, epoch)
                assert isinstance(msg, BoundaryMessage) and msg.epoch == epoch
            barrier.send(0, FinishMessage(3))
        finally:
            barrier.close(terminate=True)

    def test_len_counts_workers(self):
        a, _ = _pipe_pair()
        b, _ = _pipe_pair()
        assert len(EpochBarrier([a, b])) == 2


class TestFailureModes:
    def test_dead_worker_raises_not_hangs(self):
        parent, child = _pipe_pair()
        proc = CTX.Process(target=_crash_worker, args=(child,), daemon=True)
        proc.start()
        child.close()
        barrier = EpochBarrier([parent], [proc])
        try:
            barrier.send(0, ReassignMessage(0))
            with pytest.raises(ShardWorkerError, match="died mid-window"):
                _next(barrier)
        finally:
            barrier.close(terminate=True)

    def test_death_surfaces_through_the_sentinel_not_the_timeout(self):
        # The child end stays open in this process, so the pipe never
        # reads EOF: only the process sentinel can end the wait early.
        parent, child = _pipe_pair()
        proc = CTX.Process(target=_late_crash_worker, args=(child,),
                           daemon=True)
        proc.start()
        barrier = EpochBarrier([parent], [proc])
        try:
            t0 = monotonic()
            with pytest.raises(ShardWorkerError, match="exitcode 7"):
                _next(barrier, timeout=120.0)
            assert monotonic() - t0 < 10.0
        finally:
            barrier.close(terminate=True)
            child.close()

    def test_wedged_worker_times_out_as_typed_error(self):
        # Alive, pipe open, never answers: the timeout ends the wait.
        parent, child = _pipe_pair()
        proc = CTX.Process(target=_stuck_worker, args=(child,), daemon=True)
        proc.start()
        child.close()
        barrier = EpochBarrier([parent], [proc])
        try:
            barrier.send(0, (0, None))
            t0 = monotonic()
            with pytest.raises(ShardWorkerError,
                               match="no boundary publication for epoch 0"):
                barrier.wait([0], 0, 0.2)
            assert monotonic() - t0 < 10.0
        finally:
            barrier.close(terminate=True)

    def test_timeout_raises_typed_error(self, monkeypatch):
        # Workers that stay alive but never publish: the runner's
        # per-epoch deadline, not liveness, must end the wait.
        from repro.experiments import sharded

        monkeypatch.setattr(sharded, "_shard_worker_main", _stuck_worker)
        world = sharded.SHARDED_WORLDS["fig6"](duration_scale=0.02, replicas=2)
        runner = sharded.ShardedRunner(world, shards=2, epoch_timeout=0.2,
                                       recovery=None)
        with pytest.raises(ShardWorkerError, match="no boundary publication"):
            runner.run()

    def test_worker_failure_message_reraised(self):
        parent, child = _pipe_pair()
        child.send(WorkerFailure(0, "ValueError: boom"))
        barrier = EpochBarrier([parent])
        with pytest.raises(ShardWorkerError, match="ValueError: boom"):
            _next(barrier)

    def test_wrong_message_type_rejected(self):
        parent, child = _pipe_pair()
        child.send(FinishMessage(0))
        barrier = EpochBarrier([parent])
        with pytest.raises(ShardWorkerError, match="expected BoundaryMessage"):
            _next(barrier)

    def test_epoch_skew_rejected(self):
        parent, child = _pipe_pair()
        child.send(BoundaryMessage(4, 0))
        barrier = EpochBarrier([parent])
        with pytest.raises(ShardWorkerError, match="epoch skew"):
            _next(barrier, epoch=3)

    def test_broadcast_to_closed_pipe_raises(self):
        parent, child = _pipe_pair()
        parent.close()
        child.close()
        barrier = EpochBarrier([parent])
        with pytest.raises(ShardWorkerError, match="pipe closed"):
            for shard in barrier.active:
                barrier.send(shard, FinishMessage(0))

    def test_mismatched_process_list_rejected(self):
        parent, _child = _pipe_pair()
        with pytest.raises(ValueError):
            EpochBarrier([parent], processes=[])


class TestTeardown:
    """Regression: a failed run must leak no worker process or pipe FD.

    The old ``close`` only terminated processes it was asked about and
    left parent pipe ends open; a wedged worker (or one that outlived a
    crashed sibling) survived the run.  ``close(terminate=True)`` must
    now kill and reap *every* slot and null both sides' references.
    """

    def test_close_reaps_all_workers_even_wedged_ones(self):
        conns, procs = [], []
        for _ in range(3):
            parent, child = _pipe_pair()
            proc = CTX.Process(target=_stuck_worker, args=(child,), daemon=True)
            proc.start()
            child.close()
            conns.append(parent)
            procs.append(proc)
        barrier = EpochBarrier(conns, procs)
        handles = list(procs)
        barrier.close(terminate=True)
        # Liveness: every worker is dead and reaped, every slot released.
        for proc in handles:
            # A closed handle raises ValueError on is_alive(); either the
            # handle is closed or the process is provably dead.
            try:
                assert not proc.is_alive()
            except ValueError:
                pass
        assert barrier.connections == [None, None, None]
        assert barrier.processes == [None, None, None]

    def test_close_closes_parent_pipe_ends(self):
        parent, child = _pipe_pair()
        proc = CTX.Process(target=_echo_worker, args=(child,), daemon=True)
        proc.start()
        child.close()
        barrier = EpochBarrier([parent], [proc])
        barrier.close(terminate=True)
        with pytest.raises(OSError):
            parent.send(FinishMessage(0))

    def test_close_without_processes_just_closes_pipes(self):
        parent, _child = _pipe_pair()
        barrier = EpochBarrier([parent])
        barrier.close()
        assert barrier.connections == [None]


class TestSlotSurgery:
    def test_deactivate_retires_slot(self):
        a, _ca = _pipe_pair()
        b, _cb = _pipe_pair()
        barrier = EpochBarrier([a, b])
        barrier.deactivate(0)
        assert barrier.active == [1]
        with pytest.raises(ShardWorkerError, match="deactivated"):
            barrier.send(0, FinishMessage(0))
        with pytest.raises(ShardWorkerError, match="deactivated"):
            barrier.wait([0], 0, 1.0)

    def test_replace_installs_new_worker(self):
        parent, child = _pipe_pair()
        proc = CTX.Process(target=_crash_worker, args=(child,), daemon=True)
        proc.start()
        child.close()
        barrier = EpochBarrier([parent], [proc])
        barrier.send(0, ReassignMessage(0))
        with pytest.raises(ShardWorkerError):
            _next(barrier)
        parent2, child2 = _pipe_pair()
        proc2 = CTX.Process(target=_echo_worker, args=(child2,), daemon=True)
        proc2.start()
        child2.close()
        barrier.replace(0, parent2, proc2)
        try:
            barrier.send(0, ReassignMessage(1))
            msg = _next(barrier, epoch=1)
            assert msg.epoch == 1
        finally:
            barrier.close(terminate=True)


class TestWait:
    def test_ready_message_needs_one_wait(self):
        parent, child = _pipe_pair()
        child.send(0)                                   # "published 0"
        barrier = EpochBarrier([parent])
        assert _next(barrier) == 0
        assert barrier.polls == 1

    def test_one_failure_does_not_hide_another_shards_message(self):
        a, ca = _pipe_pair()
        b, cb = _pipe_pair()
        ca.send(WorkerFailure(0, "RuntimeError: boom"))
        cb.send(2)
        barrier = EpochBarrier([a, b])
        items = []
        while len(items) < 2:
            items += barrier.wait([s for s in (0, 1)
                                   if s not in dict(items)], 2, 30.0)
        got = dict(items)
        assert isinstance(got[0], ShardWorkerError) and got[1] == 2
