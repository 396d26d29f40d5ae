"""EpochBarrier failure model: every bad outcome is a typed error, fast.

The control channel's contract is that a worker that dies, stalls, or
breaks the epoch protocol surfaces as :class:`ShardWorkerError` in the
parent — never a hang.  These tests drive the non-blocking per-slot
primitives (``send`` / ``poll_control`` / ``try_recv``) directly over raw
pipes, so each failure mode is isolated; only the stall case needs the
:class:`ShardedRunner`, whose gather loop owns the per-epoch deadline.
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


def _await(poll, timeout=30.0):
    """Spin a non-blocking ``poll`` until it returns a message or raises."""
    deadline = monotonic() + timeout
    while monotonic() < deadline:
        msg = poll()
        if msg is not None:
            return msg
        sleep(0.001)
    raise AssertionError(f"nothing arrived within {timeout:.0f}s")


def _echo_worker(conn):
    """Reply to each ReassignMessage with a matching BoundaryMessage."""
    while True:
        msg = conn.recv()
        if isinstance(msg, FinishMessage):
            return
        conn.send(BoundaryMessage(msg.epoch, 0, {}))


def _crash_worker(conn):
    conn.recv()
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
        # The runner's adoption exchange, from the per-slot primitives:
        # send to every active slot, then poll each for its typed reply.
        parent, child = _pipe_pair()
        proc = CTX.Process(target=_echo_worker, args=(child,), daemon=True)
        proc.start()
        child.close()
        barrier = EpochBarrier([parent], [proc])
        try:
            for epoch in range(3):
                for shard in barrier.active:
                    barrier.send(shard, ReassignMessage(epoch))
                msg = _await(lambda: barrier.try_recv(0, epoch,
                                                      BoundaryMessage))
                assert msg.epoch == epoch
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
                _await(lambda: barrier.poll_control(0))
        finally:
            barrier.close(terminate=True)

    def test_timeout_raises_typed_error(self, monkeypatch):
        # Workers that stay alive but never publish: the runner's
        # per-epoch deadline, not liveness, must end the wait.
        from repro.experiments import sharded

        monkeypatch.setattr(sharded, "_shard_worker_main", _stuck_worker)
        world = sharded.sharded_fig6_world(duration_scale=0.02, replicas=2)
        runner = sharded.ShardedRunner(world, shards=2, epoch_timeout=0.2,
                                       recovery=None)
        with pytest.raises(ShardWorkerError, match="no boundary publication"):
            runner.run()

    def test_worker_failure_message_reraised(self):
        parent, child = _pipe_pair()
        child.send(WorkerFailure(0, "ValueError: boom"))
        barrier = EpochBarrier([parent])
        with pytest.raises(ShardWorkerError, match="ValueError: boom"):
            barrier.poll_control(0)

    def test_wrong_message_type_rejected(self):
        parent, child = _pipe_pair()
        child.send(FinishMessage(0))
        barrier = EpochBarrier([parent])
        with pytest.raises(ShardWorkerError, match="expected BoundaryMessage"):
            barrier.try_recv(0, 0, BoundaryMessage)

    def test_epoch_skew_rejected(self):
        parent, child = _pipe_pair()
        child.send(BoundaryMessage(4, 0, {}))
        barrier = EpochBarrier([parent])
        with pytest.raises(ShardWorkerError, match="epoch skew"):
            barrier.try_recv(0, 3, BoundaryMessage)

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
            barrier.poll_control(0)

    def test_replace_installs_new_worker(self):
        parent, child = _pipe_pair()
        proc = CTX.Process(target=_crash_worker, args=(child,), daemon=True)
        proc.start()
        child.close()
        barrier = EpochBarrier([parent], [proc])
        barrier.send(0, ReassignMessage(0))
        with pytest.raises(ShardWorkerError):
            _await(lambda: barrier.poll_control(0))
        parent2, child2 = _pipe_pair()
        proc2 = CTX.Process(target=_echo_worker, args=(child2,), daemon=True)
        proc2.start()
        child2.close()
        barrier.replace(0, parent2, proc2)
        try:
            barrier.send(0, ReassignMessage(1))
            msg = _await(lambda: barrier.try_recv(0, 1, BoundaryMessage))
            assert msg.epoch == 1
        finally:
            barrier.close(terminate=True)


class TestPollBackoff:
    def test_ready_message_needs_one_poll(self):
        parent, child = _pipe_pair()
        child.send(BoundaryMessage(0, 0, {}))
        barrier = EpochBarrier([parent])
        assert barrier.try_recv(0, 0, BoundaryMessage) is not None
        assert barrier.polls == 1
