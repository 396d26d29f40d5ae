"""Control channel for sharded single-scenario execution.

The paper's coordination structure (§3.2) makes clusters independent
*within* a scheduling window: they exchange state only through the
combining tree at window boundaries, 2(n-1) messages per round.  The
sharded runner (:mod:`repro.experiments.sharded`) exploits exactly that —
each worker process simulates its clusters through window *k* to
completion, then stops at the boundary.  The per-epoch boundary payload
moves through the shared-memory data plane
(:mod:`repro.coordination.shm`); this module is what the
:mod:`multiprocessing` pipes beside it still carry: low-rate typed
control traffic — reassignment and its adoption reply, finish, failure —
polled through :meth:`EpochBarrier.poll_control` /
:meth:`EpochBarrier.try_recv`.

Failure model: a worker that dies mid-window (crash, OOM kill, bug) must
surface as a typed :class:`ShardWorkerError` in the parent — never a
hang.  Every control poll is non-blocking and checks process liveness;
the runner interleaves them with its seqlock polls and enforces the
per-epoch timeout.  A worker that catches its own exception ships a
:class:`WorkerFailure` message so the parent can re-raise with the
original detail.  The barrier itself is policy-free: *recovering* from a
:class:`ShardWorkerError` (respawn from checkpoint, or reassign the dead
shard's clusters) is the runner's job, supported here by the slot
surgery primitives ``replace`` and ``deactivate``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Type, TypeVar

from repro.coordination.aggregation import VectorAggregate
from repro.coordination.checkpoint import ClusterCheckpoint

__all__ = [
    "BoundaryMessage",
    "ReassignMessage",
    "FinishMessage",
    "WorkerFailure",
    "ShardWorkerError",
    "EpochBarrier",
]

M = TypeVar("M")


@dataclass(frozen=True)
class BoundaryMessage:
    """Survivor -> parent: window ``epoch`` replayed for adopted clusters.

    The reply to a :class:`ReassignMessage`, and the only boundary record
    that crosses a pipe: the survivor's ring slot already reads
    "epoch published" for its own rows, so the adopted rows (written into
    the same slot for later restores) need a separate completion signal.
    ``demand`` carries one :class:`VectorAggregate` per adopted cluster
    (never pre-summed: the parent folds per-cluster leaves through the
    combining tree in an order fixed by cluster names) and ``admitted``
    the per-principal admitted counts for the same window.
    """

    epoch: int
    shard: int
    demand: Dict[str, VectorAggregate] = field(default_factory=dict)
    admitted: Dict[str, Dict[str, float]] = field(default_factory=dict)


@dataclass(frozen=True)
class ReassignMessage:
    """Parent -> one survivor: adopt a dead shard's clusters mid-epoch.

    Sent while window ``epoch`` is in flight; the survivor defers it
    until it has published its own epoch-``epoch`` rows, then replays the
    window for the adopted clusters and answers with a
    :class:`BoundaryMessage` covering only them.  ``checkpoints`` holds
    the adopted clusters' state as of epoch ``epoch - 1`` (empty when the
    dead shard never completed a window), so the survivor replays the
    in-flight window for them bit-identically.
    """

    epoch: int
    clusters: Tuple[Any, ...] = ()   # ShardCluster specs (typed in sharded.py)
    checkpoints: Dict[str, ClusterCheckpoint] = field(default_factory=dict)
    frac: Optional[Dict[str, float]] = None


@dataclass(frozen=True)
class FinishMessage:
    """Parent -> workers: the horizon is reached; exit cleanly."""

    epoch: int


@dataclass(frozen=True)
class WorkerFailure:
    """Worker -> parent: the worker caught a fatal error and is exiting."""

    shard: int
    detail: str


class ShardWorkerError(RuntimeError):
    """A shard worker died, timed out, or broke the epoch protocol."""

    def __init__(self, shard: int, detail: str):
        super().__init__(f"shard worker {shard}: {detail}")
        self.shard = shard
        self.detail = detail


class EpochBarrier:
    """Parent-side control channel: one pipe (and process) per worker slot.

    ``send`` / ``poll_control`` / ``try_recv`` are non-blocking per-slot
    primitives that convert worker death and protocol violations into
    :class:`ShardWorkerError`; the window barrier itself is the runner's
    seqlock gather over the data plane, which calls them between polls.

    A slot can be *replaced* (a respawned worker takes over the shard
    index) or *deactivated* (the shard is gone for good; its connection
    is closed and its process reaped).  ``polls`` counts the parent's
    poll syscalls.
    """

    def __init__(
        self,
        connections: Sequence[Any],
        processes: Optional[Sequence[Any]] = None,
    ) -> None:
        if processes is not None and len(processes) != len(connections):
            raise ValueError("need one process handle per connection")
        self.connections: List[Any] = list(connections)
        self.processes: Optional[List[Any]] = (
            list(processes) if processes is not None else None
        )
        self.polls = 0

    def __len__(self) -> int:
        return len(self.connections)

    @property
    def active(self) -> List[int]:
        """Shard indices that still have a live connection slot."""
        return [i for i, conn in enumerate(self.connections) if conn is not None]

    # -- per-slot primitives ------------------------------------------------

    def send(self, shard: int, msg: Any) -> None:
        conn = self.connections[shard]
        if conn is None:
            raise ShardWorkerError(shard, "shard slot is deactivated")
        try:
            conn.send(msg)
        except (BrokenPipeError, OSError) as exc:
            raise ShardWorkerError(
                shard, f"pipe closed while sending {type(msg).__name__}: {exc}"
            ) from exc

    def poll_control(self, shard: int) -> Optional[Any]:
        """Non-blocking control-pipe check for one shard.

        The pipe carries failure and adoption control messages, and
        worker death surfaces as EOF/liveness here.  Returns a pending
        message, ``None`` when the pipe is quiet, and raises
        :class:`ShardWorkerError` for :class:`WorkerFailure` payloads,
        EOF, or a dead process with a drained pipe.
        """
        conn = self.connections[shard]
        if conn is None:
            raise ShardWorkerError(shard, "shard slot is deactivated")
        try:
            self.polls += 1
            if conn.poll(0):
                msg = conn.recv()
                if isinstance(msg, WorkerFailure):
                    raise ShardWorkerError(msg.shard, msg.detail)
                return msg
        except (EOFError, BrokenPipeError, OSError) as exc:
            raise self._death_error(shard, exc) from exc
        if not self._alive(shard) and not conn.poll(0):
            raise self._death_error(shard, None)
        return None

    def try_recv(self, shard: int, epoch: int, kind: Type[M]) -> Optional[M]:
        """Non-blocking typed receive: ``None`` when nothing is pending."""
        msg = self.poll_control(shard)
        if msg is None:
            return None
        if not isinstance(msg, kind):
            raise ShardWorkerError(
                shard, f"expected {kind.__name__} for epoch {epoch}, "
                       f"got {type(msg).__name__}"
            )
        got = getattr(msg, "epoch", epoch)
        if got != epoch:
            raise ShardWorkerError(
                shard, f"epoch skew: expected {epoch}, got {got}"
            )
        return msg

    # -- internals ----------------------------------------------------------

    def _alive(self, shard: int) -> bool:
        if self.processes is None or self.processes[shard] is None:
            return True
        return bool(self.processes[shard].is_alive())

    def _death_error(self, shard: int, cause: Optional[BaseException]) -> ShardWorkerError:
        """Diagnose an EOF/liveness failure: prefer the exitcode if dead."""
        if self.processes is not None and self.processes[shard] is not None:
            proc = self.processes[shard]
            proc.join(timeout=1.0)
            if not proc.is_alive():
                return ShardWorkerError(
                    shard,
                    f"worker process died mid-window (exitcode {proc.exitcode})",
                )
        return ShardWorkerError(shard, f"pipe closed mid-window: {cause}")

    # -- slot surgery -------------------------------------------------------

    def _reap(self, shard: int) -> None:
        """Ensure the slot's old process is dead, reaped, and released."""
        if self.processes is None:
            return
        proc = self.processes[shard]
        if proc is None:
            return
        if proc.is_alive():
            proc.terminate()
        proc.join(timeout=5.0)
        if proc.is_alive():
            proc.kill()
            proc.join(timeout=5.0)
        try:
            proc.close()
        except ValueError:
            pass   # refused to die even after SIGKILL; leave the handle
        self.processes[shard] = None

    def _close_conn(self, shard: int) -> None:
        conn = self.connections[shard]
        if conn is None:
            return
        try:
            conn.close()
        except OSError:
            pass
        self.connections[shard] = None

    def replace(self, shard: int, connection: Any, process: Any) -> None:
        """Install a respawned worker in a slot (old one is reaped first)."""
        self._close_conn(shard)
        self._reap(shard)
        self.connections[shard] = connection
        if self.processes is not None:
            self.processes[shard] = process

    def deactivate(self, shard: int) -> None:
        """Retire a slot for good: close its pipe end and reap its process."""
        self._close_conn(shard)
        self._reap(shard)

    def close(self, terminate: bool = False) -> None:
        """Tear everything down; no worker process or pipe FD survives.

        Closing the parent pipe ends first gives well-behaved workers an
        EOF to exit on; ``terminate`` (the failure path) additionally
        SIGTERMs everything still alive, and anything that survives the
        join grace is SIGKILLed.  Process handles are always ``close()``d
        so the semaphores/FDs multiprocessing holds per child are
        released even when a run fails.
        """
        for shard in range(len(self.connections)):
            self._close_conn(shard)
        if self.processes is None:
            return
        for proc in self.processes:
            if proc is not None and terminate and proc.is_alive():
                proc.terminate()
        for shard in range(len(self.processes)):
            self._reap(shard)
