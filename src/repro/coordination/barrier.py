"""Control channel for sharded single-scenario execution.

The paper's coordination structure (§3.2) makes clusters independent
*within* a scheduling window: they exchange state only through the
combining tree at window boundaries, 2(n-1) messages per round.  The
sharded runner (:mod:`repro.experiments.sharded`) exploits exactly that —
each worker process simulates its clusters through window *k* to
completion, then stops at the boundary — and synchronises every epoch
with messages on one :mod:`multiprocessing` pipe per worker, the tree's
own exchange with the parent as root:

* parent -> worker: the allocation ``(epoch, frac)``, a
  :class:`ReassignMessage`, or a :class:`FinishMessage`;
* worker -> parent: the bare ``int`` epoch once its rows are published
  in the shared-memory ring (:mod:`repro.coordination.shm`), a
  :class:`BoundaryMessage` answering an adoption, or a
  :class:`WorkerFailure`.

Failure model: a worker that dies mid-window (crash, OOM kill, bug) must
surface as a typed :class:`ShardWorkerError` in the parent — never a
hang.  :meth:`EpochBarrier.wait` blocks on the pending workers' pipes
*and* their process sentinels, so a death surfaces the moment it
happens; a timeout, a protocol violation and a :class:`WorkerFailure`
(a worker that caught its own exception, with the original detail) are
the same typed error.  The barrier itself is policy-free: *recovering*
from a :class:`ShardWorkerError` (respawn from checkpoint, or reassign
the dead shard's clusters) is the runner's job, supported here by the
slot surgery primitives ``replace`` and ``deactivate``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from multiprocessing.connection import wait as wait_ready
from time import perf_counter  # simlint: disable=SIM001  # IPC accounting, not sim time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.coordination.checkpoint import ClusterCheckpoint

__all__ = [
    "BoundaryMessage",
    "ReassignMessage",
    "FinishMessage",
    "WorkerFailure",
    "ShardWorkerError",
    "EpochBarrier",
]

@dataclass(frozen=True)
class BoundaryMessage:
    """Survivor -> parent: window ``epoch`` replayed for adopted clusters.

    The reply to a :class:`ReassignMessage`.  The survivor has written
    the adopted clusters' rows into its ring slot for ``epoch``, as it
    writes its own; ``clusters`` names them, and the parent copies them
    from there like any other publication.
    """

    epoch: int
    shard: int
    clusters: Tuple[str, ...] = ()


@dataclass(frozen=True)
class ReassignMessage:
    """Parent -> one survivor: adopt a dead shard's clusters mid-epoch.

    Sent while window ``epoch`` is in flight, always after the
    survivor's own allocation for ``epoch`` on the same pipe, so the
    survivor has published its own rows when it replays the window for
    the adopted clusters and answers with a :class:`BoundaryMessage`
    covering only them.  ``checkpoints`` holds
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

    ``send`` and ``wait`` convert worker death and protocol violations
    into :class:`ShardWorkerError`.  A slot can be *replaced* (a
    respawned worker takes over the shard index) or *deactivated* (the
    shard is gone for good; its connection is closed and its process
    reaped).  ``polls`` counts ``wait`` calls and ``wait_s`` the seconds
    spent blocked in them.
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
        self.wait_s = 0.0

    def __len__(self) -> int:
        return len(self.connections)

    @property
    def active(self) -> List[int]:
        """Shard indices that still have a live connection slot."""
        return [i for i, conn in enumerate(self.connections) if conn is not None]

    # -- messaging ----------------------------------------------------------

    def _conn(self, shard: int) -> Any:
        conn = self.connections[shard]
        if conn is None:
            raise ShardWorkerError(shard, "shard slot is deactivated")
        return conn

    def send(self, shard: int, msg: Any) -> None:
        try:
            self._conn(shard).send(msg)
        except (BrokenPipeError, OSError) as exc:
            raise ShardWorkerError(
                shard, f"pipe closed while sending {type(msg).__name__}: {exc}"
            ) from exc

    def wait(self, shards: Sequence[int], epoch: int,
             timeout: float) -> List[Tuple[int, Any]]:
        """Block until some of ``shards`` has a message or has died.

        Returns one ``(shard, item)`` per shard that became ready, in shard
        order.  ``item`` is the shard's next message — the ``int`` epoch
        it published or a :class:`BoundaryMessage`, both for ``epoch`` —
        or, instead of a message, the :class:`ShardWorkerError` for a
        :class:`WorkerFailure`, EOF, a dead process with a drained pipe,
        or a protocol violation, so one failure never hides another
        shard's message.  Nothing within ``timeout`` seconds raises.
        """
        ready_for: Dict[Any, int] = {}
        for shard in shards:
            ready_for[self._conn(shard)] = shard
            if self.processes is not None and self.processes[shard] is not None:
                ready_for[self.processes[shard].sentinel] = shard
        self.polls += 1
        t0 = perf_counter()  # simlint: disable=SIM001
        ready = wait_ready(list(ready_for), timeout)
        self.wait_s += perf_counter() - t0  # simlint: disable=SIM001
        if not ready:
            raise ShardWorkerError(
                min(shards),
                f"no boundary publication for epoch {epoch} within "
                f"{timeout:.0f}s (hang?)",
            )
        return [(shard, self._recv(shard, epoch))
                for shard in sorted({ready_for[r] for r in ready})]

    def _recv(self, shard: int, epoch: int) -> Any:
        conn = self.connections[shard]
        try:
            if not conn.poll(0):     # only the sentinel fired: it is dead
                return self._death_error(shard, None)
            msg = conn.recv()
        except (EOFError, OSError) as exc:
            return self._death_error(shard, exc)
        if isinstance(msg, WorkerFailure):
            return ShardWorkerError(msg.shard, msg.detail)
        if not isinstance(msg, (int, BoundaryMessage)):
            return ShardWorkerError(
                shard, f"expected BoundaryMessage or publication for epoch "
                       f"{epoch}, got {type(msg).__name__}")
        got = msg if isinstance(msg, int) else msg.epoch
        if got != epoch:
            return ShardWorkerError(
                shard, f"epoch skew: expected {epoch}, got {got}")
        return msg

    # -- internals ----------------------------------------------------------

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
