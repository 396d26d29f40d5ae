"""Sharded single-scenario execution: one world across many cores.

`experiments/parallel.py` parallelises *across* experiments; this module
parallelises *within* one: a :class:`ShardedRunner` partitions a world's
clusters into R shards, runs each shard in its own worker process, and
synchronises only at window boundaries — the paper's own decomposition.
Clusters are independent within a 100 ms scheduling window (§3.2): they
exchange state exclusively through the combining tree at window edges,
2(n-1) messages per round.  The runner makes each window a conservative
barrier epoch:

1. the parent sends every worker the window-k allocation policy (the
   globally consistent served fraction per principal, from the LP on
   window k-1's merged demand; window 0 uses the conservative 1/R
   fallback),
2. every worker simulates its clusters through window k to completion,
   publishes, per cluster, a demand row, the per-principal admitted
   counts, and a binary
   :class:`~repro.coordination.checkpoint.ClusterCheckpoint` record, and
   says so on its pipe,
3. the parent copies every shard's per-cluster rows into column k of its
   ``(cluster, principal, window)`` history arrays, sums the column into
   the window's global demand — exact in any order, because every entry
   is an integer count far below 2^53, so packing clusters into shards
   cannot move a bit — solves the window LP via the shared
   :class:`~repro.scheduling.allocator.WindowAllocator` (reusing its
   plans), and releases everyone into window k+1.

The parent is the sole owner of run history (the per-window series live
in the parent, never the workers), so a worker holds nothing but its
clusters' *live* state — and that state is checkpointed every epoch.
That makes the runner self-healing: on a
:class:`~repro.coordination.barrier.ShardWorkerError` the parent —
governed by a :class:`~repro.coordination.checkpoint.RecoveryPolicy` —
respawns the dead shard from the last checkpoint and replays the
in-flight window; when the restart budget is exhausted it degrades
instead, reassigning the dead shard's clusters round-robin to the
survivors (`ReassignMessage`), exactly the combining tree's
reparent-the-orphans move one layer down.

Determinism is by construction, not by luck: every cluster owns the RNG
substream ``cluster:<name>`` (PR 4's ``link:<src>-><dst>`` pattern
generalised) and consumes it in fixed (window, client) order; restoring a
checkpoint resumes the Philox counter at the exact draw of the snapshot.
``shards=1`` runs the identical per-cluster math inline, so ``shards=1``,
``shards=8``, and ``shards=8`` *with worker deaths* all produce
bit-identical SHA-256 digests — enforced by ``repro check --shards
[--with-crashes]`` exactly like the three-way lane digest.

One data plane carries the boundary rows: the zero-copy shared-memory
plane (:mod:`repro.coordination.shm`).  Workers write demand/admitted
rows and binary checkpoint records into per-shard ring slots, and the
parent copies a shard's rows into its history with one fancy-index
copy; the ``shards=1`` path writes the same rows there directly, so
there is one fold, the column sum.  The epoch itself is
synchronised by messages on the control pipes
(:mod:`repro.coordination.barrier`): the allocation goes down, a
one-word "published k" comes back, and both sides block on the pipe
instead of polling — the message also orders the worker's stores before
the parent's loads.  Where shared memory is unavailable the runner runs
the ``shards=1`` inline path instead — bit-identical by the contract
above — and records why in ``ShardedResult.transport_fallback``.

Deterministic crash hooks for tests and chaos runs: the ``faults=``
argument (or a :class:`~repro.faults.plan.FaultPlan` with
``revoke_shard`` events via :func:`shard_faults_from_plan`) holds
``<shard>:<epoch>[:<mode>]`` tokens; ``mode`` is ``exit`` (hard
``os._exit``, the default), ``exc`` (clean in-worker exception shipped as
a :class:`WorkerFailure`), or ``kill`` (SIGKILL — nothing in the worker
runs, the parent sees a dead pipe).
"""

from __future__ import annotations

import hashlib
import logging
import math
import multiprocessing as mp
import os
import pickle
import signal
import time
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.coordination.aggregation import StreamStats
from repro.coordination.barrier import (
    BoundaryMessage,
    EpochBarrier,
    FinishMessage,
    ReassignMessage,
    ShardWorkerError,
    WorkerFailure,
)
from repro.coordination.checkpoint import (
    PER_EPOCH_RETRIES,
    ClusterCheckpoint,
    RecoveryPolicy,
    ShardReassignment,
    ShardRestart,
    epoch_digest,
)
from repro.coordination.shm import PlaneSpec, ShmDataPlane, ShmUnavailable
from repro.core.access import compute_access_levels
from repro.core.agreements import AgreementGraph
from repro.experiments.figures import WORLDS, ClientSpec, FigureWorld
from repro.faults.plan import SHARD_REVOKE_MODES, FaultPlan, FaultPlanError, ShardRevoke
from repro.scheduling.allocator import WindowAllocator
from repro.scheduling.window import WindowConfig
from repro.sim.monitor import PhaseStats
from repro.sim.rng import RngStreams

__all__ = [
    "ShardCluster",
    "ShardedWorld",
    "ShardFault",
    "ShardedResult",
    "ShardedRunner",
    "shard_faults_from_plan",
    "shard_world",
    "SHARDED_WORLDS",
    "run_sharded",
]

_LOG = logging.getLogger("repro.sharded")


# ---------------------------------------------------------------------------
# World declaration
# ---------------------------------------------------------------------------


def _overlap(windows: Optional[Tuple[Tuple[float, float], ...]],
             t0: float, t1: float) -> float:
    """Active seconds inside [t0, t1) of a client active in ``windows``
    (None: always)."""
    if windows is None:
        return t1 - t0
    total = 0.0
    for a, b in windows:
        total += max(0.0, min(b, t1) - max(a, t0))
    return total


@dataclass(frozen=True)
class ShardCluster:
    """One cluster: a redirector's worth of clients plus a local server.

    Each client is an open-loop Poisson source: its arrivals per
    scheduling window are Poisson with mean ``rate × active seconds``,
    drawn from the cluster's substream in declaration order.
    ``capacity`` (req/s) drives the response-time observer — a constant-
    service Lindley recursion over the cluster's admitted requests.  It
    does not gate admission; quotas do.
    """

    name: str
    clients: Tuple[ClientSpec, ...]
    capacity: float


@dataclass(frozen=True)
class ShardedWorld:
    """A full declarative scenario for the sharded lane.

    The agreement ``graph`` lives parent-side only (it feeds the window
    LP); workers receive nothing but their own clusters and the static
    conservative split.
    """

    name: str
    clusters: Tuple[ShardCluster, ...]
    principals: Tuple[str, ...]
    duration: float
    seed: int = 0
    window: float = 0.1
    graph: AgreementGraph = field(default_factory=AgreementGraph, repr=False)

    @property
    def n_windows(self) -> int:
        return max(1, int(math.ceil(self.duration / self.window - 1e-9)))


# ---------------------------------------------------------------------------
# Fault specs (deterministic worker deaths)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShardFault:
    """One scheduled worker death, fired at the start of ``epoch``."""

    epoch: int
    mode: str = "exit"


def _parse_fault_entry(entry: Any) -> Optional[Tuple[int, ShardFault]]:
    """``"shard:epoch[:mode]"`` or ``(shard, epoch[, mode])`` -> parsed."""
    if isinstance(entry, str):
        parts = entry.split(":")
    elif isinstance(entry, (tuple, list)):
        parts = [str(x) for x in entry]
    else:
        return None
    if len(parts) not in (2, 3):
        return None
    try:
        shard, epoch = int(parts[0]), int(parts[1])
    except ValueError:
        return None
    mode = parts[2] if len(parts) == 3 else "exit"
    if mode not in SHARD_REVOKE_MODES or epoch < 0:
        return None
    return shard, ShardFault(epoch=epoch, mode=mode)


def shard_faults_from_plan(
    plan: FaultPlan, window: float, n_windows: int, shards: int
) -> List[Tuple[int, int, str]]:
    """Bind a plan's ``revoke_shard`` events to epochs: (shard, epoch, mode).

    Raises :class:`FaultPlanError` when an event names a shard index the
    run does not have — the typed error ``repro chaos`` maps to exit 2.
    """
    out: List[Tuple[int, int, str]] = []
    for ev in plan.events:
        if not isinstance(ev, ShardRevoke):
            continue
        if not 0 <= ev.shard < shards:
            raise FaultPlanError(
                f"revoke_shard at t={ev.at:g}: shard {ev.shard} out of "
                f"range for a {shards}-shard run"
            )
        epoch = min(n_windows - 1, int(ev.at / window + 1e-9))
        out.append((ev.shard, epoch, ev.mode))
    return out


def _fire_fault(mode: str) -> None:
    """Kill the current worker the way ``mode`` asks.  May not return."""
    if mode == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    if mode == "exc":
        raise RuntimeError("injected shard fault (mode=exc)")
    os._exit(3)


# ---------------------------------------------------------------------------
# Worker-side state (identical for shards=1 inline and shards=R processes)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShardTask:
    """Everything one worker needs, shipped once at start (picklable).

    Workers rebuild all state from this task, so fork and spawn start
    methods are interchangeable; nothing is inherited from parent memory.
    A respawned worker's task additionally carries ``restore`` — the
    last-checkpoint state of its clusters — and only the faults that have
    not fired yet (a deterministic crasher must not crash-loop).
    """

    shard: int
    clusters: Tuple[ShardCluster, ...]
    principals: Tuple[str, ...]
    seed: int
    window: float
    n_windows: int
    # Conservative per-principal mandatory share (requests/window) when no
    # global information exists: MC_w[p] / n_clusters, the allocator's 1/R
    # fallback with every cluster counted as a redirector.
    conservative: Dict[str, float] = field(default_factory=dict)
    faults: Tuple[ShardFault, ...] = ()
    restore: Dict[str, ClusterCheckpoint] = field(default_factory=dict)
    # The parent's shared-memory segment a worker process attaches to
    # (None for the inline path, which crosses no process boundary).
    plane: Optional[PlaneSpec] = None


class _Scratch:
    """One worker's Lindley work space, shared by all of its clusters.

    Two float64 rows and the service ramp ``svc * i``.  They grow to the
    largest batch seen and are rebuilt only when they must grow or the
    service time changes; they are per worker, not per cluster, because
    per-cluster buffers cost resident memory for every cluster.
    """

    def __init__(self) -> None:
        self.rows = np.empty((2, 0))
        self.ramp = np.empty(0)
        self.svc = math.nan

    def take(self, m: int, svc: float) -> Tuple[np.ndarray, np.ndarray,
                                                 np.ndarray]:
        """(two length-m work rows, a ramp of at least m+1 entries)."""
        n = self.rows.shape[1]
        if m > n:
            n = max(m, 2 * n)
            self.rows = np.empty((2, n))
        if svc != self.svc or len(self.ramp) <= m:
            self.ramp = svc * np.arange(n + 1)
            self.svc = svc
        return self.rows[0, :m], self.rows[1, :m], self.ramp


class _ClusterState:
    """One cluster's private simulation state.

    Self-contained: its draws depend only on (its substream, the broadcast
    fraction sequence), never on which shard runs it or which clusters
    share its worker — the invariant the digest-parity contract rests on.
    Everything here round-trips through :meth:`checkpoint`/:meth:`restore`
    bit-exactly; per-window history lives in the parent.  ``scratch`` is
    work space only: nothing in it outlives one :meth:`_observe` call.
    """

    def __init__(self, spec: ShardCluster, principals: Tuple[str, ...],
                 window: float, streams: RngStreams,
                 scratch: _Scratch) -> None:
        self.spec = spec
        self.principals = principals
        self.window = window
        self.rng = streams.get(f"cluster:{spec.name}")
        self.scratch = scratch
        # Residual-carry admission: fractional quota left over while
        # quota-limited rolls into the next window (no banking of unused
        # quota), so long-run admitted rate tracks quota exactly.
        self.carry = {p: 0.0 for p in principals}
        self.response = StreamStats()
        self.clock = 0.0           # server-free time for the Lindley observer
        self.svc = 1.0 / spec.capacity

    def step(self, k: int, frac: Optional[Dict[str, float]],
             conservative: Mapping[str, float]
             ) -> Tuple[List[float], List[float]]:
        """Simulate window k; returns (demand, admitted) in principal order."""
        w = self.window
        t0, t1 = k * w, (k + 1) * w
        demand = {p: 0 for p in self.principals}
        for client in self.spec.clients:
            active = _overlap(client.windows, t0, t1)
            if active > 0.0:
                demand[client.principal] += int(
                    self.rng.poisson(client.rate * active)
                )
        admitted: List[float] = []
        total_adm = 0
        for p in self.principals:
            d = demand[p]
            if frac is not None:
                quota = frac.get(p, 0.0) * d
            else:
                quota = min(float(d), conservative.get(p, 0.0))
            budget = quota + self.carry[p]
            adm = min(d, int(budget))
            if adm < d:
                self.carry[p] = budget - adm
            else:
                self.carry[p] = 0.0
            admitted.append(float(adm))
            total_adm += adm
        if total_adm > 0:
            self._observe(t0, total_adm)
        return [float(demand[p]) for p in self.principals], admitted

    def _observe(self, t0: float, m: int) -> None:
        """Constant-service Lindley recursion over m in-window arrivals.

        finish_i = svc*(i+1) + max(clock, max_{j<=i}(arr_j - svc*j)).
        Works in place in the worker's scratch rows (``arr`` in one;
        slack, finish and response in the other) with the same ufuncs,
        operand order and pairwise sums as allocating every temporary, so
        every moment is bit-identical to that form.
        """
        arr, resp, ramp = self.scratch.take(m, self.svc)
        # uniform(0, window) is 0.0 + window * u: the same draws, the same bits.
        self.rng.random(out=arr)
        arr *= self.window
        arr.sort()
        arr += t0
        np.subtract(arr, ramp[:m], out=resp)
        np.maximum.accumulate(resp, out=resp)
        np.maximum(resp, self.clock, out=resp)
        np.add(ramp[1:m + 1], resp, out=resp)
        self.clock = float(resp[-1])
        resp -= arr
        mean = float(resp.sum()) / m       # what ndarray.mean computes
        np.subtract(resp, mean, out=arr)
        np.square(arr, out=arr)
        batch = StreamStats(
            count=m,
            mean=mean,
            m2=float(arr.sum()),
            min=float(resp.min()),
            max=float(resp.max()),
        )
        self.response = self.response.merge(batch)

    def checkpoint(self) -> ClusterCheckpoint:
        return ClusterCheckpoint(
            rng_state=self.rng.bit_generator.state,
            carry=dict(self.carry),
            response=self.response,
            clock=self.clock,
        )

    def restore(self, ck: ClusterCheckpoint) -> None:
        self.rng.bit_generator.state = dict(ck.rng_state)
        self.carry = dict(ck.carry)
        self.response = ck.response
        self.clock = float(ck.clock)


class ShardState:
    """All clusters owned by one worker, stepped window-by-window."""

    def __init__(self, task: ShardTask) -> None:
        self.task = task
        self.streams = RngStreams(task.seed)
        self.scratch = _Scratch()
        self.clusters = [
            self._build(spec, task.restore.get(spec.name))
            for spec in task.clusters
        ]

    def _build(self, spec: ShardCluster,
               ck: Optional[ClusterCheckpoint]) -> _ClusterState:
        state = _ClusterState(spec, self.task.principals, self.task.window,
                              self.streams, self.scratch)
        if ck is not None:
            state.restore(ck)
        return state

    def step(self, k: int, frac: Optional[Dict[str, float]],
             demand: np.ndarray, admitted: np.ndarray,
             clusters: Optional[Sequence[_ClusterState]] = None) -> None:
        """Simulate window k for ``clusters`` (default: all of them).

        The j-th cluster's demand and admitted counts go into row j of
        ``demand`` and ``admitted`` (one column per principal).
        """
        cons = self.task.conservative
        for j, c in enumerate(self.clusters if clusters is None else clusters):
            demand[j], admitted[j] = c.step(k, frac, cons)

    def adopt(self, specs: Sequence[ShardCluster],
              checkpoints: Mapping[str, ClusterCheckpoint]) -> List[_ClusterState]:
        """Take over a dead shard's clusters, restoring their checkpoints."""
        added = [
            self._build(spec, checkpoints.get(spec.name)) for spec in specs
        ]
        self.clusters.extend(added)
        return added

    def checkpoints(self) -> Dict[str, ClusterCheckpoint]:
        return {c.spec.name: c.checkpoint() for c in self.clusters}


def _publish(plane: ShmDataPlane, state: ShardState, k: int,
             frac: Optional[Dict[str, float]],
             clusters: Sequence[_ClusterState]) -> None:
    """Step ``clusters`` through window k and write their rows and
    checkpoint records into this shard's ring slot."""
    shape = (len(clusters), len(state.task.principals))
    demand, admitted = np.empty(shape), np.empty(shape)
    state.step(k, frac, demand, admitted, clusters)
    plane.publish(state.task.shard, k,
                  [plane.index[c.spec.name] for c in clusters],
                  demand, admitted, [c.checkpoint() for c in clusters])


# How long a worker blocks on its pipe before checking that the process
# that started it is still its parent.  Under fork every worker inherits
# the parent ends of its siblings' pipes, so a killed parent never shows
# up as EOF; this watchdog is what ends an orphaned worker.
_PARENT_CHECK_S = 1.0


def _next_message(conn: Any, parent: int) -> Any:
    """Block for the next control message; EOFError once orphaned."""
    while not conn.poll(_PARENT_CHECK_S):
        if os.getppid() != parent:
            raise EOFError("parent process is gone")
    return conn.recv()


def _shard_worker_main(conn: Any, task: ShardTask) -> None:
    """Worker process entry point: block on the pipe, step, publish, report.

    Module-level (picklable under spawn); receives *all* state through
    ``task`` — never module globals (SIM007's worker contract).

    Each allocation ``(k, frac)`` is answered by publishing the window's
    rows into the ring and then sending ``k``.  A ``ReassignMessage`` for
    epoch *k* always arrives after this worker's own allocation *k* (the
    parent sends it later on the same pipe), so the adopted clusters are
    replayed after the owned ones; their rows go into the same ring slot,
    and the adoption reply names them.
    """
    faults = {f.epoch: f.mode for f in task.faults}
    parent = os.getppid()
    plane: Optional[ShmDataPlane] = None
    try:
        assert task.plane is not None   # only the inline path has none
        plane = ShmDataPlane.attach(task.plane)
        state = ShardState(task)
        while True:
            msg = _next_message(conn, parent)
            if isinstance(msg, FinishMessage):
                return
            if isinstance(msg, ReassignMessage):
                added = state.adopt(msg.clusters, msg.checkpoints)
                _publish(plane, state, msg.epoch, msg.frac, added)
                conn.send(BoundaryMessage(
                    msg.epoch, task.shard, tuple(c.spec.name for c in added)))
                continue
            k, frac = msg
            mode = faults.pop(k, None)
            if mode is not None:
                _fire_fault(mode)   # deterministic mid-window death
            _publish(plane, state, k, frac, state.clusters)
            conn.send(k)
    except (EOFError, BrokenPipeError, KeyboardInterrupt):
        return
    except Exception as exc:   # ship the failure; never leave a hang
        try:
            conn.send(WorkerFailure(task.shard, f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass
    finally:
        if plane is not None:
            plane.close()


# ---------------------------------------------------------------------------
# Parent-side runner
# ---------------------------------------------------------------------------


@dataclass
class ShardedResult:
    """Everything observable from one sharded run.

    ``digest()`` covers every per-cluster series plus the parent-side
    policy trace; it deliberately omits the shard count *and* the
    recovery trace, so digest equality between ``shards=1``,
    ``shards=R``, and ``shards=R`` with worker deaths *is* the parity
    proof.  ``final_checkpoint_digest`` is a second, independent witness:
    the SHA-256 of every cluster's terminal state snapshot.
    """

    world: ShardedWorld
    shards: int
    window: float
    n_windows: int
    principals: Tuple[str, ...]
    clusters: Tuple[str, ...]
    # cluster -> principal -> per-window series: contiguous rows of the
    # runner's (cluster, principal, window) history arrays.
    demand: Dict[str, Dict[str, np.ndarray]]
    admitted: Dict[str, Dict[str, np.ndarray]]
    refused: Dict[str, Dict[str, np.ndarray]]
    response: Dict[str, StreamStats]
    clock: Dict[str, float]
    global_demand: Dict[str, np.ndarray]
    frac: Dict[str, np.ndarray]     # -1.0 sentinel on conservative windows
    # Plans the parent's allocator computed, and 0: no plan is reused.  The
    # names stay because benchmarks/e2e/workloads.py reads them.
    lp_solves: int = 0
    cache_hits: int = 0
    fallback_windows: int = 0
    restarts: List[ShardRestart] = field(default_factory=list)
    reassignments: List[ShardReassignment] = field(default_factory=list)
    final_checkpoint_digest: str = ""
    # ``plane_polls``: EpochBarrier.wait calls the parent made (each one
    # blocking call on the pipes and process sentinels); ``plane_wait_s``:
    # seconds the parent spent blocked in them.  The wait is both the
    # barrier and the publication signal, so ``barrier_polls`` /
    # ``barrier_wait_s`` report the same two numbers; the frozen
    # benchmarks/e2e/workloads.py reads all four names.
    barrier_polls: int = 0
    barrier_wait_s: float = 0.0
    plane_polls: int = 0
    plane_wait_s: float = 0.0
    # Always 0 (the parent retains no checkpoints); kept because the
    # frozen benchmark reads it — ROADMAP item 1's benchmark PR removes it.
    checkpoint_bytes: int = 0
    # Data-plane accounting.  ``data_plane`` is what actually carried the
    # boundary exchange: "shm", or "inline" (shards=1, or no shared
    # memory here — ``transport_fallback`` then records why).
    # ``bytes_per_epoch``: the demand/admitted row bytes the parent copies
    # per epoch plus the pickled steady-state allocation message it sends
    # each shard; ``ring_bytes_per_epoch``: the
    # checkpoint-record bytes workers write in place per epoch (decoded
    # only on restore and at the horizon, never crossing to the parent in
    # steady state).
    data_plane: str = "inline"
    transport_fallback: Optional[str] = None
    bytes_per_epoch: int = 0
    ring_bytes_per_epoch: int = 0

    # -- derived views ----------------------------------------------------

    def admitted_series(self, principal: str) -> Tuple[np.ndarray, np.ndarray]:
        """(window-centre times, admitted req/s) summed over clusters."""
        times = (np.arange(self.n_windows) + 0.5) * self.window
        total = np.zeros(self.n_windows)
        for name in self.clusters:
            total += self.admitted[name][principal]
        return times, total / self.window

    def series(self, keys: Sequence[str]) -> Dict[str, Tuple[np.ndarray, np.ndarray]]:
        return {p: self.admitted_series(p) for p in keys}

    def phase_rates(
        self,
        phases: Sequence[Tuple[str, float, float]],
        keys: Optional[Sequence[str]] = None,
        settle: float = 0.0,
    ) -> List[PhaseStats]:
        """Mean admitted rate per principal over whole windows in a phase."""
        keys = list(keys) if keys is not None else list(self.principals)
        idx = np.arange(self.n_windows)
        w0, w1 = idx * self.window, (idx + 1) * self.window
        out: List[PhaseStats] = []
        for name, t0, t1 in phases:
            sel = (w0 >= t0 + settle - 1e-9) & (w1 <= t1 + 1e-9)
            span = float(sel.sum()) * self.window
            stats = PhaseStats(name=name, t0=t0, t1=t1)
            for p in keys:
                if span <= 0:
                    stats.rates[p] = 0.0
                    continue
                total = sum(
                    float(self.admitted[c][p][sel].sum()) for c in self.clusters
                )
                stats.rates[p] = total / span
            out.append(stats)
        return out

    def digest(self) -> str:
        """SHA-256 over exact float bytes of all observable state."""
        h = hashlib.sha256()

        def floats(values: Any) -> None:
            h.update(np.ascontiguousarray(
                np.asarray(values, dtype=float)).tobytes())

        for name in sorted(self.clusters):
            h.update(name.encode("utf-8"))
            for p in sorted(self.principals):
                h.update(p.encode("utf-8"))
                floats(self.demand[name][p])
                floats(self.admitted[name][p])
                floats(self.refused[name][p])
            st = self.response[name]
            h.update(str(st.count).encode("ascii"))
            floats([st.mean, st.m2])
            if st.count:
                floats([st.min, st.max])
            floats([self.clock[name]])
        for p in sorted(self.principals):
            h.update(p.encode("utf-8"))
            floats(self.global_demand[p])
            floats(self.frac[p])
        return h.hexdigest()


class ShardedRunner:
    """Partition a world's clusters into R shards and run to the horizon.

    ``shards=1`` steps the identical per-cluster state machines inline (no
    processes, no pickling) — the reference the digest-parity check holds
    every R against, and what any R runs as when the platform cannot
    provide shared memory (:class:`ShmUnavailable`).  An explicit
    ``faults=`` schedule on any run that executes inline raises
    :class:`ShmUnavailable` instead of silently not firing.
    Partitioning is round-robin over *sorted* cluster names, so shard
    membership is a pure function of (world, R); results are a pure
    function of world alone.

    The runner owns the run's history: demand and admitted counts as two
    ``(cluster, principal, window)`` float64 arrays in sorted-cluster
    order, the data plane's own row order.  Window k is column k: the
    inline path writes its rows there, a shard's publication is copied
    there with one fancy-index copy, the window's global demand is the
    column's sum, and refused = demand − admitted is taken once at the
    horizon.

    ``recovery`` (default :class:`RecoveryPolicy`) makes the sharded path
    self-healing: respawn-from-checkpoint inside the budget, cluster
    reassignment to survivors beyond it.  ``recovery=None`` restores the
    PR 7 fail-stop behaviour (first :class:`ShardWorkerError` aborts).
    ``faults`` schedules deterministic worker deaths
    (``"shard:epoch[:mode]"`` entries, strictly validated).
    """

    def __init__(
        self,
        world: ShardedWorld,
        shards: int = 1,
        epoch_timeout: float = 120.0,
        recovery: Optional[RecoveryPolicy] = RecoveryPolicy(),
        faults: Optional[Sequence[Any]] = None,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if not world.clusters:
            raise ValueError("world has no clusters")
        self.world = world
        self.shards = min(int(shards), len(world.clusters))
        self.epoch_timeout = float(epoch_timeout)
        self.recovery = recovery
        self.access = compute_access_levels(world.graph)
        self.window_cfg = WindowConfig(world.window)
        n_clusters = len(world.clusters)
        self.allocator = WindowAllocator(
            self.access, self.window_cfg, mode="community",
            n_redirectors=n_clusters,
        )
        w_levels = self.access.per_window(world.window)
        self._conservative = {
            p: float(w_levels.MC[self.access.index(p)]) / n_clusters
            for p in world.principals
        }
        self._ordered = sorted(world.clusters, key=lambda c: c.name)
        self._fault_specs = self._bind_faults(faults)
        # fork inherits the imported modules cheaply; spawn works the same
        # because workers rebuild everything from the pickled task (but
        # get their own resource tracker and must unregister on attach).
        self._mp_method = (
            "fork" if "fork" in mp.get_all_start_methods() else "spawn")
        # Per-run mutable state (set up in run()).
        self._owned: Dict[int, List[ShardCluster]] = {}
        self._faults: Dict[int, List[ShardFault]] = {}
        self._expected: Dict[int, int] = {}
        self._epoch_attempts: Dict[Tuple[int, int], int] = {}
        self.restarts: List[ShardRestart] = []
        self.reassignments: List[ShardReassignment] = []
        self._ctx: Any = None
        self._plane: Optional[ShmDataPlane] = None
        self.transport_fallback: Optional[str] = None
        # Cluster -> shard that published it during the last completed
        # epoch: the owner map a ring-decoded restore reads with.
        self._ring_owner: Optional[Dict[str, int]] = None

    # -- fault binding ------------------------------------------------------

    def _bind_faults(
        self, faults: Optional[Sequence[Any]]
    ) -> Dict[int, Tuple[ShardFault, ...]]:
        specs: Dict[int, List[ShardFault]] = {i: [] for i in range(self.shards)}
        for entry in faults or ():
            parsed = _parse_fault_entry(entry)
            if parsed is None:
                raise FaultPlanError(
                    f"malformed shard fault spec {entry!r} "
                    f"(want 'shard:epoch[:mode]', mode in "
                    f"{SHARD_REVOKE_MODES})"
                )
            shard, fault = parsed
            if not 0 <= shard < self.shards:
                raise FaultPlanError(
                    f"shard fault {entry!r}: shard {shard} out of range "
                    f"for a {self.shards}-shard run"
                )
            specs[shard].append(fault)
        return {shard: tuple(fl) for shard, fl in specs.items()}

    # -- task construction --------------------------------------------------

    def _task(
        self, shard: int,
        restore: Optional[Mapping[str, ClusterCheckpoint]] = None,
    ) -> ShardTask:
        return ShardTask(
            shard=shard,
            clusters=tuple(self._owned[shard]),
            principals=tuple(self.world.principals),
            seed=self.world.seed,
            window=self.world.window,
            n_windows=self.world.n_windows,
            conservative=dict(self._conservative),
            faults=tuple(self._faults.get(shard, ())),
            restore=dict(restore or {}),
            plane=None if self._plane is None else self._plane.spec,
        )

    # -- policy -------------------------------------------------------------

    def _policy(self, total: np.ndarray) -> Dict[str, float]:
        """Window LP on the global demand -> served fraction per principal."""
        merged = dict(zip(self.world.principals, total.tolist()))
        demand = {p: merged.get(p, 0.0) for p in self.allocator.principals}
        alloc = self.allocator.compute(demand)
        frac: Dict[str, float] = {}
        for p in self.allocator.principals:
            g = alloc.global_estimate.get(p, 0.0)
            frac[p] = min(1.0, alloc.quotas[p] / g) if g > 1e-9 else 0.0
        return frac

    # -- the run ------------------------------------------------------------

    def _open_plane(self) -> Optional[ShmDataPlane]:
        """The run's data plane, or ``None`` to run inline.

        Faults need worker processes: on a run that executes inline
        (``shards=1``, or no shared memory here) a ``faults=`` schedule
        raises :class:`ShmUnavailable` instead of silently not firing.
        """
        reason = f"a {self.shards}-shard run executes inline"
        if self.shards > 1:
            try:
                return ShmDataPlane.create(
                    [c.name for c in self._ordered], self.world.principals,
                    self.shards,
                    unregister_on_attach=(self._mp_method != "fork"),
                )
            except ShmUnavailable as exc:
                reason = self.transport_fallback = str(exc)
        unfired = sorted(f"{shard}:{f.epoch}:{f.mode}"
                         for shard, fl in self._fault_specs.items()
                         for f in fl)
        if unfired:
            raise ShmUnavailable(
                f"{reason}; faults {unfired} need worker processes and "
                f"would not fire on the inline path"
            )
        if self.transport_fallback is not None:
            _LOG.warning("shm data plane unavailable, running shards=%d inline: %s",
                         self.shards, reason)
        return None

    def run(self) -> ShardedResult:
        world = self.world
        n_windows = world.n_windows
        principals = tuple(world.principals)
        names = [c.name for c in self._ordered]
        shape = (len(names), len(principals), n_windows)
        demand, admitted = np.zeros(shape), np.zeros(shape)
        frac_hist = np.full((len(principals), n_windows), -1.0)
        gdemand = np.zeros((len(principals), n_windows))
        fallback_windows = 0
        frac: Optional[Dict[str, float]] = None
        self._faults = {s: list(fl) for s, fl in self._fault_specs.items()}
        self._epoch_attempts = {}
        self.restarts = []
        self.reassignments = []
        self.transport_fallback = None
        self._ring_owner = None
        polls, wait_s = 0, 0.0
        plane = self._plane = self._open_plane()
        shards = self.shards if plane is not None else 1
        self._owned = {i: self._ordered[i::shards] for i in range(shards)}
        barrier: Optional[EpochBarrier] = None
        try:
            if plane is None:
                # One shard owns every cluster in sorted order: its row j
                # is history row j.
                state = ShardState(self._task(0))
                step = state.step
            else:
                barrier = self._start_workers()
                step = partial(self._epoch, barrier)
            for k in range(n_windows):
                if frac is None:
                    fallback_windows += 1
                else:
                    frac_hist[:, k] = [frac[p] for p in principals]
                step(k, frac, demand[:, :, k], admitted[:, :, k])
                # Integer counts far below 2**53: exact in any order.
                gdemand[:, k] = demand[:, :, k].sum(axis=0)
                frac = self._policy(gdemand[:, k])
            if barrier is None:
                final = state.checkpoints()
            else:
                for shard in barrier.active:
                    try:
                        barrier.send(shard, FinishMessage(n_windows))
                    except ShardWorkerError:
                        pass   # the horizon is reached; a late death is moot
                assert plane is not None and self._ring_owner is not None
                final = plane.read_checkpoints(n_windows - 1, self._ring_owner)
        finally:
            if barrier is not None:
                polls, wait_s = barrier.polls, barrier.wait_s
                barrier.close(terminate=True)
            if plane is not None:
                plane.close()
                plane.unlink()

        def per_cluster(hist: np.ndarray) -> Dict[str, Dict[str, np.ndarray]]:
            return {n: dict(zip(principals, hist[i]))
                    for i, n in enumerate(names)}

        return ShardedResult(
            world=world,
            shards=shards,
            window=world.window,
            n_windows=n_windows,
            principals=principals,
            clusters=tuple(names),
            demand=per_cluster(demand),
            admitted=per_cluster(admitted),
            refused=per_cluster(demand - admitted),
            response={n: ck.response for n, ck in final.items()},
            clock={n: ck.clock for n, ck in final.items()},
            global_demand=dict(zip(principals, gdemand)),
            frac=dict(zip(principals, frac_hist)),
            lp_solves=self.allocator.plans_computed,
            fallback_windows=fallback_windows,
            restarts=list(self.restarts),
            reassignments=list(self.reassignments),
            final_checkpoint_digest=epoch_digest(final),
            barrier_polls=polls,
            barrier_wait_s=wait_s,
            plane_polls=polls,
            plane_wait_s=wait_s,
            data_plane="inline" if plane is None else "shm",
            transport_fallback=self.transport_fallback,
            bytes_per_epoch=(0 if plane is None
                             else plane.boundary_bytes_per_epoch + shards
                             * len(pickle.dumps((n_windows - 1, frac)))),
            ring_bytes_per_epoch=(0 if plane is None
                                  else plane.ring_bytes_per_epoch),
        )

    # -- sharded epoch protocol (with recovery) -----------------------------

    def _epoch(
        self, barrier: EpochBarrier, k: int, frac: Optional[Dict[str, float]],
        demand: np.ndarray, admitted: np.ndarray,
    ) -> None:
        """Run window ``k`` across the workers; heal failures as they surface.

        Every shard that owns clusters is sent the allocation ``(k, frac)``
        — a respawned replacement is sent it again — and the parent blocks
        in :meth:`EpochBarrier.wait`, copying a shard's ring rows into
        ``demand`` / ``admitted`` (column k of the history) once its
        "published k", or its reply naming adopted clusters, has arrived.
        ``need`` maps each shard still to publish to the rows it was asked
        for; ``self._expected`` counts pending adoption replies.
        """
        plane = self._plane
        assert plane is not None
        index = plane.index
        self._expected = {}
        need: Dict[int, List[int]] = {}
        copied = np.zeros(len(index), dtype=bool)

        def allocate(shard: int) -> None:
            need[shard] = [index[c.name] for c in self._owned[shard]]
            try:
                barrier.send(shard, (k, frac))
            except ShardWorkerError:
                pass   # the dead worker surfaces in the wait below

        for shard in barrier.active:
            if self._owned[shard]:
                allocate(shard)
        while need or any(self._expected.values()):
            pending = set(need).union(
                s for s, n in self._expected.items() if n)
            for shard, msg in barrier.wait(sorted(pending), k,
                                           self.epoch_timeout):
                rows = None
                if isinstance(msg, BoundaryMessage) and self._expected.get(shard):
                    self._expected[shard] -= 1
                    rows = [index[n] for n in msg.clusters]
                elif isinstance(msg, int) and shard in need:
                    rows = need.pop(shard)
                if rows is not None and plane.read_rows(shard, k, rows,
                                                        demand, admitted):
                    copied[rows] = True
                    continue
                self._handle_failure(
                    barrier, shard, k, frac,
                    msg if isinstance(msg, ShardWorkerError)
                    else ShardWorkerError(
                        shard, f"unexpected {type(msg).__name__} {msg!r} "
                               f"during epoch {k}"))
                need.pop(shard, None)
                if barrier.connections[shard] is not None and self._owned[shard]:
                    # Respawned: the replacement replays *all* its clusters
                    # (own + adopted) and publishes them in one go; no
                    # adoption reply is coming any more.
                    self._expected[shard] = 0
                    allocate(shard)
        if not copied.all():
            missing = [n for n, i in index.items() if not copied[i]]
            raise ShardWorkerError(
                -1, f"epoch {k} completed without records for {missing}"
            )
        self._ring_owner = {c.name: s for s, cl in self._owned.items()
                            for c in cl}

    def _restore_snapshot(
        self, k: int
    ) -> Tuple[int, Dict[str, ClusterCheckpoint]]:
        """(restored_epoch, full snapshot) a recovery at epoch ``k`` uses.

        Decodes epoch ``k-1`` from the ring via the owner map of the last
        completed epoch — the deferred-digest path, paid only on recovery.
        """
        if k == 0 or self._ring_owner is None:
            return -1, {}
        assert self._plane is not None
        return k - 1, self._plane.read_checkpoints(k - 1, self._ring_owner)

    def _handle_failure(
        self, barrier: EpochBarrier, shard: int, k: int,
        frac: Optional[Dict[str, float]], err: ShardWorkerError,
    ) -> None:
        policy = self.recovery
        if policy is None:
            raise err
        attempt = self._epoch_attempts.get((shard, k), 0)
        if (len(self.restarts) < policy.max_restarts
                and attempt < PER_EPOCH_RETRIES):
            self._respawn(barrier, shard, k, err, attempt)
        else:
            self._reassign(barrier, shard, k, frac, err)

    def _respawn(
        self, barrier: EpochBarrier, shard: int, k: int,
        err: ShardWorkerError, attempt: int,
    ) -> None:
        """Respawn a dead shard from the last checkpoint; ``_epoch`` then
        sends it window k's allocation to replay."""
        time.sleep(self.recovery.backoff(attempt))
        self._epoch_attempts[(shard, k)] = attempt + 1
        restored_epoch, snap = self._restore_snapshot(k)
        owned = {c.name for c in self._owned[shard]}
        restore = {n: ck for n, ck in snap.items() if n in owned}
        # Faults at or before k have fired (that is usually why we are
        # here); shipping them again would crash-loop the replacement.
        self._faults[shard] = [
            f for f in self._faults.get(shard, []) if f.epoch > k
        ]
        conn, proc = self._spawn(self._task(shard, restore=restore))
        barrier.replace(shard, conn, proc)
        self.restarts.append(ShardRestart(
            epoch=k, shard=shard, attempt=attempt + 1,
            restored_epoch=restored_epoch,
            restored_digest=epoch_digest(snap) if restored_epoch >= 0 else "",
            detail=err.detail,
        ))
        _LOG.warning(
            "shard %d respawned at epoch %d (attempt %d, restored from "
            "epoch %d): %s", shard, k, attempt + 1, restored_epoch, err.detail,
        )

    def _reassign(
        self, barrier: EpochBarrier, shard: int, k: int,
        frac: Optional[Dict[str, float]], err: ShardWorkerError,
    ) -> None:
        """Restart budget exhausted: survivors adopt the dead shard's clusters."""
        barrier.deactivate(shard)
        self._expected.pop(shard, None)
        survivors = barrier.active
        if not survivors:
            raise ShardWorkerError(
                shard,
                f"restart budget exhausted with no surviving shards "
                f"({err.detail})",
            )
        _, snap = self._restore_snapshot(k)
        specs = sorted(self._owned[shard], key=lambda c: c.name)
        assignments = {
            spec.name: survivors[i % len(survivors)]
            for i, spec in enumerate(specs)
        }
        for target in sorted(set(assignments.values())):
            tspecs = tuple(s for s in specs if assignments[s.name] == target)
            barrier.send(target, ReassignMessage(
                epoch=k,
                clusters=tspecs,
                checkpoints={s.name: snap[s.name] for s in tspecs
                             if s.name in snap},
                frac=frac,
            ))
            self._expected[target] = self._expected.get(target, 0) + 1
            self._owned[target].extend(tspecs)
        self._owned[shard] = []
        event = ShardReassignment(
            epoch=k, shard=shard, assignments=assignments, detail=err.detail,
        )
        self.reassignments.append(event)
        _LOG.warning(
            "shard %d retired at epoch %d; clusters reassigned to survivors "
            "%s: %s", shard, k, assignments, err.detail,
        )

    # -- worker lifecycle ---------------------------------------------------

    def _spawn(self, task: ShardTask) -> Tuple[Any, Any]:
        parent, child = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_shard_worker_main, args=(child, task), daemon=True,
        )
        proc.start()
        child.close()
        return parent, proc

    def _start_workers(self) -> EpochBarrier:
        self._ctx = mp.get_context(self._mp_method)
        conns, procs = [], []
        for shard in range(self.shards):
            conn, proc = self._spawn(self._task(shard))
            conns.append(conn)
            procs.append(proc)
        return EpochBarrier(conns, procs)


# ---------------------------------------------------------------------------
# Worlds: derived from the figures' records, with replica and load knobs
# ---------------------------------------------------------------------------


def shard_world(
    world: FigureWorld, replicas: int = 1, load_scale: float = 1.0,
) -> ShardedWorld:
    """A §5 figure's world on the sharded lane.

    Each front-end node becomes one :class:`ShardCluster` per replica
    (``[i]``-tagged names when ``replicas`` > 1) holding that node's
    clients, with the summed capacity of the node's servers.
    ``replicas`` stamps out R independent copies against a proportionally
    larger agreement graph — the fixed per-cluster-load scaling axis the
    shard bench sweeps; ``load_scale`` multiplies every client rate and
    capacity together, holding the LP's shape constant.
    """
    if not world.sharded:
        raise ValueError(
            f"sharded lane supports {sorted(SHARDED_WORLDS)}, not {world.figure!r}"
        )
    capacity = {name: cap for name, _owner, cap, *_ in world.servers}
    clusters: List[ShardCluster] = []
    for i in range(replicas):
        tag = f"[{i}]" if replicas > 1 else ""
        for node in world.nodes:
            clusters.append(ShardCluster(
                name=f"{node.name}{tag}",
                clients=tuple(
                    replace(c, name=f"{c.name}{tag}", rate=c.rate * load_scale)
                    for c in world.clients if c.node == node.name
                ),
                capacity=sum(capacity[s] for names in node.pools.values()
                             for s in names) * load_scale,
            ))
    return ShardedWorld(
        name=world.figure,
        clusters=tuple(clusters),
        principals=world.keys,
        duration=world.horizon,
        seed=world.seed,
        graph=world.graph(replicas, load_scale),
    )


def _registry_world(
    build: Any, duration_scale: float = 1.0, seed: int = 0,
    replicas: int = 1, load_scale: float = 1.0,
) -> ShardedWorld:
    return shard_world(build(duration_scale, seed), replicas, load_scale)


# name -> (duration_scale, seed, replicas, load_scale) -> ShardedWorld, for
# every registered figure whose record says it runs sharded.
SHARDED_WORLDS = {
    name: partial(_registry_world, build)
    for name, build in WORLDS.items() if build().sharded
}


def run_sharded(
    figure: str = "fig6",
    duration_scale: float = 1.0,
    seed: int = 0,
    shards: int = 1,
    replicas: int = 1,
    load_scale: float = 1.0,
    recovery: Optional[RecoveryPolicy] = RecoveryPolicy(),
    faults: Optional[Sequence[Any]] = None,
    transport: str = "shm",
) -> ShardedResult:
    """Build a named sharded world and run it with R shards."""
    # There is one data plane; the parameter survives only because the
    # frozen benchmarks/e2e/workloads.py passes transport="shm" — ROADMAP
    # item 1's benchmark PR removes it from both sides.
    if transport != "shm":
        raise ValueError(f"the sharded lane has one data plane, 'shm'; "
                         f"transport={transport!r} is gone")
    try:
        build = SHARDED_WORLDS[figure]
    except KeyError:
        raise ValueError(
            f"sharded lane supports {sorted(SHARDED_WORLDS)}, not {figure!r}"
        ) from None
    world = build(duration_scale=duration_scale, seed=seed,
                  replicas=replicas, load_scale=load_scale)
    runner = ShardedRunner(world, shards=shards, recovery=recovery,
                           faults=faults)
    return runner.run()
