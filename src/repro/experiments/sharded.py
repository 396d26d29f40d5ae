"""Sharded single-scenario execution: one world across many cores.

`experiments/parallel.py` parallelises *across* experiments; this module
parallelises *within* one: a :class:`ShardedRunner` partitions a world's
clusters into R shards, runs each shard in its own worker process, and
synchronises only at window boundaries — the paper's own decomposition.
Clusters are independent within a 100 ms scheduling window (§3.2): they
exchange state exclusively through the combining tree at window edges,
2(n-1) messages per round.  The runner makes each window a conservative
barrier epoch:

1. the parent publishes the window-k allocation policy (the globally
   consistent served fraction per principal, from the LP on window k-1's
   merged demand; window 0 uses the conservative 1/R fallback),
2. every worker simulates its clusters through window k to completion and
   publishes, per cluster, a demand row, the per-principal admitted
   counts, and a binary
   :class:`~repro.coordination.checkpoint.ClusterCheckpoint` record,
3. the parent folds the per-cluster demand through the existing
   :class:`~repro.coordination.tree.CombiningTree` reduction (balanced
   tree over *sorted cluster names*, so float-sum order never depends on
   how clusters were packed into shards), solves the window LP via the
   shared :class:`~repro.scheduling.allocator.WindowAllocator` (reusing
   its SolveCache), ingests the window's history, and releases everyone
   into window k+1.

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

One data plane carries the boundary exchange: the zero-copy
shared-memory plane (:mod:`repro.coordination.shm`).  The parent
seqlock-publishes each epoch's allocation into a control block, workers
write demand/admitted columns and binary checkpoint records into
per-shard ring slots, and the parent folds allocations straight out of
the arrays — the steady-state epoch does zero pickling and zero hashing,
and pipes carry only control traffic (reassignment and its adoption
reply, finish, failure, death detection).  Where shared memory is
unavailable the runner runs the ``shards=1`` inline path instead —
bit-identical by the contract above — and records why in
``ShardedResult.transport_fallback``.

Deterministic crash hooks for tests and chaos runs: the
``REPRO_SHARD_FAULT`` env var (or the ``faults=`` argument, or a
:class:`~repro.faults.plan.FaultPlan` with ``revoke_shard`` events via
:func:`shard_faults_from_plan`) holds comma-separated
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
import signal
import time
from dataclasses import dataclass, field
from functools import partial
from time import monotonic  # simlint: disable=SIM001  # IPC deadlines, not sim time
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.coordination.aggregation import StreamStats, VectorAggregate
from repro.coordination.barrier import (
    BoundaryMessage,
    EpochBarrier,
    FinishMessage,
    ReassignMessage,
    ShardWorkerError,
    WorkerFailure,
)
from repro.coordination.checkpoint import (
    ClusterCheckpoint,
    RecoveryPolicy,
    ShardReassignment,
    ShardRestart,
    epoch_digest,
)
from repro.coordination.shm import PlaneSpec, ShmDataPlane, ShmUnavailable
from repro.coordination.tree import CombiningTree
from repro.core.access import compute_access_levels
from repro.core.agreements import Agreement, AgreementGraph
from repro.experiments.harness import FigureResult
from repro.faults.plan import SHARD_REVOKE_MODES, FaultPlan, FaultPlanError, ShardRevoke
from repro.scheduling.allocator import WindowAllocator
from repro.scheduling.window import WindowConfig
from repro.sim.monitor import PhaseStats
from repro.sim.rng import RngStreams

__all__ = [
    "ShardClient",
    "ShardCluster",
    "ShardedWorld",
    "ShardFault",
    "ShardedResult",
    "ShardedRunner",
    "shard_faults_from_plan",
    "sharded_fig6_world",
    "sharded_fig9_world",
    "SHARDED_WORLDS",
    "run_sharded",
    "run_sharded_figure",
]

_LOG = logging.getLogger("repro.sharded")

_FAULT_ENV = "REPRO_SHARD_FAULT"


# ---------------------------------------------------------------------------
# World declaration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShardClient:
    """Open-loop Poisson source bound to one cluster.

    ``windows`` lists (start, end) activity intervals in seconds; ``None``
    means always active.  Arrival counts per scheduling window are Poisson
    with mean ``rate × overlap(window, activity)``, drawn from the owning
    cluster's substream in declaration order.
    """

    name: str
    principal: str
    rate: float
    windows: Optional[Tuple[Tuple[float, float], ...]] = None

    def overlap(self, t0: float, t1: float) -> float:
        """Active seconds inside [t0, t1)."""
        if self.windows is None:
            return t1 - t0
        total = 0.0
        for a, b in self.windows:
            total += max(0.0, min(b, t1) - max(a, t0))
        return total


@dataclass(frozen=True)
class ShardCluster:
    """One cluster: a redirector's worth of clients plus a local server.

    ``capacity`` (req/s) drives the response-time observer — a constant-
    service Lindley recursion over the cluster's admitted requests.  It
    does not gate admission; quotas do.
    """

    name: str
    clients: Tuple[ShardClient, ...]
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
    # First epoch this worker will execute (respawned workers resume at
    # the in-flight window; the allocation control block already shows it).
    resume_epoch: int = 0


# One window's outcome for one cluster: (demand aggregate, admitted counts).
ClusterRecord = Tuple[VectorAggregate, Dict[str, float]]


class _ClusterState:
    """One cluster's private simulation state.

    Self-contained: its draws depend only on (its substream, the broadcast
    fraction sequence), never on which shard runs it or which clusters
    share its worker — the invariant the digest-parity contract rests on.
    Everything here round-trips through :meth:`checkpoint`/:meth:`restore`
    bit-exactly; per-window history lives in the parent.
    """

    def __init__(self, spec: ShardCluster, principals: Tuple[str, ...],
                 window: float, streams: RngStreams) -> None:
        self.spec = spec
        self.principals = principals
        self.window = window
        self.rng = streams.get(f"cluster:{spec.name}")
        # Residual-carry admission: fractional quota left over while
        # quota-limited rolls into the next window (no banking of unused
        # quota), so long-run admitted rate tracks quota exactly.
        self.carry = {p: 0.0 for p in principals}
        self.response = StreamStats()
        self.clock = 0.0           # server-free time for the Lindley observer
        self.svc = 1.0 / spec.capacity

    def step(self, k: int, frac: Optional[Dict[str, float]],
             conservative: Mapping[str, float]) -> ClusterRecord:
        """Simulate window k; returns (demand aggregate, admitted counts)."""
        w = self.window
        t0, t1 = k * w, (k + 1) * w
        demand = {p: 0 for p in self.principals}
        for client in self.spec.clients:
            active = client.overlap(t0, t1)
            if active > 0.0:
                demand[client.principal] += int(
                    self.rng.poisson(client.rate * active)
                )
        admitted: Dict[str, float] = {}
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
            admitted[p] = float(adm)
            total_adm += adm
        if total_adm > 0:
            self._observe(t0, total_adm)
        return (
            VectorAggregate.local({p: float(demand[p]) for p in self.principals}),
            admitted,
        )

    def _observe(self, t0: float, m: int) -> None:
        """Constant-service Lindley recursion over m in-window arrivals."""
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
        self.clusters = [
            self._build(spec, task.restore.get(spec.name))
            for spec in task.clusters
        ]

    def _build(self, spec: ShardCluster,
               ck: Optional[ClusterCheckpoint]) -> _ClusterState:
        state = _ClusterState(spec, self.task.principals, self.task.window,
                              self.streams)
        if ck is not None:
            state.restore(ck)
        return state

    def step(self, k: int,
             frac: Optional[Dict[str, float]]) -> Dict[str, ClusterRecord]:
        cons = self.task.conservative
        return {c.spec.name: c.step(k, frac, cons) for c in self.clusters}

    def adopt(self, specs: Sequence[ShardCluster],
              checkpoints: Mapping[str, ClusterCheckpoint]) -> List[_ClusterState]:
        """Take over a dead shard's clusters, restoring their checkpoints."""
        added = [
            self._build(spec, checkpoints.get(spec.name)) for spec in specs
        ]
        self.clusters.extend(added)
        return added

    def checkpoints(
        self, clusters: Optional[Sequence[_ClusterState]] = None
    ) -> Dict[str, ClusterCheckpoint]:
        subset = self.clusters if clusters is None else clusters
        return {c.spec.name: c.checkpoint() for c in subset}


def _adoption_reply(epoch: int, shard: int,
                    records: Dict[str, ClusterRecord]) -> BoundaryMessage:
    return BoundaryMessage(
        epoch=epoch,
        shard=shard,
        demand={name: rec[0] for name, rec in records.items()},
        admitted={name: rec[1] for name, rec in records.items()},
    )


def _plane_rows(
    state: ShardState, records: Dict[str, ClusterRecord],
    principals: Tuple[str, ...],
    clusters: Optional[List[_ClusterState]] = None,
) -> Dict[str, Tuple[List[float], List[float], ClusterCheckpoint]]:
    """Boundary records in the shared-memory row form (dense columns)."""
    cks = state.checkpoints(clusters)
    return {
        name: (
            [agg.get(p, 0.0) for p in principals],
            [float(admitted.get(p, 0.0)) for p in principals],
            cks[name],
        )
        for name, (agg, admitted) in records.items()
    }


# Worker-side allocation poll backoff: tiny floor keeps barrier latency in
# the tens of microseconds, tiny cap keeps a waiting worker nearly idle
# without ever adding more than ~2 ms to an epoch boundary.
_WORKER_POLL_FLOOR = 0.0002
_WORKER_POLL_CAP = 0.002


def _shard_worker_main(conn: Any, task: ShardTask) -> None:
    """Worker process entry point: allocations and boundaries via the plane.

    Module-level (picklable under spawn); receives *all* state through
    ``task`` — never module globals (SIM007's worker contract).

    The pipe is polled non-blockingly for control traffic only.  A
    ``ReassignMessage`` for epoch *k* is deferred until this worker has
    published its *own* epoch-*k* rows — publishing the adopted rows first
    would mark the slot's seqlock as epoch-*k*-complete while the owned
    rows were still stale.  Adoption replies go back over the pipe (they
    are rare control traffic), but the adopted rows are *also* published
    into this worker's ring slot so later restores can decode them.
    """
    faults = {f.epoch: f.mode for f in task.faults}
    plane: Optional[ShmDataPlane] = None
    try:
        assert task.plane is not None   # only the inline path has none
        plane = ShmDataPlane.attach(task.plane)
        state = ShardState(task)
        principals = task.principals
        last = task.resume_epoch - 1
        pending: List[ReassignMessage] = []
        wait = _WORKER_POLL_FLOOR
        while True:
            if conn.poll(0):
                msg = conn.recv()
                if isinstance(msg, FinishMessage):
                    return
                if isinstance(msg, ReassignMessage):
                    pending.append(msg)
                    continue
            while pending and pending[0].epoch <= last:
                msg = pending.pop(0)
                added = state.adopt(msg.clusters, msg.checkpoints)
                records = {
                    c.spec.name: c.step(msg.epoch, msg.frac, task.conservative)
                    for c in added
                }
                plane.publish(task.shard, msg.epoch,
                              _plane_rows(state, records, principals,
                                          clusters=added))
                conn.send(_adoption_reply(msg.epoch, task.shard, records))
            ready, frac = plane.poll_allocation(last + 1)
            if not ready:
                time.sleep(wait)
                wait = min(wait * 2.0, _WORKER_POLL_CAP)
                continue
            wait = _WORKER_POLL_FLOOR
            k = last + 1
            mode = faults.pop(k, None)
            if mode is not None:
                _fire_fault(mode)   # deterministic mid-window death
            records = state.step(k, frac)
            plane.publish(task.shard, k,
                          _plane_rows(state, records, principals))
            last = k
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
    demand: Dict[str, Dict[str, np.ndarray]]
    admitted: Dict[str, Dict[str, np.ndarray]]
    refused: Dict[str, Dict[str, np.ndarray]]
    response: Dict[str, StreamStats]
    clock: Dict[str, float]
    global_demand: Dict[str, np.ndarray]
    frac: Dict[str, np.ndarray]     # -1.0 sentinel on conservative windows
    lp_solves: int = 0
    cache_hits: int = 0
    fallback_windows: int = 0
    restarts: List[ShardRestart] = field(default_factory=list)
    reassignments: List[ShardReassignment] = field(default_factory=list)
    final_checkpoint_digest: str = ""
    barrier_polls: int = 0
    # Always 0 (the parent retains no checkpoints and never blocks on a
    # pipe); kept because the frozen benchmarks/e2e/workloads.py reads
    # them — ROADMAP item 1's benchmark PR removes both.
    checkpoint_bytes: int = 0
    barrier_wait_s: float = 0.0
    # Data-plane accounting.  ``data_plane`` is what actually carried the
    # boundary exchange: "shm", or "inline" (shards=1, or no shared
    # memory here — ``transport_fallback`` then records why).
    # ``bytes_per_epoch`` is the row/control bytes the parent copies per
    # epoch; ``ring_bytes_per_epoch`` the checkpoint-record bytes workers
    # write in place per epoch (decoded only on restore and at the
    # horizon, never crossing to the parent in steady state).
    data_plane: str = "inline"
    transport_fallback: Optional[str] = None
    bytes_per_epoch: int = 0
    ring_bytes_per_epoch: int = 0
    plane_polls: int = 0
    plane_wait_s: float = 0.0

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
    provide shared memory (:class:`ShmUnavailable`; an explicit
    ``faults=`` schedule then raises instead of silently not firing).
    Partitioning is round-robin over *sorted* cluster names, so shard
    membership is a pure function of (world, R); results are a pure
    function of world alone.

    ``recovery`` (default :class:`RecoveryPolicy`) makes the sharded path
    self-healing: respawn-from-checkpoint inside the budget, cluster
    reassignment to survivors beyond it.  ``recovery=None`` restores the
    PR 7 fail-stop behaviour (first :class:`ShardWorkerError` aborts).
    ``faults`` schedules deterministic worker deaths
    (``"shard:epoch[:mode]"`` entries, strictly validated); when omitted,
    the ``REPRO_SHARD_FAULT`` env var is consulted with the same syntax
    (tolerantly: tokens for out-of-range shards are ignored, so one env
    setting can target a specific matrix cell).
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
        # Reduction order: balanced combining tree over sorted cluster
        # names — fixed fold order regardless of shard packing.
        self._tree = CombiningTree.balanced([c.name for c in self._ordered])
        self._explicit_faults = faults is not None
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
        self._plane_polls = 0
        self._plane_wait_s = 0.0

    # -- fault binding ------------------------------------------------------

    def _bind_faults(
        self, faults: Optional[Sequence[Any]]
    ) -> Dict[int, Tuple[ShardFault, ...]]:
        specs: Dict[int, List[ShardFault]] = {i: [] for i in range(self.shards)}
        if faults is not None:
            for entry in faults:
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
        else:
            for tok in os.environ.get(_FAULT_ENV, "").split(","):
                parsed = _parse_fault_entry(tok.strip())
                if parsed is None:
                    continue
                shard, fault = parsed
                if 0 <= shard < self.shards:
                    specs[shard].append(fault)
        return {shard: tuple(fl) for shard, fl in specs.items()}

    # -- task construction --------------------------------------------------

    def _task(
        self, shard: int,
        restore: Optional[Mapping[str, ClusterCheckpoint]] = None,
        resume_epoch: int = 0,
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
            resume_epoch=int(resume_epoch),
        )

    # -- reduction / policy -------------------------------------------------

    def _reduce(self, leaves: Dict[str, VectorAggregate]) -> VectorAggregate:
        """Fold per-cluster aggregates in combining-tree order."""

        def fold(node: Any) -> VectorAggregate:
            agg = leaves[node].copy()
            for child in self._tree.children(node):
                agg = agg.merge(fold(child))
            return agg

        return fold(self._tree.root)

    def _policy(self, merged: VectorAggregate) -> Dict[str, float]:
        """Window LP on the merged demand -> served fraction per principal."""
        demand = {p: merged.get(p, 0.0) for p in self.allocator.principals}
        alloc = self.allocator.compute(demand)
        frac: Dict[str, float] = {}
        for p in self.allocator.principals:
            g = alloc.global_estimate.get(p, 0.0)
            frac[p] = min(1.0, alloc.quotas[p] / g) if g > 1e-9 else 0.0
        return frac

    # -- the run ------------------------------------------------------------

    def _open_plane(self) -> Optional[ShmDataPlane]:
        """The run's data plane, or ``None`` to run inline."""
        if self.shards == 1:
            return None
        try:
            return ShmDataPlane.create(
                [c.name for c in self._ordered], self.world.principals,
                self.shards,
                unregister_on_attach=(self._mp_method != "fork"),
            )
        except ShmUnavailable as exc:
            unfired = sorted(f"{shard}:{f.epoch}:{f.mode}"
                             for shard, fl in self._fault_specs.items()
                             for f in fl)
            if unfired and self._explicit_faults:
                raise ShmUnavailable(
                    f"{exc}; faults {unfired} need worker processes and "
                    f"would not fire on the inline fallback"
                ) from exc
            self.transport_fallback = str(exc)
            _LOG.warning(
                "shm data plane unavailable, running shards=%d inline%s: %s",
                self.shards,
                f" ({_FAULT_ENV} faults {unfired} will not fire)"
                if unfired else "",
                exc,
            )
            return None

    def run(self) -> ShardedResult:
        world = self.world
        n_windows = world.n_windows
        names = [c.name for c in world.clusters]
        self._dh = {n: {p: np.zeros(n_windows) for p in world.principals}
                    for n in names}
        self._ah = {n: {p: np.zeros(n_windows) for p in world.principals}
                    for n in names}
        self._rh = {n: {p: np.zeros(n_windows) for p in world.principals}
                    for n in names}
        frac_hist = {p: np.full(n_windows, -1.0) for p in world.principals}
        gdemand = {p: np.zeros(n_windows) for p in world.principals}
        fallback_windows = 0
        frac: Optional[Dict[str, float]] = None
        self._faults = {s: list(fl) for s, fl in self._fault_specs.items()}
        self._epoch_attempts = {}
        self.restarts = []
        self.reassignments = []
        self.transport_fallback = None
        self._ring_owner = None
        self._plane_polls = 0
        self._plane_wait_s = 0.0
        barrier_polls = 0
        plane = self._plane = self._open_plane()
        shards = self.shards if plane is not None else 1
        self._owned = {i: self._ordered[i::shards] for i in range(shards)}
        barrier: Optional[EpochBarrier] = None
        try:
            if plane is None:
                state = ShardState(self._task(0))
                step = state.step
            else:
                barrier = self._start_workers()
                step = partial(self._epoch, barrier)
            for k in range(n_windows):
                if frac is None:
                    fallback_windows += 1
                else:
                    for p in world.principals:
                        frac_hist[p][k] = frac[p]
                records = step(k, frac)
                self._ingest(k, records)
                merged = self._reduce({n: rec[0] for n, rec in records.items()})
                for p in world.principals:
                    gdemand[p][k] = merged.get(p, 0.0)
                frac = self._policy(merged)
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
                barrier_polls = barrier.polls
                barrier.close(terminate=True)
            if plane is not None:
                plane.close()
                plane.unlink()

        return ShardedResult(
            world=world,
            shards=shards,
            window=world.window,
            n_windows=n_windows,
            principals=tuple(world.principals),
            clusters=tuple(sorted(names)),
            demand=self._dh,
            admitted=self._ah,
            refused=self._rh,
            response={n: ck.response for n, ck in final.items()},
            clock={n: ck.clock for n, ck in final.items()},
            global_demand=gdemand,
            frac=frac_hist,
            lp_solves=self.allocator.lp_solves,
            cache_hits=self.allocator.cache_hits,
            fallback_windows=fallback_windows,
            restarts=list(self.restarts),
            reassignments=list(self.reassignments),
            final_checkpoint_digest=epoch_digest(final),
            barrier_polls=barrier_polls,
            data_plane="inline" if plane is None else "shm",
            transport_fallback=self.transport_fallback,
            bytes_per_epoch=(0 if plane is None
                             else plane.boundary_bytes_per_epoch),
            ring_bytes_per_epoch=(0 if plane is None
                                  else plane.ring_bytes_per_epoch),
            plane_polls=self._plane_polls,
            plane_wait_s=self._plane_wait_s,
        )

    def _ingest(self, k: int, records: Dict[str, ClusterRecord]) -> None:
        """Fold one window's records into the parent-owned history arrays.

        ``refused = demand - admitted`` is exact: both are small-integer
        counts represented as float64, so the difference is the same float
        the worker-side subtraction used to produce.
        """
        for name, (agg, admitted) in records.items():
            for p in self.world.principals:
                d = agg.get(p, 0.0)
                a = float(admitted.get(p, 0.0))
                self._dh[name][p][k] = d
                self._ah[name][p][k] = a
                self._rh[name][p][k] = d - a

    # -- sharded epoch protocol (with recovery) -----------------------------

    # Parent-side seqlock poll backoff: each poll is a couple of numpy
    # scalar reads, so the floor can sit well under a syscall's cost
    # without burning a core.
    _PARENT_POLL_FLOOR = 0.00005
    _PARENT_POLL_CAP = 0.002

    def _epoch(
        self, barrier: EpochBarrier, k: int, frac: Optional[Dict[str, float]]
    ) -> Dict[str, ClusterRecord]:
        """Run window ``k`` across the workers; heal failures as they surface.

        The allocation is seqlock-published once; the gather loop then
        polls every pending shard's slot, folding rows the moment they
        publish, and interleaves non-blocking pipe checks so worker death
        (or an adoption reply) surfaces between slot polls.
        ``self._expected`` counts pending pipe-borne adoption replies.
        """
        plane = self._plane
        assert plane is not None
        plane.write_allocation(k, frac)
        self._expected = {}
        need: Set[int] = {s for s in barrier.active if self._owned[s]}
        records: Dict[str, ClusterRecord] = {}
        principals = self.world.principals
        deadline = monotonic() + self.epoch_timeout  # simlint: disable=SIM001
        wait = 0.0
        while need or any(v > 0 for v in self._expected.values()):
            if wait > 0.0:
                time.sleep(wait)
                self._plane_wait_s += wait
            progress = False
            for shard in sorted(need):
                names = [c.name for c in self._owned[shard]]
                self._plane_polls += 1
                rows = None
                failure: Optional[ShardWorkerError] = None
                try:
                    rows = plane.try_read_boundary(shard, k, names)
                    if rows is None:
                        # Quiet slot: give death/typed failure a chance to
                        # surface instead of spinning until the deadline.
                        stray = barrier.poll_control(shard)
                        if stray is not None:
                            failure = ShardWorkerError(
                                shard,
                                f"unexpected {type(stray).__name__} during "
                                f"epoch {k}",
                            )
                except ShardWorkerError as err:
                    failure = err
                if failure is not None:
                    self._handle_failure(barrier, shard, k, frac, failure)
                    if (barrier.connections[shard] is None
                            or not self._owned[shard]):
                        need.discard(shard)   # reassigned away
                    progress = True
                    continue
                if rows is not None:
                    for name, (dvec, avec) in rows.items():
                        records[name] = (
                            VectorAggregate.from_columns(principals, dvec),
                            {p: float(v) for p, v in zip(principals, avec)},
                        )
                    need.discard(shard)
                    progress = True
            for shard in [s for s in sorted(self._expected)
                          if self._expected[s] > 0]:
                try:
                    msg = barrier.try_recv(shard, k, BoundaryMessage)
                except ShardWorkerError as err:
                    self._handle_failure(barrier, shard, k, frac, err)
                    if (barrier.connections[shard] is not None
                            and self._owned[shard]):
                        # The respawned survivor replays *all* its clusters
                        # (own + adopted) and publishes them via the plane;
                        # no pipe reply is coming any more.
                        self._expected[shard] = 0
                        need.add(shard)
                    progress = True
                    continue
                if msg is not None:
                    self._expected[shard] -= 1
                    for name, agg in msg.demand.items():
                        records[name] = (agg, dict(msg.admitted.get(name, {})))
                    progress = True
            if progress:
                deadline = monotonic() + self.epoch_timeout  # simlint: disable=SIM001
                wait = 0.0
            else:
                if monotonic() > deadline:  # simlint: disable=SIM001
                    pending = sorted(need) + [
                        s for s in sorted(self._expected)
                        if self._expected[s] > 0
                    ]
                    raise ShardWorkerError(
                        pending[0] if pending else -1,
                        f"no boundary publication for epoch {k} within "
                        f"{self.epoch_timeout:.0f}s (hang?)",
                    )
                wait = min(max(wait * 2.0, self._PARENT_POLL_FLOOR),
                           self._PARENT_POLL_CAP)
        missing = [n for n in (c.name for c in self.world.clusters)
                   if n not in records]
        if missing:
            raise ShardWorkerError(
                -1, f"epoch {k} completed without records for {missing}"
            )
        self._ring_owner = {c.name: s for s, cl in self._owned.items()
                            for c in cl}
        return records

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
                and attempt < policy.per_epoch_retries):
            self._respawn(barrier, shard, k, frac, err, attempt)
        elif policy.reassign_on_exhaustion:
            self._reassign(barrier, shard, k, frac, err)
        else:
            raise err

    def _respawn(
        self, barrier: EpochBarrier, shard: int, k: int,
        frac: Optional[Dict[str, float]], err: ShardWorkerError, attempt: int,
    ) -> None:
        """Respawn a dead shard from the last checkpoint and replay window k."""
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
        conn, proc = self._spawn(self._task(shard, restore=restore,
                                            resume_epoch=k))
        # The control block already shows epoch k; the respawned worker
        # resumes there without any pipe traffic.
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
# World builders (fig6/fig9-shaped, with replica and load knobs)
# ---------------------------------------------------------------------------


def sharded_fig6_world(
    duration_scale: float = 1.0,
    seed: int = 0,
    replicas: int = 1,
    load_scale: float = 1.0,
) -> ShardedWorld:
    """The fig6 world for the sharded lane: V=320·R·s; A [0.2,1] with two
    135·s req/s clients per R1 cluster, B [0.8,1] with one per R2 cluster.

    ``replicas`` stamps out R independent (R1, R2) cluster pairs against a
    proportionally larger server principal — the fixed per-cluster-load
    scaling axis the shard bench sweeps; ``load_scale`` multiplies every
    client rate and capacity together, holding the LP's shape constant.
    """
    T = 100.0 * duration_scale
    a_windows = ((0.0, 3 * T),)
    b_windows = ((0.0, T), (2 * T, 3 * T))
    clusters: List[ShardCluster] = []
    for i in range(replicas):
        tag = f"[{i}]" if replicas > 1 else ""
        clusters.append(ShardCluster(
            name=f"R1{tag}",
            clients=(
                ShardClient(f"C1{tag}", "A", 135.0 * load_scale, a_windows),
                ShardClient(f"C2{tag}", "A", 135.0 * load_scale, a_windows),
            ),
            capacity=320.0 * load_scale,
        ))
        clusters.append(ShardCluster(
            name=f"R2{tag}",
            clients=(
                ShardClient(f"C3{tag}", "B", 135.0 * load_scale, b_windows),
            ),
            capacity=320.0 * load_scale,
        ))
    g = AgreementGraph()
    g.add_principal("S", capacity=320.0 * replicas * load_scale)
    g.add_principal("A")
    g.add_principal("B")
    g.add_agreement(Agreement("S", "A", 0.2, 1.0))
    g.add_agreement(Agreement("S", "B", 0.8, 1.0))
    return ShardedWorld(
        name="fig6",
        clusters=tuple(clusters),
        principals=("A", "B"),
        duration=3 * T,
        seed=seed,
        graph=g,
    )


def sharded_fig9_world(
    duration_scale: float = 1.0,
    seed: int = 0,
    replicas: int = 1,
    load_scale: float = 1.0,
) -> ShardedWorld:
    """The fig9 world: A and B each own 320·R·s req/s; B grants A [0.5,0.5];
    per replica one switch cluster with the paper's three 400·s clients."""
    T = 100.0 * duration_scale
    clusters: List[ShardCluster] = []
    for i in range(replicas):
        tag = f"[{i}]" if replicas > 1 else ""
        clusters.append(ShardCluster(
            name=f"SW{tag}",
            clients=(
                ShardClient(f"C1{tag}", "A", 400.0 * load_scale,
                            ((0.0, T), (2 * T, 3 * T))),
                ShardClient(f"C2{tag}", "A", 400.0 * load_scale, ((0.0, T),)),
                ShardClient(f"C3{tag}", "B", 400.0 * load_scale, ((0.0, 4 * T),)),
            ),
            capacity=640.0 * load_scale,
        ))
    g = AgreementGraph()
    g.add_principal("A", capacity=320.0 * replicas * load_scale)
    g.add_principal("B", capacity=320.0 * replicas * load_scale)
    g.add_agreement(Agreement("B", "A", 0.5, 0.5))
    return ShardedWorld(
        name="fig9",
        clusters=tuple(clusters),
        principals=("A", "B"),
        duration=4 * T,
        seed=seed,
        graph=g,
    )


SHARDED_WORLDS = {
    "fig6": sharded_fig6_world,
    "fig9": sharded_fig9_world,
}


def run_sharded(
    figure: str = "fig6",
    duration_scale: float = 1.0,
    seed: int = 0,
    shards: int = 1,
    replicas: int = 1,
    load_scale: float = 1.0,
    epoch_timeout: float = 120.0,
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
    runner = ShardedRunner(world, shards=shards,
                           epoch_timeout=epoch_timeout,
                           recovery=recovery, faults=faults)
    return runner.run()


def run_sharded_figure(
    figure: str,
    duration_scale: float = 1.0,
    seed: int = 0,
    shards: int = 1,
) -> FigureResult:
    """Run fig6/fig9 on the sharded lane, returning a FigureResult.

    The phase expectations are the event-lane ones: the sharded lane is a
    different execution model over the same LP and the same offered load,
    so the paper's phase rates must still come out.
    """
    from repro.experiments.figures import paper_phases

    res = run_sharded(figure, duration_scale=duration_scale, seed=seed,
                      shards=shards)
    phases, expected, settle = paper_phases(figure, 100.0 * duration_scale)
    return FigureResult(
        figure=figure,
        title=f"{'L7' if figure == 'fig6' else 'L4'}: agreements respected "
              f"(sharded lane)",
        phases=res.phase_rates(phases, keys=["A", "B"], settle=settle),
        expected=expected,
        series=res.series(["A", "B"]),
        notes=f"sharded lane: shards={res.shards}, "
              f"data plane {res.data_plane}, "
              f"{res.n_windows} window epochs, "
              f"{res.lp_solves} LP solves ({res.cache_hits} cache hits), "
              f"{len(res.restarts)} restarts, "
              f"{len(res.reassignments)} reassignments",
    )
