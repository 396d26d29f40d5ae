"""Fault-matrix experiment: enforcement through a partition and its heal.

A fig8-style world — one 320 req/s server S, principal A [0.8, 1.0] with
two 135 req/s clients at redirector R1, principal B [0.2, 1.0] with one
135 req/s client at R2, a dedicated aggregator root — run through three
phases:

1. **agreed** — both redirectors coordinate; the community LP converges to
   the agreed (A 255, B 65) split.
2. **partition** — the coordination links between R2 and the root are cut.
   R2's view goes stale, the allocator snaps to the conservative 1/R
   fallback, and B is *held at* (not below) its ``0.2 × 320 / 2 = 32``
   req/s mandatory floor while the membership layer evicts the unreachable
   node; A, still coordinated, expands into the freed capacity.
3. **heal** — links are restored, heartbeats resume, R2 rejoins the tree,
   and both principals re-converge to the agreed split within a bounded
   number of scheduling windows (asserted by the invariant checker's
   liveness ledger when enabled).

The partition never silences the *request* path — clients keep talking to
their redirector — so the phase-2 rates demonstrate exactly the paper's
degradation story: losing coordination costs optional capacity, never the
mandatory guarantee.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.core.agreements import Agreement, AgreementGraph
from repro.coordination.checkpoint import RecoveryPolicy
from repro.experiments.harness import FigureResult, PhaseExpectation, Scenario
from repro.faults.inject import FaultInjector
from repro.faults.plan import FaultPlan, PartitionFault, ShardRevoke

__all__ = [
    "run_fault_matrix",
    "fault_matrix_scenario",
    "canonical_plan",
    "canonical_shard_plan",
    "run_crash_recovery_matrix",
    "CONSERVATIVE_B",
]

# B's conservative floor: 1/R of its mandatory entitlement (R = 2).
CONSERVATIVE_B = 0.2 * 320.0 / 2.0

# Re-convergence budget after the heal: 30 windows of 0.1 s.
K_WINDOWS = 30

AGREED = {"A": 255.0, "B": 65.0}


def _graph() -> AgreementGraph:
    g = AgreementGraph()
    g.add_principal("S", capacity=320.0)
    g.add_principal("A")
    g.add_principal("B")
    g.add_agreement(Agreement("S", "A", 0.8, 1.0))
    g.add_agreement(Agreement("S", "B", 0.2, 1.0))
    return g


def canonical_plan(duration_scale: float = 1.0) -> FaultPlan:
    """The fault matrix's default fault: partition R2 for the middle third."""
    phase = max(8.0, 20.0 * duration_scale)
    return FaultPlan(
        events=[PartitionFault(
            at=phase, until=2.0 * phase, groups=(("R2",), ("__root__", "R1")),
        )],
        name="coordination-partition",
    )


def fault_matrix_scenario(
    duration_scale: float = 1.0,
    seed: int = 0,
    check_invariants: Optional[bool] = None,
    plan: Optional[FaultPlan] = None,
    heartbeat_period: float = 0.25,
    stale_after: float = 1.0,
) -> Tuple[Scenario, FaultInjector, Tuple[float, float, float]]:
    """Build (and run) the fault-matrix world; returns it with its timeline.

    ``plan=None`` uses the canonical coordination partition of R2 during
    the middle third; pass any :class:`FaultPlan` (e.g. from ``repro
    chaos --random``) to drive the same world through different faults.
    """
    phase = max(8.0, 20.0 * duration_scale)
    t1, t2 = phase, 2.0 * phase
    end = 3.0 * phase
    sc = Scenario(
        _graph(), seed=seed, bin_width=0.5, check_invariants=check_invariants,
    )
    server = sc.server("S", "S", 320.0)
    r1 = sc.l7("R1", {"S": server}, n_redirectors=2, stale_after=stale_after)
    r2 = sc.l7("R2", {"S": server}, n_redirectors=2, stale_after=stale_after)
    sc.connect_tree(
        link_delay=0.01, extra_root=True, resilient=True,
        heartbeat_period=heartbeat_period,
    )
    sc.client("C1", "A", r1, rate=135.0)
    sc.client("C2", "A", r1, rate=135.0)
    sc.client("C3", "B", r2, rate=135.0)
    canonical = plan is None
    if plan is None:
        plan = canonical_plan(duration_scale)
    injector = FaultInjector(sc, plan)
    # The liveness ledger's deadline assumes the canonical timeline; a
    # caller-supplied plan may still be faulted at t2.
    if canonical and sc.invariants is not None:
        sc.invariants.arm_liveness(
            sc.sim, sc.meter, AGREED,
            heal_at=t2, k_windows=K_WINDOWS, window=sc.window.length,
        )
    sc.run(end)
    return sc, injector, (t1, t2, end)


def run_fault_matrix(
    duration_scale: float = 1.0,
    seed: int = 0,
    check_invariants: Optional[bool] = None,
) -> FigureResult:
    """The fault matrix as a figure: rates per phase, floor + recovery."""
    sc, injector, (t1, t2, end) = fault_matrix_scenario(
        duration_scale=duration_scale, seed=seed,
        check_invariants=check_invariants,
    )
    # Degradation needs stale_after + failure detection to kick in; the
    # recovery window is bounded by K_WINDOWS after the heal.
    settle = 3.0
    phases = [
        ("p1_agreed", settle, t1),
        ("p2_partition", t1 + settle, t2),
        ("p3_recovered", t2 + settle, end),
    ]
    membership = sc.membership
    assert membership is not None
    return FigureResult(
        figure="faultmatrix",
        title="Enforcement through coordination partition and heal",
        phases=sc.phase_rates(phases, keys=["A", "B"], settle=0.0),
        expected=[
            PhaseExpectation("p1_agreed", dict(AGREED)),
            # Partition: B held at its conservative floor (not starved),
            # A expands into the capacity B's optional share released.
            PhaseExpectation(
                "p2_partition", {"A": 270.0, "B": CONSERVATIVE_B},
                tolerance=0.3,
            ),
            PhaseExpectation("p3_recovered", dict(AGREED)),
        ],
        series=sc.series(["A", "B"]),
        notes=(
            f"partition [{t1:.0f}s, {t2:.0f}s): R2 cut from the tree; "
            f"evictions={membership.reconfigurations} "
            f"rejoins={membership.rejoins} "
            f"degraded_windows={sc.l7_redirectors['R2'].allocator.degraded_windows}"
        ),
    )


# ---------------------------------------------------------------------------
# Crash-recovery matrix (sharded execution lane)
# ---------------------------------------------------------------------------


def _crash_epochs(n_windows: int) -> Tuple[int, int]:
    """Two distinct death epochs: one third and two thirds through the run."""
    e1 = max(1, n_windows // 3)
    e2 = max(e1 + 1, (2 * n_windows) // 3)
    return e1, e2


def canonical_shard_plan(
    figure: str = "fig6",
    duration_scale: float = 0.05,
    shards: int = 4,
) -> FaultPlan:
    """The canonical worker-revocation plan for ``repro chaos --shards R``.

    Two deaths at distinct epochs, one per crash path: shard 0 raises at a
    third of the run (the exception path), and a second shard is SIGKILLed
    at two thirds (the hard-death path).  Epoch binding happens in
    :func:`repro.experiments.sharded.shard_faults_from_plan`.
    """
    from repro.experiments.sharded import SHARDED_WORLDS

    world = SHARDED_WORLDS[figure](duration_scale)
    e1, e2 = _crash_epochs(world.n_windows)
    return FaultPlan(
        events=[
            ShardRevoke(at=e1 * world.window, shard=0, mode="exc"),
            ShardRevoke(at=e2 * world.window, shard=min(1, shards - 1),
                        mode="kill"),
        ],
        name=f"shard-crash-{figure}",
    )


def run_crash_recovery_matrix(
    figure: str = "fig6",
    duration_scale: float = 0.05,
    seed: int = 0,
    shards: int = 4,
    replicas: int = 4,
) -> Dict[str, Any]:
    """Crash-recovery matrix: every death mode must leave the digest intact.

    Runs the sharded world unfaulted at ``shards=1`` for the reference
    digest, then four faulted cells at ``shards``:

    - ``exc``      worker raises mid-run (WorkerFailure -> respawn);
    - ``kill``     worker SIGKILLed (EOF on the pipe -> respawn);
    - ``multi``    both deaths, two distinct epochs, two shards;
    - ``reassign`` restart budget of 1 vs two kills: the second death
      retires the shard and its clusters move to the survivors.

    Every cell must reproduce the reference digest bit-identically — the
    matrix's single pass/fail; ``reassign`` must additionally record at
    least one :class:`~repro.coordination.checkpoint.ShardReassignment`
    (otherwise the cell exercised nothing and is marked failed).  Where
    shared memory is unavailable the faulted cells raise
    :class:`~repro.coordination.shm.ShmUnavailable` rather than pass
    unfaulted on the inline fallback.
    """
    from repro.experiments.sharded import run_sharded

    baseline = run_sharded(figure, duration_scale=duration_scale, seed=seed,
                           shards=1, replicas=replicas)
    ref = baseline.digest()
    e1, e2 = _crash_epochs(baseline.n_windows)
    other = min(1, shards - 1)
    cells: Dict[str, Dict[str, Any]] = {}

    def cell(name: str, faults, recovery=None, need_reassign=False) -> None:
        kwargs: Dict[str, Any] = {}
        if recovery is not None:
            kwargs["recovery"] = recovery
        res = run_sharded(figure, duration_scale=duration_scale, seed=seed,
                          shards=shards, replicas=replicas, faults=faults,
                          **kwargs)
        degraded = len(res.reassignments)
        ok = res.digest() == ref and (degraded > 0 or not need_reassign)
        cells[name] = {
            "faults": list(faults),
            "digest": res.digest(),
            "match": res.digest() == ref,
            "restarts": len(res.restarts),
            "reassignments": degraded,
            "checkpoint_match":
                res.final_checkpoint_digest == baseline.final_checkpoint_digest,
            "ok": ok,
        }

    cell("exc", [f"0:{e1}:exc"])
    cell("kill", [f"{other}:{e2}:kill"])
    cell("multi", [f"0:{e1}:exc", f"{other}:{e2}:kill"])
    cell("reassign", [f"0:{e1}:kill", f"0:{e2}:kill"],
         recovery=RecoveryPolicy(max_restarts=1, backoff_base=0.01),
         need_reassign=True)

    return {
        "figure": figure,
        "shards": shards,
        "epochs": [e1, e2],
        "baseline_digest": ref,
        "cells": cells,
        "ok": all(c["ok"] for c in cells.values()),
    }
