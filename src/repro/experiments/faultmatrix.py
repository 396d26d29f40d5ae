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

from dataclasses import replace
from typing import Any, Dict, Optional, Tuple

from repro.coordination.checkpoint import RecoveryPolicy
from repro.experiments.figures import FigureWorld, fig8_world
from repro.experiments.harness import FigureResult, PhaseExpectation, Scenario
from repro.faults.plan import FaultPlan, PartitionFault, ShardRevoke

__all__ = [
    "run_fault_matrix",
    "fault_matrix_world",
    "arm_liveness",
    "canonical_shard_plan",
    "run_crash_recovery_matrix",
    "CONSERVATIVE_B",
]

# B's conservative floor: 1/R of its mandatory entitlement (R = 2).
CONSERVATIVE_B = 0.2 * 320.0 / 2.0

# Re-convergence budget after the heal: 30 windows of 0.1 s.
K_WINDOWS = 30

AGREED = {"A": 255.0, "B": 65.0}


def fault_matrix_world(
    duration_scale: float = 1.0, seed: int = 0, plan: Optional[FaultPlan] = None,
) -> FigureWorld:
    """Fig 8's world, clients always on, through ``plan`` (None: the
    canonical partition of R2 for the middle third) on a resilient tree."""
    phase = max(8.0, 20.0 * duration_scale)
    t1, t2, end = phase, 2.0 * phase, 3.0 * phase
    fig8 = fig8_world(seed=seed)
    # Degradation needs stale_after + failure detection to kick in; the
    # recovery window is bounded by K_WINDOWS after the heal.
    settle = 3.0
    return replace(
        fig8,
        figure="faultmatrix",
        title="Enforcement through coordination partition and heal",
        nodes=tuple(replace(node, options={**node.options, "stale_after": 1.0})
                    for node in fig8.nodes),
        clients=tuple(replace(c, windows=None) for c in fig8.clients),
        tree={"link_delay": 0.01, "extra_root": True, "resilient": True,
              "heartbeat_period": 0.25},
        faults=plan if plan is not None else FaultPlan(
            events=[PartitionFault(at=t1, until=t2, groups=(("R2",), ("__root__", "R1")))],
            name="coordination-partition",
        ),
        horizon=end,
        phases=(
            ("p1_agreed", settle, t1),
            ("p2_partition", t1 + settle, t2),
            ("p3_recovered", t2 + settle, end),
        ),
        expected=(
            PhaseExpectation("p1_agreed", dict(AGREED)),
            # Partition: B held at its conservative floor (not starved),
            # A expands into the capacity B's optional share released.
            PhaseExpectation(
                "p2_partition", {"A": 270.0, "B": CONSERVATIVE_B},
                tolerance=0.3,
            ),
            PhaseExpectation("p3_recovered", dict(AGREED)),
        ),
        bin_width=0.5,
        # Its plans may crash servers and redirectors: per-request events.
        lane="slotted",
        notes=f"partition [{t1:.0f}s, {t2:.0f}s): R2 cut from the tree",
    )


def arm_liveness(sc: Scenario, world: FigureWorld) -> None:
    """With the checker on, the built ``sc`` must re-converge to AGREED
    within K_WINDOWS windows of the canonical heal (see the module doc)."""
    if sc.invariants is not None:
        sc.invariants.arm_liveness(
            sc.sim, sc.meter, AGREED, heal_at=world.phases[1][2],
            k_windows=K_WINDOWS, window=sc.window.length,
        )


def run_fault_matrix(
    duration_scale: float = 1.0,
    seed: int = 0,
    check_invariants: Optional[bool] = None,
) -> FigureResult:
    """The fault matrix as a figure: rates per phase, floor + recovery."""
    world = fault_matrix_world(duration_scale, seed)
    sc = world.build(check_invariants=check_invariants)
    arm_liveness(sc, world)
    sc.run(world.horizon)
    membership = sc.membership
    assert membership is not None
    result = world.measure(sc)
    result.notes += (
        f"; evictions={membership.reconfigurations} "
        f"rejoins={membership.rejoins} "
        f"degraded_windows={sc.l7_redirectors['R2'].allocator.degraded_windows}"
    )
    return result


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
