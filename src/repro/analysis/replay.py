"""Replay-determinism harness (``repro check``).

Runs a scenario from scratch N times and compares SHA-256 digests of
everything observable — completion series, per-server ledgers, client
counters, trace events.  Two runs with the same arguments must produce
identical digests; a third run with the invariant checker enabled must
*also* produce the same digest, proving the checker is read-only.

Digests hash exact float bytes (``ndarray.tobytes`` / ``float.hex``), so
a single ULP of drift anywhere in the event stream fails the check — the
same standard the PR 1/2 bit-identical A/B tests hold the fast paths to.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

__all__ = [
    "ReplayReport", "scenario_digest", "l4_admission_digest",
    "l7_admission_digest", "fig6_replay", "chaos_replay", "l4_replay",
    "columnar_replay", "sharded_replay",
]


def _hash_floats(h: "hashlib._Hash", values: Any) -> None:
    h.update(np.ascontiguousarray(np.asarray(values, dtype=float)).tobytes())


def scenario_digest(sc: Any) -> str:
    """SHA-256 over a finished Scenario's observable state.

    Covers the completion meter (every key's exact time/rate series),
    per-server completion ledgers, drop counters and busy time, client
    completion counts, and — when tracing was on — every trace event.
    Keys are visited in sorted order so the digest does not depend on
    construction order bookkeeping.
    """
    h = hashlib.sha256()
    for key in sorted(sc.meter.keys):
        h.update(key.encode("utf-8"))
        times, rates = sc.meter.series(key)
        _hash_floats(h, times)
        _hash_floats(h, rates)
    for name in sorted(sc.servers):
        srv = sc.servers[name]
        h.update(name.encode("utf-8"))
        for principal in sorted(srv.completed):
            h.update(f"{principal}={srv.completed[principal]}".encode("utf-8"))
        h.update(f"dropped={srv.dropped}".encode("utf-8"))
        # Fault-path ledgers (0 on scenarios that never crash anything).
        h.update(f"failed={getattr(srv, 'failed', 0)}".encode("utf-8"))
        h.update(f"refused={getattr(srv, 'refused', 0)}".encode("utf-8"))
        h.update(float(srv.busy_time).hex().encode("ascii"))
    for name in sorted(sc.clients):
        client = sc.clients[name]
        h.update(f"{name}:{client.completed}".encode("utf-8"))
    if getattr(sc, "tracer", None) is not None:
        for event in sc.tracer.iter():
            h.update(repr(event).encode("utf-8"))
    return h.hexdigest()


def l4_admission_digest(daemon: Any) -> str:
    """SHA-256 over an :class:`~repro.l4.daemon.L4Daemon`'s per-window
    admitted/refused traces (exact float bytes of every series).

    This is the quantity the paper's L4 figures plot per window; the
    slotted/scalar lane-parity contract is that this digest — not just the
    aggregate rates — is identical between the two data paths.
    """
    h = hashlib.sha256()
    meter = daemon.admission_meter
    for key in sorted(meter.keys):
        h.update(key.encode("utf-8"))
        times, rates = meter.series(key)
        _hash_floats(h, times)
        _hash_floats(h, rates)
    return h.hexdigest()


def l7_admission_digest(redirector: Any) -> str:
    """SHA-256 over an :class:`~repro.l7.redirector.L7Redirector`'s
    per-window admitted/refused traces — the L7 counterpart of
    :func:`l4_admission_digest`, hashed by the lane parity check."""
    h = hashlib.sha256()
    meter = redirector.admission_meter
    for key in sorted(meter.keys):
        h.update(key.encode("utf-8"))
        times, rates = meter.series(key)
        _hash_floats(h, times)
        _hash_floats(h, rates)
    return h.hexdigest()


@dataclass
class ReplayReport:
    """Digest comparison across replay runs of one scenario."""

    scenario: str
    digests: List[str]
    labels: List[str]
    checker_summary: Optional[Dict[str, int]] = None
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def identical(self) -> bool:
        return len(set(self.digests)) == 1

    @property
    def ok(self) -> bool:
        checked_clean = (
            self.checker_summary is None
            or self.checker_summary.get("violations", 0) == 0
        )
        return self.identical and checked_clean

    def render(self) -> str:
        lines = [f"replay-determinism: {self.scenario}"]
        for label, digest in zip(self.labels, self.digests):
            lines.append(f"  {label:12s} {digest}")
        if self.checker_summary is not None:
            lines.append(
                f"  invariants   {self.checker_summary['checks_run']} checks, "
                f"{self.checker_summary['violations']} violations"
            )
        lines.append(
            "  verdict      "
            + ("IDENTICAL (bit-exact replay)" if self.ok else "DIVERGED")
        )
        return "\n".join(lines)


def fig6_replay(
    duration_scale: float = 0.05,
    seed: int = 0,
    runs: int = 2,
    with_invariants: bool = True,
) -> ReplayReport:
    """Run the fig6 scenario ``runs`` times (plus one checked run) and diff.

    fig6 exercises the full stack the determinism contract covers: RNG
    workload streams, the event kernel, two L7 redirectors, the combining
    tree, and the window LP — which is why CI replays it rather than a
    toy scenario.
    """
    from repro.experiments.figures import fig6_scenario

    if runs < 2 and not with_invariants:
        raise ValueError("need at least two runs to compare digests")
    digests: List[str] = []
    labels: List[str] = []
    for i in range(max(1, runs)):
        sc, _ = fig6_scenario(
            duration_scale=duration_scale, seed=seed, check_invariants=False,
        )
        digests.append(scenario_digest(sc))
        labels.append(f"run {i + 1}")
    checker_summary: Optional[Dict[str, int]] = None
    if with_invariants:
        sc, _ = fig6_scenario(
            duration_scale=duration_scale, seed=seed, check_invariants=True,
        )
        digests.append(scenario_digest(sc))
        labels.append("run +check")
        assert sc.invariants is not None
        checker_summary = sc.invariants.summary()
    return ReplayReport(
        scenario="fig6",
        digests=digests,
        labels=labels,
        checker_summary=checker_summary,
        meta={"duration_scale": duration_scale, "seed": seed},
    )


def chaos_replay(
    duration_scale: float = 0.4,
    seed: int = 0,
    runs: int = 2,
    with_invariants: bool = True,
    plan: Optional[Any] = None,
) -> ReplayReport:
    """Replay the *faulted* fault-matrix scenario and diff digests.

    Same contract as :func:`fig6_replay`, but every run injects the fault
    plan (the canonical coordination partition when ``plan`` is None):
    failure detection, eviction, tree reconfiguration, conservative
    fallback, heal and rejoin must all land on identical event sequences —
    fault handling is part of the determinism envelope, not an exception
    to it.
    """
    from repro.experiments.faultmatrix import fault_matrix_scenario

    if runs < 2 and not with_invariants:
        raise ValueError("need at least two runs to compare digests")
    digests: List[str] = []
    labels: List[str] = []
    plan_digest = ""
    for i in range(max(1, runs)):
        sc, injector, _ = fault_matrix_scenario(
            duration_scale=duration_scale, seed=seed,
            check_invariants=False, plan=plan,
        )
        plan_digest = injector.plan.digest()
        digests.append(scenario_digest(sc))
        labels.append(f"run {i + 1}")
    checker_summary: Optional[Dict[str, int]] = None
    if with_invariants:
        sc, injector, _ = fault_matrix_scenario(
            duration_scale=duration_scale, seed=seed,
            check_invariants=True, plan=plan,
        )
        digests.append(scenario_digest(sc))
        labels.append("run +check")
        assert sc.invariants is not None
        checker_summary = sc.invariants.summary()
    return ReplayReport(
        scenario="faultmatrix",
        digests=digests,
        labels=labels,
        checker_summary=checker_summary,
        meta={"duration_scale": duration_scale, "seed": seed,
              "plan_digest": plan_digest},
    )


def l4_replay(
    figure: str = "fig9",
    duration_scale: float = 0.05,
    seed: int = 0,
    runs: int = 2,
    with_invariants: bool = True,
) -> ReplayReport:
    """Replay an L4 figure on the *slotted* and *scalar* lanes and diff.

    Unlike :func:`fig6_replay` (same code path, repeated), this harness
    compares two different data-path implementations: the flow-record
    switch (``lane="slotted"``) against the per-packet reference path
    (``lane="scalar"``).  Each run's digest combines
    the full scenario digest with the daemon's per-window admitted-rate
    trace digest, so the report is IDENTICAL only when both lanes produce
    bit-identical observable behaviour — the PR's acceptance contract.
    """
    from repro.experiments.figures import fig9_scenario, fig10_scenario

    if figure == "fig9":
        build = fig9_scenario
    elif figure == "fig10":
        build = fig10_scenario
    else:
        raise ValueError(f"l4_replay supports fig9/fig10, not {figure!r}")
    digests: List[str] = []
    labels: List[str] = []
    adm_digests: Dict[str, str] = {}

    def one(lane: str, check: bool, label: str) -> Any:
        sc, _ = build(
            duration_scale=duration_scale, seed=seed,
            check_invariants=check, lane=lane,
        )
        daemon = sc.l4_daemons["SW"]
        full = scenario_digest(sc)
        adm = l4_admission_digest(daemon)
        adm_digests[label] = adm
        combined = hashlib.sha256()
        combined.update(full.encode("ascii"))
        combined.update(adm.encode("ascii"))
        digests.append(combined.hexdigest())
        labels.append(label)
        return sc

    for i in range(max(1, runs - 1)):
        one("slotted", False, f"slotted {i + 1}")
    one("scalar", False, "scalar")
    checker_summary: Optional[Dict[str, int]] = None
    if with_invariants:
        sc = one("slotted", True, "slotted +check")
        assert sc.invariants is not None
        checker_summary = sc.invariants.summary()
    return ReplayReport(
        scenario=figure,
        digests=digests,
        labels=labels,
        checker_summary=checker_summary,
        meta={"duration_scale": duration_scale, "seed": seed,
              "admission_digests": dict(adm_digests)},
    )


def columnar_replay(
    figure: str = "fig6",
    duration_scale: float = 0.05,
    seed: int = 0,
) -> ReplayReport:
    """Run one figure on every lane that executes different code for it and
    diff their combined digests: scalar, slotted and columnar for fig9 /
    fig10; slotted and columnar for fig6, which has no L4 switch for
    ``"scalar"`` to change.

    Every lane runs the figure's own world — retry pools on, refused
    requests parked at the redirector and re-offered at each install — and
    each digest combines the full scenario digest with the per-window
    admitted/refused trace digests (L7 redirectors' admission meters for
    fig6, the L4 daemon's for fig9/fig10).  IDENTICAL means the columnar
    lane, which ``run_fig6`` / ``run_fig9`` / ``run_fig10`` use by default,
    reproduces the slotted oracle bit-for-bit.
    """
    from repro.experiments.figures import (
        fig6_scenario, fig9_scenario, fig10_scenario,
    )

    builders = {
        "fig6": fig6_scenario, "fig9": fig9_scenario, "fig10": fig10_scenario,
    }
    build = builders.get(figure)
    if build is None:
        raise ValueError(
            f"columnar_replay supports {sorted(builders)}, not {figure!r}"
        )
    digests: List[str] = []
    labels: List[str] = []
    adm_digests: Dict[str, str] = {}
    meta: Dict[str, Any] = {"duration_scale": duration_scale, "seed": seed}
    lanes = (
        ("slotted", "columnar") if figure == "fig6"
        else ("scalar", "slotted", "columnar")
    )
    for lane in lanes:
        sc, _ = build(
            duration_scale=duration_scale, seed=seed,
            check_invariants=False, lane=lane,
        )
        if lane == "columnar":
            meta["columnar_fallback"] = sc.lane_fallback
            meta["columnar_requests"] = (
                sc.columnar.requests if sc.columnar is not None else 0
            )
        combined = hashlib.sha256()
        combined.update(scenario_digest(sc).encode("ascii"))
        for name in sorted(sc.l7_redirectors):
            adm = l7_admission_digest(sc.l7_redirectors[name])
            adm_digests[f"{lane}:{name}"] = adm
            combined.update(adm.encode("ascii"))
        for name in sorted(sc.l4_daemons):
            adm = l4_admission_digest(sc.l4_daemons[name])
            adm_digests[f"{lane}:{name}"] = adm
            combined.update(adm.encode("ascii"))
        digests.append(combined.hexdigest())
        labels.append(lane)
    meta["admission_digests"] = adm_digests
    return ReplayReport(
        scenario=f"{figure}+columnar",
        digests=digests,
        labels=labels,
        meta=meta,
    )


def sharded_replay(
    figure: str = "fig6",
    duration_scale: float = 0.05,
    seed: int = 0,
    shards: int = 4,
    replicas: int = 4,
    with_crashes: bool = False,
) -> ReplayReport:
    """Run one sharded world with ``shards=1`` and ``shards=N`` and diff.

    The shard-parity contract (window-epoch barriers, docs/DETERMINISM.md):
    partitioning a world's clusters across worker processes must not move
    a single bit of any observable series, because each cluster owns its
    RNG substream and state crosses shards only as window-boundary demand
    aggregates folded in a shard-independent combining-tree order.  The
    digest deliberately excludes the shard count, so digest equality *is*
    the proof.  ``replicas`` stamps out enough clusters that every worker
    owns several (the interesting regime for packing bugs).

    A ``shards=N`` run that fell back to the inline path (no shared memory
    here) compared nothing across processes; its digest is suffixed
    ``:ran-inline`` so the report reads DIVERGED instead of vacuously
    IDENTICAL.

    ``with_crashes`` extends the contract to recovery: a third run kills
    workers at two distinct epochs (clean-exception path at one, SIGKILL
    at another) and must respawn from checkpoints to the same digest; a
    fourth run exhausts a one-restart budget so the dead shard's clusters
    are *reassigned* to survivors — it must also reach the same digest,
    and a run that never triggered reassignment is marked divergent (the
    harness would otherwise silently stop testing degradation).
    """
    from repro.experiments.faultmatrix import _crash_epochs
    from repro.experiments.sharded import run_sharded

    if shards < 2:
        raise ValueError("shard parity needs shards >= 2 to compare against 1")
    digests: List[str] = []
    labels: List[str] = []
    meta: Dict[str, Any] = {
        "duration_scale": duration_scale, "seed": seed, "replicas": replicas,
    }
    res = run_sharded(
        figure, duration_scale=duration_scale, seed=seed, shards=1,
        replicas=replicas,
    )
    digests.append(res.digest())
    labels.append("shards=1")
    meta["n_windows"] = res.n_windows
    meta["clusters"] = len(res.clusters)
    meta["lp_solves"] = res.lp_solves
    final_ckpt = res.final_checkpoint_digest
    res = run_sharded(
        figure, duration_scale=duration_scale, seed=seed, shards=shards,
        replicas=replicas,
    )
    d = res.digest()
    if res.data_plane != "shm":
        d += ":ran-inline"
        meta["transport_fallback"] = res.transport_fallback
    digests.append(d)
    labels.append(f"shards={shards} {res.data_plane}")
    meta["bytes_per_epoch"] = res.bytes_per_epoch
    if with_crashes:
        from repro.coordination.checkpoint import RecoveryPolicy

        e1, e2 = _crash_epochs(res.n_windows)
        crash_faults = [f"0:{e1}:exc", f"{min(1, shards - 1)}:{e2}:kill"]
        res = run_sharded(
            figure, duration_scale=duration_scale, seed=seed, shards=shards,
            replicas=replicas, faults=crash_faults,
        )
        digests.append(res.digest())
        labels.append(f"shards={shards}+crashes")
        meta["crash_faults"] = list(crash_faults)
        meta["crash_restarts"] = len(res.restarts)
        meta["crash_final_checkpoint_match"] = (
            res.final_checkpoint_digest == final_ckpt
        )
        # Budget exhaustion: two kills of shard 0 against a single-restart
        # budget forces the second death down the reassignment path.
        res = run_sharded(
            figure, duration_scale=duration_scale, seed=seed, shards=shards,
            replicas=replicas, faults=[f"0:{e1}:kill", f"0:{e2}:kill"],
            recovery=RecoveryPolicy(max_restarts=1, backoff_base=0.01),
        )
        d = res.digest()
        if not res.reassignments:
            d += ":reassignment-not-triggered"
        digests.append(d)
        labels.append(f"shards={shards}+reassign")
        meta["reassignments"] = [
            {"epoch": ev.epoch, "shard": ev.shard,
             "assignments": dict(ev.assignments)}
            for ev in res.reassignments
        ]
    return ReplayReport(
        scenario=f"{figure}+sharded",
        digests=digests,
        labels=labels,
        meta=meta,
    )
