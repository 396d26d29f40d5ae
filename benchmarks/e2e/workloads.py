"""The four benchmark workloads, driven through public entry points only.

Each workload is a function ``(scale, seed) -> Outcome``.  ``scale`` is the
``duration_scale`` of the simulated timeline (1.0 in every measured run;
0.02 for the discarded warm-up and ``--smoke``).  The seed reaches the
program only as the ``seed=`` of the generated world.

Why these four (the README has the long form):

* ``paper_l7``      LP cache misses almost every window: ``lp`` + ``scheduling``
                    are more than half of the wall-clock.
* ``paper_l4``      LP nearly always cached; the per-request event path
                    (client dispatch, ``L4Switch.handle``, server drain) does
                    the work.
* ``mega_columnar`` the same layers used the opposite way: whole window phases
                    as numpy columns, one engine event per window.
* ``sharded_2``     two worker processes; barrier, shm data plane and
                    checkpoint ring do the work, the LP is fully cached.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.replay import scenario_digest
from repro.core.agreements import Agreement, AgreementGraph
from repro.experiments.figures import (
    run_fig6, run_fig7, run_fig8, run_fig9, run_fig10,
)
from repro.experiments.harness import FigureResult, PhaseExpectation, Scenario
from repro.experiments.sharded import run_sharded

WARMUP_SCALE = 0.02          # 1/50 of the measured timeline


@dataclass
class Outcome:
    """What one timed call produced, as the correctness check needs it."""

    figures: List[FigureResult]
    # Simulated capacity x duration summed over each figure's servers: the
    # ceiling on requests the figure can have served.
    capacity_s: List[float]
    # Offered requests (rate x active time) per figure: the ceiling on what
    # can have been admitted, with Poisson slack applied by the check.
    offered: List[float]
    # Workload-specific facts checked from outside (lane, plane, counters).
    facts: Dict[str, Any] = field(default_factory=dict)
    # Digest parts the benchmark does not hash itself (ShardedResult.digest(),
    # scenario_digest of a reachable Scenario).
    digest_parts: List[str] = field(default_factory=list)
    digest_s: float = 0.0
    # Per-layer numbers that only the result object carries (sharded lane).
    layer: Dict[str, float] = field(default_factory=dict)
    # (start, end) clock readings around each entry point: with the run call
    # the tracer marks inside, they split it into build / run / summarise.
    entry_marks: List[Tuple[float, float]] = field(default_factory=list)

    def wall_s(self) -> float:
        """Host time inside the entry points (not the benchmark's own
        summarising and hashing around them)."""
        return sum(t1 - t0 for t0, t1 in self.entry_marks)

    def served(self) -> float:
        return sum(served_requests(fig) for fig in self.figures)

    def paper_deviations(self) -> List[float]:
        """|simulated - expected| / expected for every (phase, principal) the
        paper gives a non-zero rate for (expectations already scaled by the
        workload's load factor and replicas)."""
        return [abs(got - want) / want
                for fig in self.figures
                for _phase, _p, got, want, _ok in fig.deviations() if want > 0]

    def output_digest(self) -> str:
        """SHA-256 computed by the benchmark over phase rates and series."""
        t0 = time.perf_counter()
        h = hashlib.sha256()
        for fig in self.figures:
            h.update(fig.figure.encode())
            for ph in fig.phases:
                h.update(ph.name.encode())
                for key in sorted(ph.rates):
                    h.update(key.encode())
                    h.update(float(ph.rates[key]).hex().encode())
            for key in sorted(fig.series):
                times, rates = fig.series[key]
                h.update(key.encode())
                h.update(np.ascontiguousarray(times, dtype=float).tobytes())
                h.update(np.ascontiguousarray(rates, dtype=float).tobytes())
        for part in self.digest_parts:
            h.update(part.encode())
        self.digest_s += time.perf_counter() - t0
        return h.hexdigest()


def served_requests(fig: FigureResult) -> float:
    """Requests a figure served: its per-principal rate series x bin width."""
    total = 0.0
    for times, rates in fig.series.values():
        if len(times) > 1:
            total += float(np.sum(rates)) * float(times[1] - times[0])
        elif len(times) == 1:
            total += float(rates[0]) * 2.0 * float(times[0])   # centre = w/2
    return total


# -- paper_l7 / paper_l4 ------------------------------------------------------

# (entry point, server capacity req/s, timeline s at scale 1, offered req at
# scale 1) — the paper's scenario constants, restated here so conservation is
# checked against numbers the program did not produce.
_L7 = [
    (run_fig6, 320.0, 300.0, 135.0 * (300 + 300 + 200)),
    (run_fig7, 250.0, 150.0, 135.0 * 150 * 3),
    (run_fig8, 320.0, 220.0, 135.0 * (100 + 100 + 220)),
]
_L4 = [
    (run_fig9, 640.0, 400.0, 400.0 * (200 + 100 + 400)),
    (run_fig10, 640.0, 400.0, 400.0 * (200 + 100 + 400)),
]


def _paper(entries) -> Callable[[float, int], Outcome]:
    def run(scale: float, seed: int) -> Outcome:
        figures, marks = [], []
        for fn, *_ in entries:
            t0 = time.perf_counter()
            figures.append(fn(duration_scale=scale, seed=seed))
            marks.append((t0, time.perf_counter()))
        return Outcome(
            figures=figures,
            capacity_s=[cap * dur * scale for _, cap, dur, _ in entries],
            offered=[off * scale for *_, off in entries],
            entry_marks=marks,
        )
    return run


paper_l7 = _paper(_L7)
paper_l4 = _paper(_L4)


_FIG6_EXPECTED = [
    PhaseExpectation("phase1", {"A": 185.0, "B": 135.0}),
    PhaseExpectation("phase2", {"A": 270.0, "B": 0.0}),
    PhaseExpectation("phase3", {"A": 185.0, "B": 135.0}),
]


def _scaled(expected: List[PhaseExpectation], factor: float) -> List[PhaseExpectation]:
    return [
        PhaseExpectation(e.phase, {p: r * factor for p, r in e.rates.items()},
                         tolerance=e.tolerance, abs_floor=e.abs_floor * factor)
        for e in expected
    ]


# -- mega_columnar ------------------------------------------------------------

# fig6 x100 (the world of benchmarks/bench_columnar_path.py, rebuilt here so
# this directory is self-contained): capacity 320 -> 32k, A 2x135 -> one 27k
# client, B 135 -> 13.5k.  T=141 gives 27k*3T + 13.5k*2T ~ 15.23M requests.
MEGA_CAPACITY = 32_000.0
MEGA_RATE_A = 27_000.0
MEGA_RATE_B = 13_500.0
MEGA_T = 141.0


def mega_columnar(scale: float, seed: int) -> Outcome:
    t_entry = time.perf_counter()
    T = MEGA_T * scale
    g = AgreementGraph()
    g.add_principal("S", capacity=MEGA_CAPACITY)
    g.add_principal("A")
    g.add_principal("B")
    g.add_agreement(Agreement("S", "A", 0.2, 1.0))
    g.add_agreement(Agreement("S", "B", 0.8, 1.0))
    sc = Scenario(g, seed=seed, lane="columnar")
    server = sc.server("S", "S", MEGA_CAPACITY)
    r1 = sc.l7("R1", {"S": server}, n_redirectors=2)
    r2 = sc.l7("R2", {"S": server}, n_redirectors=2)
    sc.connect_tree(link_delay=0.005)
    # Jittered spacing, not the default exactly even one: with even spacing
    # and no retries no random draw reaches an observable, so every seed would
    # generate the same world.  (Poisson arrivals would also do, but their
    # window-to-window swings make the LP miss 10x as often, and this
    # workload is the one where the LP must stay negligible.)
    sc.client("C1", "A", r1, rate=MEGA_RATE_A, windows=[(0.0, 3 * T)],
              max_retry_pool=0, jitter=0.4)
    sc.client("C2", "B", r2, rate=MEGA_RATE_B,
              windows=[(0.0, T), (2 * T, 3 * T)], max_retry_pool=0, jitter=0.4)
    sc.run(3 * T)
    phases = [("phase1", 0.0, T), ("phase2", T, 2 * T), ("phase3", 2 * T, 3 * T)]
    fig = FigureResult(
        figure="mega_columnar",
        title="fig6 x100 on the columnar lane",
        phases=sc.phase_rates(phases, keys=["A", "B"], settle=min(5.0, T * 0.2)),
        expected=_scaled(_FIG6_EXPECTED, 100.0),
        series=sc.series(["A", "B"]),
    )
    t0 = time.perf_counter()
    issued = sum(c.issued for c in sc.clients.values())
    world_digest = scenario_digest(sc)
    return Outcome(
        figures=[fig],
        capacity_s=[MEGA_CAPACITY * 3 * T],
        offered=[(MEGA_RATE_A * 3 + MEGA_RATE_B * 2) * T],
        facts={
            "lane": sc.lane,
            "lane_fallback": sc.lane_fallback,
            "issued": issued,
            "columnar_requests": (sc.columnar.requests
                                  if sc.columnar is not None else None),
            "completed": sum(s.total_completed() for s in sc.servers.values()),
        },
        digest_parts=[world_digest],
        digest_s=time.perf_counter() - t0,
        entry_marks=[(t_entry, t0)],
    )


# -- sharded_2 ----------------------------------------------------------------

SHARD_REPLICAS = 32
SHARD_LOAD = 100.0
SHARD_WORKERS = 2

def _sharded(scale: float, seed: int, shards: int) -> Outcome:
    t0 = time.perf_counter()
    res = run_sharded("fig6", duration_scale=scale, seed=seed, shards=shards,
                      replicas=SHARD_REPLICAS, load_scale=SHARD_LOAD,
                      transport="shm")
    marks = [(t0, time.perf_counter())]
    T = 100.0 * scale
    phases = [("phase1", 0.0, T), ("phase2", T, 2 * T), ("phase3", 2 * T, 3 * T)]
    fig = FigureResult(
        figure=f"sharded_fig6_x{SHARD_REPLICAS}",
        title="fig6 x32 replicas x100 load on the sharded lane",
        phases=res.phase_rates(phases, keys=["A", "B"], settle=min(5.0, T * 0.2)),
        expected=_scaled(_FIG6_EXPECTED, SHARD_REPLICAS * SHARD_LOAD),
        series=res.series(["A", "B"]),
    )
    demand = sum(float(col.sum()) for per in res.demand.values()
                 for col in per.values())
    admitted = sum(float(col.sum()) for per in res.admitted.values()
                   for col in per.values())
    return Outcome(
        figures=[fig],
        capacity_s=[320.0 * SHARD_REPLICAS * SHARD_LOAD * 3 * T],
        offered=[135.0 * SHARD_REPLICAS * SHARD_LOAD * (3 + 3 + 2) * T],
        facts={
            "shards": res.shards,
            "data_plane": res.data_plane,
            "transport_fallback": res.transport_fallback,
            "restarts": len(res.restarts),
            "reassignments": len(res.reassignments),
            "fallback_windows": res.fallback_windows,
            "demand": demand,
            "admitted": admitted,
        },
        digest_parts=[res.digest()],
        entry_marks=marks,
        layer={
            "coordination.barrier_wait_s": res.barrier_wait_s,
            "coordination.barrier_polls": res.barrier_polls,
            "coordination.plane_wait_s": res.plane_wait_s,
            "coordination.plane_polls": res.plane_polls,
            "coordination.bytes_per_epoch": res.bytes_per_epoch,
            "coordination.ring_bytes_per_epoch": res.ring_bytes_per_epoch,
            "coordination.checkpoint_bytes": res.checkpoint_bytes,
            "experiments.sharded_lp_solves": res.lp_solves,
            "experiments.sharded_cache_hits": res.cache_hits,
        },
    )


def sharded_2(scale: float, seed: int) -> Outcome:
    return _sharded(scale, seed, SHARD_WORKERS)


def sharded_inline(scale: float, seed: int) -> Outcome:
    """The ``sharded_2`` world at ``shards=1`` (parity and speed-up base)."""
    return _sharded(scale, seed, 1)


WORKLOADS: Dict[str, Callable[[float, int], Outcome]] = {
    "paper_l7": paper_l7,
    "paper_l4": paper_l4,
    "mega_columnar": mega_columnar,
    "sharded_2": sharded_2,
}


def warm_up(name: str, seed: int) -> Optional[str]:
    """Discarded 1/50-scale run of the same entry points (fills lazy imports
    and numpy caches).  For ``sharded_2`` it doubles as the parity check:
    returns a problem string when shards=1 and shards=2 digests differ."""
    out = WORKLOADS[name](WARMUP_SCALE, seed)
    if name == "sharded_2":
        inline = sharded_inline(WARMUP_SCALE, seed)
        if inline.digest_parts != out.digest_parts:
            return (f"warm-up parity: shards=1 digest {inline.digest_parts[0][:12]} "
                    f"!= shards={SHARD_WORKERS} digest {out.digest_parts[0][:12]}")
    return None
