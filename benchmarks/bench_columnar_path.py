"""Mega-scale benchmark tier: the columnar lane at millions of requests.

The slotted fast lane made 100k-request runs cheap; the columnar lane's
target is two orders of magnitude beyond that — whole open-loop workload
phases advanced as numpy columns, one engine event per window.  This
bench drives a fig6-shaped world (two L7 redirectors over one shared
server, A/B agreements, three demand phases) with every rate and the
server capacity scaled x100, pushing >= 5 million requests through the
full admission/redirect/serve/complete pipeline in seconds.

The speedup assertion is the PR's acceptance gate: the columnar lane must
clear 10x the slotted lane's throughput on the same world.  The slotted
baseline runs a shorter timeline of the identical scenario (same rates,
same shape) and both sides are compared on requests per wall-clock
second, so the baseline does not cost CI minutes.  Headline medians land
in ``benchmarks/BENCH_core.json`` via ``record_bench``.

The paper-scale cell guards the other end: the columnar window step must be
cheap at x1 too (fig6 itself, 3,000 windows of ~40 requests, with its
refusals parked and re-offered at every install), since ``run_fig6`` runs
it by default.  There a window's fixed costs are all there is, so it fails
when per-buffer or per-request bookkeeping creeps back into the pump.
"""

import os
import time

from repro.analysis.replay import scenario_digest
from repro.core.agreements import Agreement, AgreementGraph
from repro.experiments.benchrecord import record_bench
from repro.experiments.figures import fig6_scenario
from repro.experiments.harness import Scenario

BENCH_PATH = os.path.join(os.path.dirname(__file__), "BENCH_core.json")

# fig6 x100: capacity 320 -> 32k, A 2x135 -> one 27k client, B 135 -> 13.5k.
# One client per principal keeps each principal's stream a single sorted
# column.  T=47 gives 27k*3T + 13.5k*2T = 5.076M issued requests.
CAPACITY = 32_000.0
RATE_A = 27_000.0
RATE_B = 13_500.0
T_COLUMNAR = 47.0
T_SLOTTED = 3.0
REQUESTS_FLOOR = 5_000_000
SPEEDUP_FLOOR = 10.0
# fig6 x1: columnar wall over slotted wall, same world and seed.
PAPER_SCALE_CEILING = 1.5


def _mega_graph() -> AgreementGraph:
    g = AgreementGraph()
    g.add_principal("S", capacity=CAPACITY)
    g.add_principal("A")
    g.add_principal("B")
    g.add_agreement(Agreement("S", "A", 0.2, 1.0))
    g.add_agreement(Agreement("S", "B", 0.8, 1.0))
    return g


def _run_mega(lane: str, T: float) -> Scenario:
    """One fig6-shaped mega run; returns the finished scenario."""
    sc = Scenario(_mega_graph(), seed=11, lane=lane)
    server = sc.server("S", "S", CAPACITY)
    r1 = sc.l7("R1", {"S": server}, n_redirectors=2)
    r2 = sc.l7("R2", {"S": server}, n_redirectors=2)
    sc.connect_tree(link_delay=0.005)
    sc.client("C1", "A", r1, rate=RATE_A, windows=[(0.0, 3 * T)],
              max_retry_pool=0)
    sc.client("C2", "B", r2, rate=RATE_B,
              windows=[(0.0, T), (2 * T, 3 * T)], max_retry_pool=0)
    sc.run(3 * T)
    return sc


def _issued(sc: Scenario) -> int:
    return sum(c.issued for c in sc.clients.values())


def _best_of(fn, reps=3):
    """Best-of-N wall-clock (best, not median: scheduling noise only ever
    adds time) plus the last run's return value."""
    best = float("inf")
    out = None
    for _ in range(reps):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def test_columnar_path_fast(benchmark):
    """>= 5M-request open loop through the columnar lane."""
    sc = benchmark.pedantic(
        lambda: _run_mega("columnar", T_COLUMNAR), rounds=3, iterations=1,
    )
    assert sc.lane == "columnar" and sc.lane_fallback is None
    issued = _issued(sc)
    assert sc.columnar is not None and sc.columnar.requests == issued
    assert issued >= REQUESTS_FLOOR, f"only {issued} requests issued"
    median_s = benchmark.stats.stats.median
    record_bench(
        "columnar_path_fast", median_s * 1000.0,
        meta={"requests": issued,
              "reqs_per_s": round(issued / median_s)},
        path=BENCH_PATH,
    )


def test_columnar_path_slotted(benchmark):
    """Same world on the slotted fast lane (shorter timeline, same rates)."""
    sc = benchmark.pedantic(
        lambda: _run_mega("slotted", T_SLOTTED), rounds=3, iterations=1,
    )
    assert sc.lane == "slotted"
    issued = _issued(sc)
    median_s = benchmark.stats.stats.median
    record_bench(
        "columnar_path_slotted", median_s * 1000.0,
        meta={"requests": issued,
              "reqs_per_s": round(issued / median_s)},
        path=BENCH_PATH,
    )


def test_columnar_path_speedup():
    """Acceptance gate: columnar >= 10x slotted throughput, same world."""
    t_col, sc_col = _best_of(lambda: _run_mega("columnar", T_COLUMNAR))
    t_slot, sc_slot = _best_of(lambda: _run_mega("slotted", T_SLOTTED))
    n_col = _issued(sc_col)
    n_slot = _issued(sc_slot)
    assert n_col >= REQUESTS_FLOOR
    col_rate = n_col / t_col
    slot_rate = n_slot / t_slot
    speedup = col_rate / slot_rate
    record_bench(
        "columnar_path_speedup", t_col * 1000.0,
        meta={"speedup_x": round(speedup, 2),
              "requests": n_col,
              "columnar_reqs_per_s": round(col_rate),
              "slotted_reqs_per_s": round(slot_rate)},
        path=BENCH_PATH,
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"columnar {col_rate:.0f} req/s vs slotted {slot_rate:.0f} req/s "
        f"= {speedup:.2f}x (< {SPEEDUP_FLOOR:.0f}x floor)"
    )


def test_columnar_path_paper_scale():
    """fig6 x1 as run_fig6 runs it (retry pools on, refusals parked):
    columnar no slower than 1.5x slotted."""
    def run(lane):
        return fig6_scenario(duration_scale=1.0, seed=11, lane=lane)[0]

    t_col, sc_col = _best_of(lambda: run("columnar"))
    t_slot, sc_slot = _best_of(lambda: run("slotted"))
    assert sc_col.lane == "columnar" and sc_col.lane_fallback is None
    assert sc_slot.lane == "slotted"
    assert scenario_digest(sc_col) == scenario_digest(sc_slot)
    ratio = t_col / t_slot
    record_bench(
        "columnar_path_paper_scale", t_col * 1000.0,
        meta={"columnar_over_slotted_x": round(ratio, 2),
              "slotted_ms": round(t_slot * 1000.0, 3),
              "requests": _issued(sc_col)},
        path=BENCH_PATH,
    )
    assert ratio <= PAPER_SCALE_CEILING, (
        f"fig6 x1: columnar {t_col:.2f} s vs slotted {t_slot:.2f} s "
        f"= {ratio:.2f}x (> {PAPER_SCALE_CEILING}x ceiling)"
    )
