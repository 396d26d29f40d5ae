"""Micro-benchmarks: the substrate hot paths.

These quantify the headroom behind the paper's claims — e.g. that a
redirector can afford an LP solve plus quota bookkeeping every 100 ms.

Headline medians land in ``benchmarks/BENCH_core.json`` (committed) via
:func:`repro.experiments.benchrecord.record_bench`, so perf changes show
up in diffs.
"""

import os

import numpy as np

from repro.core.access import compute_access_levels
from repro.core.agreements import Agreement, AgreementGraph
from repro.experiments.benchrecord import record_bench
from repro.scheduling.community import CommunityScheduler
from repro.scheduling.queueing import ImplicitQuota
from repro.scheduling.window import WindowConfig
from repro.scheduling.wrr import SmoothWeightedRoundRobin
from repro.sim.engine import Simulator

BENCH_PATH = os.path.join(os.path.dirname(__file__), "BENCH_core.json")


def _record(benchmark, name, **meta):
    """Stash this benchmark's median (ms) in the committed ledger."""
    record_bench(
        name, benchmark.stats.stats.median * 1000.0, meta=meta, path=BENCH_PATH
    )


def test_engine_event_throughput(benchmark):
    """Raw kernel throughput: schedule+dispatch of 100k chained events."""
    def run():
        sim = Simulator()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 100_000:
                sim.schedule(0.001, tick)

        sim.schedule(0.0, tick)
        sim.run()
        return count[0]

    assert benchmark.pedantic(run, rounds=1, iterations=3) == 100_000


def test_engine_process_switching(benchmark):
    """Generator-process context switches (10k processes x 10 yields)."""
    def run():
        sim = Simulator()
        done = [0]

        def proc():
            for _ in range(10):
                yield 0.01
            done[0] += 1

        for _ in range(1_000):
            sim.process(proc())
        sim.run()
        return done[0]

    assert benchmark.pedantic(run, rounds=1, iterations=3) == 1_000


def test_access_level_computation(benchmark):
    """Closed-form flow solve for a 12-principal agreement mesh."""
    g = AgreementGraph()
    for i in range(12):
        g.add_principal(f"P{i}", capacity=100.0)
    for i in range(12):
        g.add_agreement(Agreement(f"P{i}", f"P{(i + 1) % 12}", 0.2, 0.4))
        g.add_agreement(Agreement(f"P{i}", f"P{(i + 5) % 12}", 0.2, 0.3))
    acc = benchmark(compute_access_levels, g)
    assert acc.MC.sum() > 0


def test_quota_admission_path(benchmark):
    """Per-request admission cost (the L7 fast path)."""
    quota = ImplicitQuota([f"P{i}" for i in range(8)])
    quota.new_window({f"P{i}": 1e12 for i in range(8)})

    def run():
        for _ in range(10_000):
            quota.try_admit("P3")

    benchmark.pedantic(run, rounds=3, iterations=1)


def test_smooth_wrr_pick(benchmark):
    wrr = SmoothWeightedRoundRobin({f"s{i}": float(i + 1) for i in range(8)})

    def run():
        for _ in range(10_000):
            wrr.next()

    benchmark.pedantic(run, rounds=3, iterations=1)


# -- window scheduling: LP solve cache and warm start -----------------------

_N_WINDOWS = 1000


def _sharing_access():
    g = AgreementGraph()
    g.add_principal("S", capacity=320.0)
    g.add_principal("A")
    g.add_principal("B")
    g.add_agreement(Agreement("S", "A", 0.2, 1.0))
    g.add_agreement(Agreement("S", "B", 0.8, 1.0))
    return compute_access_levels(g)


def _steady_demands(windows=_N_WINDOWS):
    """Three steady plateaus — the paper's phased experiments in miniature."""
    out = []
    for w in range(windows):
        if w < windows * 2 // 5:
            out.append({"A": 27.0, "B": 13.5})
        elif w < windows * 7 // 10:
            out.append({"A": 40.5, "B": 13.5})
        else:
            out.append({"A": 27.0, "B": 0.0})
    return out


def _run_windows(demands, **kw):
    sched = CommunityScheduler(_sharing_access(), WindowConfig(0.1), **kw)
    for d in demands:
        sched.schedule(d)
    return sched


def test_window_schedule_cold(benchmark):
    """1000 windows of steady demand, every window solved from scratch."""
    demands = _steady_demands()
    sched = benchmark.pedantic(
        lambda: _run_windows(demands, lp_cache=False, warm_start=False),
        rounds=1, iterations=1,
    )
    assert sched.lp_solves == _N_WINDOWS
    _record(benchmark, "window_schedule_cold",
            windows=_N_WINDOWS, lp_solves=sched.lp_solves)


def test_window_schedule_cached(benchmark):
    """Same 1000 windows with the exact-demand SolveCache on.

    Steady plateaus mean only a handful of distinct demand vectors, so the
    cache must cut full LP solves by well over the 3x acceptance floor.
    """
    demands = _steady_demands()
    sched = benchmark.pedantic(
        lambda: _run_windows(demands, lp_cache=True),
        rounds=1, iterations=1,
    )
    cold_solves = _N_WINDOWS                    # one per window, by construction
    assert cold_solves >= 3 * sched.lp_solves, (
        f"cache saved too little: {sched.lp_solves} solves vs {cold_solves} cold"
    )
    assert sched.cache_hits == _N_WINDOWS - sched.lp_solves
    _record(benchmark, "window_schedule_cached",
            windows=_N_WINDOWS, lp_solves=sched.lp_solves,
            cache_hits=sched.cache_hits)


def _drifting_demands(windows=200):
    """Slow per-window drift: every vector distinct, so the cache never
    hits and only the warm-started basis can help."""
    return [
        {"A": 27.0 + 0.01 * w, "B": 13.5 + 0.005 * w} for w in range(windows)
    ]


def test_window_schedule_warm_start(benchmark):
    """Drifting demand: basis reuse vs cold starts."""
    demands = _drifting_demands()
    cold = _run_windows(demands, lp_cache=False, warm_start=False)
    warm = benchmark.pedantic(
        lambda: _run_windows(demands, lp_cache=False, warm_start=True),
        rounds=1, iterations=1,
    )
    assert warm.lp_solves == cold.lp_solves == len(demands)
    assert warm.lp_iterations <= cold.lp_iterations
    _record(benchmark, "window_schedule_warm_start",
            windows=len(demands), warm_iterations=warm.lp_iterations,
            cold_iterations=cold.lp_iterations)
