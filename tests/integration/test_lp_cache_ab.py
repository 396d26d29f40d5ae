"""Acceptance A/B: the perf machinery must not change a single result.

The window allocator's exact-match plan cache and the event kernel's
``PeriodicTimer`` are pure accelerators with no switch, so they are A/B'd
by patching the reference in from here — a ``SolveCache`` whose lookups
never hit, and the generator-process oracle of ``tests/sim/test_engine.py``
over ``Simulator.every`` — on whole figures, and the plan cache also on one
allocator over revisited estimates.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.access import compute_access_levels
from repro.core.agreements import Agreement, AgreementGraph
from repro.experiments.figures import run_fig6, run_fig7, run_fig9
from repro.lp import SolveCache
from repro.scheduling.allocator import WindowAllocator
from repro.scheduling.window import WindowConfig
from repro.sim.engine import Simulator
from tests.sim.test_engine import generator_every

SCALE = 0.05


def _flatten(obj):
    """Recursively lower a FigureResult to comparable plain data."""
    if dataclasses.is_dataclass(obj):
        return {
            f.name: _flatten(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {k: _flatten(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_flatten(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tobytes()
    return obj


def _miss(self, key):
    """``SolveCache.get`` that never hits: every window is solved."""
    self.misses += 1
    return None


def _never_hit(monkeypatch):
    monkeypatch.setattr(SolveCache, "get", _miss)


@pytest.mark.parametrize("run_fig", [run_fig6, run_fig7, run_fig9],
                         ids=["fig6", "fig7", "fig9"])
def test_lp_cache_bit_identical(run_fig, monkeypatch):
    on = run_fig(duration_scale=SCALE)
    _never_hit(monkeypatch)
    off = run_fig(duration_scale=SCALE)
    assert _flatten(on) == _flatten(off)


# Per-window queue lengths (A, B): both active, B idle, overload, empty —
# each revisited, so the cached allocator answers from its plan cache while
# the uncached one re-solves from whatever basis the last window left.
QUEUES = [
    (27.0, 13.5), (27.0, 0.0), (27.0, 13.5), (31.5, 13.5), (80.0, 40.0),
    (27.0, 0.0), (0.0, 0.0), (31.5, 13.5), (80.0, 40.0), (27.0, 13.5),
]
# A small pool per principal, so drawn sequences revisit estimates.
_A = sorted({a for a, _ in QUEUES})
_B = sorted({b for _, b in QUEUES})


def _allocator(mode):
    """The fig6 graph in community mode; one provider selling to A and B
    in provider mode.  The tolerance rule is off: every window reaches the
    exact-match plan cache."""
    g = AgreementGraph()
    if mode == "community":
        g.add_principal("S", capacity=320.0)
        g.add_principal("A")
        g.add_principal("B")
        g.add_agreement(Agreement("S", "A", 0.2, 1.0))
        g.add_agreement(Agreement("S", "B", 0.8, 1.0))
        prices = None
    else:
        g.add_principal("P", capacity=640.0)
        g.add_principal("A")
        g.add_principal("B")
        g.add_agreement(Agreement("P", "A", 0.8, 1.0))
        g.add_agreement(Agreement("P", "B", 0.2, 1.0))
        prices = {"A": 2.0, "B": 1.0}
    return WindowAllocator(
        compute_access_levels(g), WindowConfig(0.1), mode=mode,
        prices=prices, cache_tolerance=0.0,
    )


def _run(alloc, seq):
    """Every window's quotas and weights (local demand is the estimate)."""
    out = []
    for a, b in seq:
        got = alloc.compute({"A": a, "B": b})
        out.append((got.quotas, got.weights))
    return out


def _bits(plans):
    return [
        ({p: q.hex() for p, q in quotas.items()},
         {p: {k: v.hex() for k, v in w.items()} for p, w in weights.items()})
        for quotas, weights in plans
    ]


def _a_b(mode, seq):
    """The plans over ``seq`` of an allocator and of one whose lookups
    never hit, with the hit and miss counts and the tolerance counters
    checked."""
    cached = _allocator(mode)
    on = _run(cached, seq)
    with mock.patch.object(SolveCache, "get", _miss):
        plain = _allocator(mode)
        off = _run(plain, seq)
    distinct = len(set(seq))
    assert (cached._plans.hits, cached._plans.misses) == (len(seq) - distinct, distinct)
    assert (plain._plans.hits, plain._plans.misses) == (0, len(seq))
    # Every window passed the (disabled) tolerance rule; none was reused by it.
    for alloc in (cached, plain):
        assert (alloc.lp_solves, alloc.cache_hits) == (len(seq), 0)
    return on, off


MODES = ["community", "provider"]


@pytest.mark.parametrize("mode, seq", [
    *(pytest.param(mode, QUEUES, id=f"{mode}-revisits") for mode in MODES),
    # A warm re-solve of the estimate just solved lands on the same vertex
    # with other last bits (A's quota ...9cp+2 against ...9ep+2), so the
    # cache is result-neutral only up to float64 rounding.
    pytest.param("community", [(31.5, 40.0)] * 2, id="community-repeat",
                 marks=pytest.mark.xfail(strict=True, reason=(
                     "warm re-solve rounds differently from the first solve"))),
])
def test_allocator_plan_cache_bit_identical(mode, seq):
    """Plan reuse where it lives: the allocator's exact-match cache against
    the same allocator with every lookup missing, bit for bit."""
    on, off = _a_b(mode, seq)
    assert _bits(on) == _bits(off)


@pytest.mark.parametrize("mode", MODES)
@given(seq=st.lists(st.tuples(st.sampled_from(_A), st.sampled_from(_B)),
                    min_size=1, max_size=12))
@settings(max_examples=40, deadline=None)
def test_allocator_plan_cache_property(mode, seq):
    on, off = _a_b(mode, seq)
    # A hit returns, bit for bit, the plan first solved for that estimate.
    first = {}
    for est, plan in zip(seq, _bits(on)):
        assert first.setdefault(est, plan) == plan
    # A re-solve, from whatever basis the last window left, reaches the same
    # plan up to float64 rounding (the test above pins a case that differs).
    for (q_on, w_on), (q_off, w_off) in zip(on, off):
        assert q_on == pytest.approx(q_off, rel=1e-12, abs=1e-12)
        assert w_on.keys() == w_off.keys()
        for p in w_on:
            assert w_on[p] == pytest.approx(w_off[p], rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("run_fig", [run_fig6, run_fig9],
                         ids=["fig6", "fig9"])
def test_fast_periodic_bit_identical(run_fig, monkeypatch):
    fast = run_fig(duration_scale=SCALE)
    monkeypatch.setattr(Simulator, "every", generator_every)
    slow = run_fig(duration_scale=SCALE)
    assert _flatten(fast) == _flatten(slow)


def test_both_accelerators_off_vs_on(monkeypatch, run_fig=run_fig9):
    """The full acceptance combination on a whole figure: a cache that
    never hits and generator-process tickers together."""
    on = run_fig(duration_scale=SCALE)
    _never_hit(monkeypatch)
    monkeypatch.setattr(Simulator, "every", generator_every)
    off = run_fig(duration_scale=SCALE)
    assert _flatten(on) == _flatten(off)
    # And the exact phase rates, spelled out, for readable failure output.
    for p_on, p_off in zip(on.phases, off.phases):
        for key in ("A", "B"):
            assert p_on.rate(key) == p_off.rate(key)
