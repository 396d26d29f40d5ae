"""Acceptance A/B: the perf machinery must not change a single result.

The event kernel's ``PeriodicTimer`` is a pure accelerator with no switch,
so it is A/B'd by patching the reference in from here — the
generator-process oracle of ``tests/sim/test_engine.py`` over
``Simulator.every`` — on whole figures.

The window allocator reuses no plan: every window gets the exact plan for
its estimate, so a replayed estimate must give the same plan, bit for bit,
whatever windows came before it.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.access import compute_access_levels
from repro.core.agreements import Agreement, AgreementGraph
from repro.experiments.figures import run_fig6, run_fig9
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


# Per-window queue lengths (A, B): both active, B idle, overload, empty.
QUEUES = [
    (27.0, 13.5), (27.0, 0.0), (31.5, 13.5), (80.0, 40.0), (0.0, 0.0),
    (31.5, 40.0), (40.97, 40.0), (40.0, 40.0),
]
# Revisited pool values, and anything else.
_A = st.one_of(st.sampled_from(sorted({a for a, _ in QUEUES})),
               st.floats(min_value=0.0, max_value=120.0))
_B = st.one_of(st.sampled_from(sorted({b for _, b in QUEUES})),
               st.floats(min_value=0.0, max_value=120.0))


def _allocators(mode):
    """Fresh allocators: the fig6 graph (one server) and the fig9 graph (two
    servers, so the forwarding weights have a choice) in community mode;
    one provider selling to A and B in provider mode."""
    graphs = []
    if mode == "community":
        g = AgreementGraph()
        g.add_principal("S", capacity=320.0)
        g.add_principal("A")
        g.add_principal("B")
        g.add_agreement(Agreement("S", "A", 0.2, 1.0))
        g.add_agreement(Agreement("S", "B", 0.8, 1.0))
        graphs.append(g)
        g = AgreementGraph()
        g.add_principal("A", capacity=320.0)
        g.add_principal("B", capacity=320.0)
        g.add_agreement(Agreement("B", "A", 0.5, 0.5))
        graphs.append(g)
        prices = None
    else:
        g = AgreementGraph()
        g.add_principal("P", capacity=640.0)
        g.add_principal("A")
        g.add_principal("B")
        g.add_agreement(Agreement("P", "A", 0.8, 1.0))
        g.add_agreement(Agreement("P", "B", 0.2, 1.0))
        graphs.append(g)
        prices = {"A": 2.0, "B": 1.0}
    return [
        lambda g=g: WindowAllocator(compute_access_levels(g), WindowConfig(0.1),
                                    mode=mode, prices=prices)
        for g in graphs
    ]


def _bits(alloc, seq):
    """Every window's quotas and weights, as hex (local demand is the
    estimate)."""
    out = []
    for a, b in seq:
        got = alloc.compute({"A": a, "B": b})
        out.append((
            {p: q.hex() for p, q in got.quotas.items()},
            {p: {k: v.hex() for k, v in w.items()} for p, w in got.weights.items()},
        ))
    return out


@pytest.mark.parametrize("mode", ["community", "provider"])
@given(seq=st.lists(st.tuples(_A, _B), min_size=1, max_size=12))
@example(seq=[(31.5, 40.0)] * 2)
@example(seq=QUEUES + QUEUES[::-1])
@settings(max_examples=40, deadline=None)
def test_allocator_plan_is_a_function_of_the_estimate(mode, seq):
    """Each window's plan after any history equals a fresh allocator's
    first plan for that estimate, bit for bit.  (A warm-started simplex
    re-solve of a repeated estimate once moved a quota by an ulp.)"""
    for fresh in _allocators(mode):
        replayed = _bits(fresh(), seq)
        for est, plan in zip(seq, replayed):
            assert plan == _bits(fresh(), [est])[0]


@pytest.mark.parametrize("run_fig", [run_fig6, run_fig9],
                         ids=["fig6", "fig9"])
def test_fast_periodic_bit_identical(run_fig, monkeypatch):
    fast = run_fig(duration_scale=SCALE)
    monkeypatch.setattr(Simulator, "every", generator_every)
    slow = run_fig(duration_scale=SCALE)
    assert _flatten(fast) == _flatten(slow)
