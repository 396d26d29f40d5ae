"""Acceptance A/B: the perf machinery must not change a single result.

The exact-match LP solve cache and the event kernel's ``PeriodicTimer`` are
pure accelerators.  Neither has a switch above the component that owns it,
so whole figures are A/B'd by patching the reference in from here — a
``SolveCache`` whose lookups never hit, and the generator-process oracle of
``tests/sim/test_engine.py`` over ``Simulator.every`` — and the cache switch
itself where it lives, on the scheduler constructor.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.access import compute_access_levels
from repro.experiments.figures import run_fig6, run_fig7, run_fig9
from repro.lp import SolveCache
from repro.scheduling.community import CommunityScheduler
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


def _never_hit(monkeypatch):
    """The cache with its lookups disabled: every window is solved."""
    monkeypatch.setattr(SolveCache, "get", lambda self, key: None)


@pytest.mark.parametrize("run_fig", [run_fig6, run_fig7, run_fig9],
                         ids=["fig6", "fig7", "fig9"])
def test_lp_cache_bit_identical(run_fig, monkeypatch):
    on = run_fig(duration_scale=SCALE)
    _never_hit(monkeypatch)
    off = run_fig(duration_scale=SCALE)
    assert _flatten(on) == _flatten(off)


# Per-window queue lengths (A, B): both active, B idle, overload, empty —
# each revisited, so the cached scheduler answers from its cache while the
# uncached one re-solves from whatever basis the last window left.
QUEUES = [
    (27.0, 13.5), (27.0, 0.0), (27.0, 13.5), (31.5, 13.5), (80.0, 40.0),
    (27.0, 0.0), (0.0, 0.0), (31.5, 13.5), (80.0, 40.0), (27.0, 13.5),
]


def test_scheduler_lp_cache_bit_identical(fig6_graph):
    """The switch itself, where it lives: ``lp_cache=`` on the scheduler."""
    access = compute_access_levels(fig6_graph)
    cached = CommunityScheduler(access, WindowConfig(0.1), lp_cache=True)
    plain = CommunityScheduler(access, WindowConfig(0.1), lp_cache=False)
    for a, b in QUEUES:
        on = cached.schedule({"A": a, "B": b})
        off = plain.schedule({"A": a, "B": b})
        assert on.theta == off.theta
        assert on.x.tobytes() == off.x.tobytes()
    assert cached.cache_hits == len(QUEUES) - len(set(QUEUES))
    assert plain.cache_hits == 0 and plain.lp_solves == len(QUEUES)


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
