"""Parameter sweeps: sensitivity studies around the paper's fixed choices.

The paper fixes a 100 ms window, one or two redirectors, and a LAN-scale
tree; these helpers rerun the canonical contended scenario (Fig 6 phase 1:
A floods against a 20% guarantee, B offers under its 80% guarantee) while
sweeping one knob, and report enforcement quality per point:

- ``sweep_window``      window length vs enforcement error,
- ``sweep_delay``       combining-tree delay vs convergence time,
- ``sweep_redirectors`` redirector count vs enforcement error and traffic.

Every sweep takes ``jobs``: points are independent simulations, so they
run through :func:`repro.experiments.parallel.parallel_map`.  Each point
function is module-level (picklable) and derives everything from its task
tuple, so results are identical for any job count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.figures import fig6_world
from repro.experiments.harness import Scenario
from repro.experiments.parallel import parallel_map
from repro.scheduling.window import WindowConfig

__all__ = [
    "SweepPoint",
    "sweep_window",
    "sweep_delay",
    "sweep_redirectors",
]


@dataclass
class SweepPoint:
    """One sweep sample."""

    knob: float
    b_rate: float                 # B's measured service rate (target 135)
    a_rate: float
    enforcement_error: float      # |B - 135| / 135
    extra: Dict[str, float] = field(default_factory=dict)


def _measure(sc: Scenario, duration: float, settle: float) -> Dict[str, float]:
    sc.run(duration)
    return {
        "A": sc.meter.mean_rate("A", settle, duration),
        "B": sc.meter.mean_rate("B", settle, duration),
    }


def _point(knob: float, rates: Dict[str, float], **extra) -> SweepPoint:
    return SweepPoint(
        knob=knob,
        b_rate=rates["B"],
        a_rate=rates["A"],
        enforcement_error=abs(rates["B"] - 135.0) / 135.0,
        extra=dict(extra),
    )


def _window_point(task: Tuple[float, float, int]) -> SweepPoint:
    wl, duration, seed = task
    sc = Scenario(fig6_world().graph(), window=WindowConfig(wl), seed=seed)
    srv = sc.server("S", "S", 320.0)
    red = sc.l7("R", {"S": srv})
    sc.client("CA", "A", red, rate=405.0)
    sc.client("CB", "B", red, rate=135.0)
    rates = _measure(sc, duration, settle=max(5.0, 4 * wl))
    return _point(wl, rates)


def sweep_window(
    lengths: Sequence[float] = (0.02, 0.05, 0.1, 0.2, 0.5),
    duration: float = 25.0,
    seed: int = 0,
    jobs: Optional[int] = 1,
) -> List[SweepPoint]:
    """Enforcement error vs scheduling-window length."""
    return parallel_map(
        _window_point, [(wl, duration, seed) for wl in lengths], jobs=jobs
    )


def _delay_point(task: Tuple[float, float, int]) -> SweepPoint:
    d, duration, seed = task
    sc = Scenario(fig6_world().graph(), seed=seed)
    srv = sc.server("S", "S", 320.0)
    r1 = sc.l7("R1", {"S": srv}, n_redirectors=2)
    r2 = sc.l7("R2", {"S": srv}, n_redirectors=2)
    sc.connect_tree(link_delay=d, extra_root=True)
    sc.client("CA", "A", r1, rate=405.0)
    sc.client("CB", "B", r2, rate=135.0)
    settle = max(10.0, 4 * d)
    rates = _measure(sc, duration, settle=settle)
    ramp_b = sc.meter.mean_rate("B", 0.0, 2.0)
    return _point(d, rates, ramp_b=ramp_b)


def sweep_delay(
    delays: Sequence[float] = (0.005, 0.1, 0.5, 2.0, 5.0),
    duration: float = 40.0,
    seed: int = 0,
    jobs: Optional[int] = 1,
) -> List[SweepPoint]:
    """Steady-state enforcement vs combining-tree one-way link delay.

    Steady state is delay-insensitive (the paper's Fig 8 point); only the
    transient stretches, which ``extra['ramp_b']`` exposes as B's rate over
    the first 2 s.
    """
    return parallel_map(
        _delay_point, [(d, duration, seed) for d in delays], jobs=jobs
    )


def _redirectors_point(task: Tuple[int, float, int]) -> SweepPoint:
    n, duration, seed = task
    sc = Scenario(fig6_world().graph(), seed=seed)
    srv = sc.server("S", "S", 320.0)
    reds = [sc.l7(f"R{i}", {"S": srv}, n_redirectors=n) for i in range(n)]
    if n > 1:
        sc.connect_tree(link_delay=0.002, kind="balanced")
    for i in range(n):
        sc.client(f"CA{i}", "A", reds[i], rate=405.0 / n)
    sc.client("CB", "B", reds[-1], rate=135.0)
    rates = _measure(sc, duration, settle=8.0)
    msgs = sc.counter.total / max(duration / 0.1, 1.0)
    return _point(float(n), rates, messages_per_round=msgs)


def sweep_redirectors(
    counts: Sequence[int] = (1, 2, 4, 8),
    duration: float = 30.0,
    seed: int = 0,
    jobs: Optional[int] = 1,
) -> List[SweepPoint]:
    """Enforcement and protocol traffic vs redirector count.

    A's offered load is spread evenly over all redirectors; B stays on the
    last one.  Message traffic per round (2(n-1)) lands in ``extra``.
    """
    return parallel_map(
        _redirectors_point, [(n, duration, seed) for n in counts], jobs=jobs
    )
