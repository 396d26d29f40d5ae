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

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.figures import ClientSpec, FigureWorld, NodeSpec, fig6_world
from repro.experiments.harness import Scenario
from repro.experiments.parallel import parallel_map
from repro.scheduling.window import WindowConfig

__all__ = [
    "SweepPoint",
    "contended_world",
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


def contended_world(duration: float, settle: float, seed: int = 0) -> FigureWorld:
    """Fig 6's phase 1 as one ``steady`` phase measured after ``settle``
    seconds: A floods at 405 req/s against its 20% guarantee, B offers 135
    req/s under its 80%, both through one redirector R with no tree."""
    if settle >= duration:
        raise ValueError(f"a {duration} s run leaves nothing to measure after {settle} s")
    return replace(
        fig6_world(seed=seed),
        nodes=(NodeSpec("R", "l7", {"S": ("S",)}),),
        clients=(ClientSpec("CA", "A", "R", 405.0), ClientSpec("CB", "B", "R", 135.0)),
        tree=None,
        horizon=duration,
        phases=(("steady", settle, duration),),
        expected=(),
        settle=0.0,
        sharded=False,
    )


def _run(world: FigureWorld) -> Tuple[Scenario, Dict[str, Dict[str, float]]]:
    """Run ``world``; its phases' rates by phase name."""
    sc = world.scenario()
    return sc, {p.name: p.rates for p in world.measure(sc).phases}


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
    _, rates = _run(replace(contended_world(duration, max(5.0, 4 * wl), seed),
                            window=WindowConfig(wl)))
    return _point(wl, rates["steady"])


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
    world = contended_world(duration, max(10.0, 4 * d), seed)
    _, rates = _run(replace(
        world,
        nodes=tuple(NodeSpec(r, "l7", {"S": ("S",)}, {"n_redirectors": 2})
                    for r in ("R1", "R2")),
        clients=(ClientSpec("CA", "A", "R1", 405.0), ClientSpec("CB", "B", "R2", 135.0)),
        tree={"link_delay": d, "extra_root": True},
        phases=(*world.phases, ("ramp", 0.0, 2.0)),
    ))
    return _point(d, rates["steady"], ramp_b=rates["ramp"]["B"])


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
    sc, rates = _run(replace(
        contended_world(duration, 8.0, seed),
        nodes=tuple(NodeSpec(f"R{i}", "l7", {"S": ("S",)}, {"n_redirectors": n})
                    for i in range(n)),
        clients=(*(ClientSpec(f"CA{i}", "A", f"R{i}", 405.0 / n) for i in range(n)),
                 ClientSpec("CB", "B", f"R{n - 1}", 135.0)),
        tree={"link_delay": 0.002, "kind": "balanced"} if n > 1 else None,
    ))
    msgs = sc.counter.total / max(duration / 0.1, 1.0)
    return _point(float(n), rates["steady"], messages_per_round=msgs)


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
