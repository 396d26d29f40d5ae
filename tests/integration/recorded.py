"""One recorded run per figure world, shared by the digest and cost pins.

``tests/integration/test_pinned_digests.py`` pins what a run produced and
``tests/integration/test_cost_budgets.py`` what it cost; both read the same
run from here, so splitting the pins over two files runs no figure twice.
A record keeps the digests and counts only, not the run's ``Scenario``.
Runs are keyed by figure, lane and whether the invariant hooks are on
(``REPRO_CHECK``), so a suite run under ``REPRO_CHECK=1`` records its own.
"""

from dataclasses import dataclass
from typing import Dict, Optional, Tuple
from unittest import mock

import repro.cluster.columnar as columnar
import repro.experiments.figures as figures
import repro.lp.solver as lp_solver
from repro.analysis.invariants import check_enabled
from repro.analysis.replay import admission_digest, scenario_digest
from repro.core.agreements import Agreement, AgreementGraph
from repro.experiments.harness import Scenario
from repro.l4.switch import L4Switch
from repro.l7.redirector import L7Redirector
from repro.sim.monitor import RateMeter


@dataclass(frozen=True)
class Record:
    """What the pins read from one run."""

    mode: str                      # lane, "+check" with the invariant hooks
    lane_fallback: Optional[str]
    digest: str                    # scenario_digest
    admission: Dict[str, str]      # node name -> admission_digest
    costs: Tuple[int, int]         # (events scheduled, plans over all nodes)
    lp_solves: int                 # simplex solves, through any solve binding
    handle_calls: Tuple[int, int]  # (L7Redirector.handle, L4Switch.handle)
    meter_calls: int               # RateMeter.record_many
    busy_passes: int               # columnar._busy_pass calls
    min_busy_batch: int            # smallest batch a busy pass drained
    figure: str = ""


def costs(sc) -> Tuple[int, int]:
    """(events scheduled, plans computed over every redirector and daemon)."""
    return sc.sim._seq, sum(
        owner.allocator.plans_computed
        for owners in (sc.l7_redirectors, sc.l4_daemons)
        for owner in owners.values()
    )


def _counted(owner, name, counter, index):
    inner = getattr(owner, name)

    def counted(*args, **kwargs):
        counter[index] += 1
        return inner(*args, **kwargs)

    return mock.patch.object(owner, name, counted)


def _record(build) -> Tuple[Record, object]:
    """Run ``build()`` (it returns ``(Scenario, result or None)``) with the
    handle, meter and busy-pass spies on."""
    calls = [0, 0, 0, 0]
    batches = []
    busy_pass = columnar._busy_pass

    def spy(*args):
        batches.append(args[0].shape[0])
        return busy_pass(*args)

    with _counted(L7Redirector, "handle", calls, 0), \
            _counted(L4Switch, "handle", calls, 1), \
            _counted(RateMeter, "record_many", calls, 2), \
            _counted(lp_solver, "bounded_simplex", calls, 3), \
            mock.patch.object(columnar, "_busy_pass", spy):
        sc, result = build()
    owners = {**sc.l7_redirectors, **sc.l4_daemons}
    return Record(
        mode=sc.lane + ("+check" if sc.invariants is not None else ""),
        lane_fallback=sc.lane_fallback,
        digest=scenario_digest(sc),
        admission={name: admission_digest(o) for name, o in owners.items()},
        costs=costs(sc),
        lp_solves=calls[3],
        handle_calls=(calls[0], calls[1]),
        meter_calls=calls[2],
        busy_passes=len(batches),
        min_busy_batch=min(batches, default=0),
        figure=getattr(result, "figure", ""),
    ), sc


def figure_scenario(figure: str, seed: int = 0, lane: Optional[str] = None):
    """Run ``figure``'s world at 1/20 scale on ``lane`` (its record's when
    None); returns (its Scenario, its measured result)."""
    world = figures.WORLDS[figure](0.05, seed)
    sc = world.scenario(lane)
    return sc, world.measure(sc)


_RUNS: Dict[tuple, Record] = {}


def figure_run(figure: str, lane: Optional[str] = None) -> Record:
    """The record of ``figure_scenario(figure, 0, lane)``; naming the
    record's own lane shares its default run."""
    lane = lane or figures.WORLDS[figure]().lane
    key = ("figure", figure, lane, check_enabled())
    if key not in _RUNS:
        _RUNS[key] = _record(lambda: figure_scenario(figure, 0, lane))[0]
    return _RUNS[key]


def columnar_load_world(seed, lane, T=0.5):
    """The benchmark's columnar world (fig6 x100: capacity 32k, A one 27k
    client, B one 13.5k client, jitter 0.4, no retry pool) at ``T``."""
    g = AgreementGraph()
    g.add_principal("S", capacity=32_000.0)
    g.add_principal("A")
    g.add_principal("B")
    g.add_agreement(Agreement("S", "A", 0.2, 1.0))
    g.add_agreement(Agreement("S", "B", 0.8, 1.0))
    sc = Scenario(g, seed=seed, lane=lane)
    server = sc.server("S", "S", 32_000.0)
    r1 = sc.l7("R1", {"S": server}, n_redirectors=2)
    r2 = sc.l7("R2", {"S": server}, n_redirectors=2)
    sc.connect_tree(link_delay=0.005)
    sc.client("C1", "A", r1, rate=27_000.0, windows=[(0.0, 3 * T)],
              max_retry_pool=0, jitter=0.4)
    sc.client("C2", "B", r2, rate=13_500.0,
              windows=[(0.0, T), (2 * T, 3 * T)], max_retry_pool=0, jitter=0.4)
    sc.run(3 * T)
    return sc


def columnar_load_run(seed: int, lane: str) -> Record:
    key = ("columnar-load", seed, lane, check_enabled())
    if key not in _RUNS:
        _RUNS[key] = _record(
            lambda: (columnar_load_world(seed, lane), None))[0]
    return _RUNS[key]
