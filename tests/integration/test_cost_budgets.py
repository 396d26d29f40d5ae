"""Cost budgets: deterministic counts of what the pinned runs cost.

A change that keeps every digest in ``test_pinned_digests.py`` but
schedules, solves, re-offers, commits or drains more shows up here.  The
counts are exact and equal on every machine, so each budget arms anywhere;
like a digest, a budget may move (in either direction) only in a commit
that states old -> new and why.  The runs are the digest pins' own
(``tests/integration/recorded.py``), so this file runs no figure twice.

``PINNED_COSTS`` pins events scheduled (``Simulator._seq``) and window
plans computed, summed over every redirector's and daemon's allocator,
beside each fig6-fig10 digest, on the default lanes and under
``REPRO_CHECK=1``.  The plans are one per window with a global view: no
plan is reused, and no run calls ``repro.lp.solve`` (every record counts
its simplex solves, and they must be 0).  ``PINNED_COLUMNAR_LOAD_COSTS``
pins the same two, plus the busy-period passes, beside the columnar load
world's digests on both lanes.  ``PINNED_HANDLE_CALLS`` pins the ``L7Redirector.handle`` and
``L4Switch.handle`` calls of the fig6-fig10 runs; on the columnar lane they
are the parked re-offers.  All of these moved at the commit that made
every window's plan exact (CHANGES.md lists old -> new).
``PINNED_METER_CALLS`` pins the ``RateMeter.record_many`` calls on the
columnar lane: the server lanes commit completions once per drained block
of requests, not once per window.
"""

import pytest

import repro.cluster.columnar as columnar
from tests.integration.recorded import columnar_load_run, figure_run

# figure -> run mode -> (events scheduled, plans computed).  The mode is the
# lane the figure ran on, "+check" when the invariant hooks were on: they
# schedule events of their own, and under REPRO_CHECK=1 fig6/9/10 run slotted.
PINNED_COSTS = {
    "fig6": {"columnar": (1362, 300), "slotted+check": (11495, 300)},
    "fig7": {"columnar": (687, 150), "slotted": (5474, 150),
             "slotted+check": (5628, 150)},
    "fig8": {"columnar": (1432, 192), "slotted": (6521, 192),
             "slotted+check": (6745, 192)},
    "fig9": {"columnar": (405, 199), "slotted+check": (32487, 199)},
    "fig10": {"columnar": (405, 199), "slotted+check": (33452, 199)},
}

# figure -> run mode (as PINNED_COSTS) -> (L7Redirector.handle calls,
# L4Switch.handle calls), counted on the class so every instance is seen.
PINNED_HANDLE_CALLS = {
    "fig6": {"columnar": (2759, 0), "slotted+check": (8139, 0)},
    "fig7": {"columnar": (2041, 0), "slotted": (5060, 0),
             "slotted+check": (5060, 0)},
    "fig8": {"columnar": (1978, 0), "slotted": (4803, 0),
             "slotted+check": (4803, 0)},
    "fig9": {"columnar": (0, 7132), "slotted+check": (0, 21071)},
    "fig10": {"columnar": (0, 4707), "slotted+check": (0, 18646)},
}

# figure -> RateMeter.record_many calls of its columnar run, counted on the
# class.  Captured at the commit that made the server lanes drain in blocks
# of _DRAIN_BLOCK requests; committing every window made 647, 370, 437,
# 1118 and 1612 calls.
PINNED_METER_CALLS = {
    "fig6": 25, "fig7": 10, "fig8": 13, "fig9": 73, "fig10": 104,
}

# seed -> lane -> (events scheduled, plans computed, busy-period passes) of
# the benchmark's columnar load world (``PINNED_COLUMNAR_LOAD`` in
# test_pinned_digests.py), as PINNED_COSTS pins them beside the figures;
# they catch a change that keeps the digest but schedules, plans or drains
# more.
PINNED_COLUMNAR_LOAD_COSTS = {
    0: {"columnar": (139, 28, 8), "slotted": (94244, 28, 0)},
    1: {"columnar": (139, 28, 7), "slotted": (94392, 28, 0)},
}


def _assert_budgets(figure, lane=None):
    run = figure_run(figure, lane)
    # Every window plan is closed-form: nothing on the run path calls
    # repro.lp.solve.
    assert run.lp_solves == 0
    assert run.costs == PINNED_COSTS[figure][run.mode], run.mode
    assert run.handle_calls == PINNED_HANDLE_CALLS[figure][run.mode], run.mode
    if run.mode == "columnar":
        assert run.meter_calls == PINNED_METER_CALLS[figure]


@pytest.mark.parametrize("figure", sorted(PINNED_COSTS))
def test_figure_costs(figure):
    _assert_budgets(figure)


@pytest.mark.parametrize("figure, lane", [("fig7", "slotted"),
                                          ("fig8", "columnar")])
def test_figure_costs_on_the_other_lane(figure, lane):
    _assert_budgets(figure, lane)


@pytest.mark.parametrize("seed", sorted(PINNED_COLUMNAR_LOAD_COSTS))
def test_columnar_load_costs(seed):
    for lane in ("columnar", "slotted"):
        run = columnar_load_run(seed, lane)
        assert run.lp_solves == 0
        assert (*run.costs, run.busy_passes) == \
            PINNED_COLUMNAR_LOAD_COSTS[seed][lane], lane
        if lane == "columnar":
            # Mixed batches of >= 64 requests took the busy-period drain.
            assert run.min_busy_batch >= columnar._BUSY_MIN
