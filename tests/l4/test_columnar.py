"""The columnar L4 switch's admission step and its construction rules.

The lane-level parity (every counter, meter and digest against the
slotted lane) is in ``tests/integration/test_columnar_parking.py`` and the
pinned digests; here the per-principal split is held to the scalar
``ImplicitQuota.try_admit`` it replaces, flow by flow and bit for bit.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cluster.columnar import LaneError
from repro.cluster.health import BackendHealthChecker
from repro.cluster.server import Server
from repro.core.access import compute_access_levels
from repro.l4.columnar import ColumnarL4Switch, _split
from repro.scheduling.queueing import ImplicitQuota
from repro.scheduling.window import WindowConfig
from repro.sim.engine import Simulator

# Budgets at and just around whole requests, where the `cost - 1e-9`
# threshold decides.
_NEAR_INT = st.builds(
    lambda k, d: k + d,
    st.integers(0, 60),
    st.sampled_from([0.0, 1e-9, -1e-9, 5e-10, -5e-10, 2e-9, -2e-9,
                     1e-12, -1e-12, 1e-6, -1e-6]),
)
_AMOUNT = st.one_of(st.floats(0.0, 80.0), _NEAR_INT)
# What a window inherits: a leftover budget (admissions may leave it a
# hair below zero), carried through ImplicitQuota.new_window's residue rule.
_LEFTOVER = st.one_of(st.floats(-1e-9, 3.0), _NEAR_INT)
_COSTS = st.one_of(
    st.integers(0, 120).map(lambda n: [1.0] * n),
    st.lists(st.integers(1, 9).map(float), max_size=120),
)


def _scalar(budget, costs, room):
    """The slotted switch's rule, one flow at a time: quota, then the SYN
    queue while it has room, else refused."""
    quota = ImplicitQuota(["p"])
    quota._budget["p"] = budget
    admitted, queued, refused = [], [], []
    for i, cost in enumerate(costs):
        if quota.try_admit("p", cost):
            admitted.append(i)
        elif len(queued) < room:
            queued.append(i)
        else:
            refused.append(i)
    return admitted, queued, refused, quota._budget["p"]


@settings(max_examples=300, deadline=None)
@given(leftover=_LEFTOVER, amount=_AMOUNT, costs=_COSTS,
       room=st.integers(0, 300), as_unit=st.booleans())
@example(leftover=0.75, amount=60.0, costs=[1.0] * 100, room=8, as_unit=True)
@example(leftover=0.75, amount=60.0, costs=[1.0] * 100, room=8, as_unit=False)
@example(leftover=1e-9 - 2e-18, amount=57.0, costs=[1.0] * 57, room=0,
         as_unit=True)
@example(leftover=0.5, amount=70.25, costs=[3.0, 1.0, 2.0] * 40, room=5,
         as_unit=False)
# Not a prefix: the 1s pass after the 4 failed, and the second 1 fails.
@example(leftover=0.0, amount=3.0, costs=[2.0, 4.0, 1.0, 1.0], room=0,
         as_unit=False)
def test_split_equals_try_admit_one_flow_at_a_time(leftover, amount, costs,
                                                  room, as_unit):
    quota = ImplicitQuota(["p"])
    quota._budget["p"] = leftover
    quota.new_window({"p": amount})
    budget = quota._budget["p"]
    # A unit-cost batch comes without a cost column (as_unit), or with one.
    unit = as_unit and all(c == 1.0 for c in costs)
    admitted, queued, refused, left = _split(
        budget, len(costs), None if unit else np.array(costs), room)
    want = _scalar(budget, costs, room)
    assert admitted.tolist() == want[0]
    assert queued.tolist() == want[1]
    assert refused.tolist() == want[2]
    assert float(left).hex() == want[3].hex()


def test_direct_construction_refuses_a_health_checker(fig9_graph):
    # The inline affinity pick skips the health probe, so the class itself
    # (not only Scenario.l4) refuses a checked pool.
    sim = Simulator()
    servers = {"A": Server(sim, "SA", 320.0, owner="A"),
               "B": Server(sim, "SB", 320.0, owner="B")}
    health = BackendHealthChecker(sim, servers.values())
    with pytest.raises(LaneError, match="L4 switch 'SW'.*health-checked"):
        ColumnarL4Switch(sim, "SW", compute_access_levels(fig9_graph).names,
                         servers, window=WindowConfig(0.1), health=health)
