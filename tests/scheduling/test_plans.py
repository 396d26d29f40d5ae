"""Closed-form window plans against the window LP they replace.

:class:`CommunityPlan` and :class:`ProviderPlan` run every window; the LP
schedulers are their oracle here.  On random agreement graphs (the
compiled-program tests' strategy) and on the lane fuzz's worlds, in both
modes, the closed form must

- reach the LP's objective (theta, or income) within 1e-9;
- satisfy every row of the LP as patched for the window within 1e-9;
- serve each principal what the LP serves wherever the LP's totals are
  unique: each total's minimum and maximum over the LP's optimal face are
  computed here, and where they meet the closed form must sit on them.

Where the LP leaves totals open, the plan follows its own stated rule
(progressive filling, price levels split by headroom); feasibility above
bounds it.
"""

import copy

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core.access import compute_access_levels
from repro.lp import Model, Status, solve
from repro.scheduling.community import CommunityPlan, CommunityScheduler
from repro.scheduling.provider import ProviderPlan, ProviderScheduler
from repro.scheduling.window import WindowConfig
from tests.integration.test_lane_fuzz import worlds
from tests.scheduling.test_compiled import _queue, agreement_graphs

W = WindowConfig(0.1)
TOL = 1e-9


def _rows_hold(program, z):
    """Every inequality row and box of ``program`` holds at ``z``."""
    _c, A_ub, b_ub, _A_eq, _b_eq, bounds = program.to_arrays()
    assert (A_ub @ z <= b_ub + TOL).all(), np.max(A_ub @ z - b_ub)
    lo, up = np.array(bounds).T
    assert (z >= lo - TOL).all() and (z <= up + TOL).all()


# -- community -------------------------------------------------------------

_cap = st.one_of(st.just(np.nan), st.floats(min_value=0.0, max_value=60.0))


def _check_community(access, q, caps=None):
    plan = CommunityPlan(access, W)
    sched = CommunityScheduler(access, W)
    try:
        lp = sched.schedule(q, locality_caps=caps)
    except RuntimeError:            # the floors do not fit under the caps
        with pytest.raises(RuntimeError):
            plan(q, caps)
        return
    theta, served, flows = plan(q, caps)
    assert theta == pytest.approx(lp.theta, abs=TOL)
    x = np.zeros((len(q), len(q)))
    for i, edges, row in zip(plan.holders, plan.edges, flows):
        for (k, _), f in zip(edges, row):
            x[i, plan.owners[k]] = f
    np.testing.assert_allclose(x.sum(axis=1), served, rtol=0, atol=TOL)
    z = np.zeros(sched.program.nv)
    z[sched._theta.index] = theta
    z[sched._xcols] = x[sched._xi, sched._xk]
    _rows_hold(sched.program, z)
    # Each total's range over the LP's optimal face.
    for i in plan.holders:
        cols = sched._xcols[sched._xi == i]
        extremes = []
        for sign in (1.0, -1.0):
            face = copy.deepcopy(sched.program)
            face.lo[sched._theta.index] = lp.theta - 1e-12
            face.cost[:] = 0.0
            face.cost[cols] = sign
            sol = solve(face)
            assert sol.status is Status.OPTIMAL
            extremes.append(float(sol.x[cols].sum()))
        low, high = extremes
        assert low - TOL <= served[i] <= high + TOL
        if high - low <= TOL:
            assert served[i] == pytest.approx(low, abs=TOL)


@st.composite
def community_windows(draw):
    g = draw(agreement_graphs())
    n = len(g.names)
    q = np.array([draw(_queue) for _ in range(n)])
    caps = draw(st.one_of(st.none(), st.lists(_cap, min_size=n, max_size=n)))
    return compute_access_levels(g), q, (np.array(caps) if caps else None)


@given(community_windows())
@settings(max_examples=150, deadline=None)
def test_community_plan_matches_the_lp(window):
    _check_community(*window)


@given(worlds(), st.data())
@settings(max_examples=60, deadline=None)
def test_community_plan_matches_the_lp_on_fuzz_worlds(world, data):
    access = compute_access_levels(world.graph())
    q = np.array([data.draw(_queue) for _ in access.names])
    _check_community(access, q)


def test_community_plan_fig9_phase3():
    """A at its own 40 (its floor), B gets the other 24 of 64."""
    from repro.experiments.figures import fig9_world
    access = compute_access_levels(fig9_world().graph()).per_window(1.0)
    plan = CommunityPlan(access, W)
    theta, served, _ = plan([40.0, 40.0])
    assert (theta, served) == (0.6, [40.0, 24.0])


# -- provider --------------------------------------------------------------

def _check_provider(access, prices, demand):
    plan = ProviderPlan(access, prices, window=W)
    assume(plan.customers)      # no customer, no provider LP to compare with
    sched = ProviderScheduler(access, prices, window=W)
    lp = sched.schedule(demand)
    x, income = plan(demand)
    assert income == pytest.approx(lp.income, abs=TOL)
    customers = sched.customers
    if not any(demand.get(c, 0.0) > 1e-12 for c in customers):
        assert all(v == 0.0 for v in x.values())
        return
    _rows_hold(sched.program, np.array([x[c] for c in customers]))
    # Each admitted count's range over the LP's optimal face.
    lo, up = sched.program.lo[sched._xcols], sched.program.up[sched._xcols]
    for j, name in enumerate(customers):
        extremes = []
        for sense in ("maximize", "minimize"):
            m = Model("provider-face")
            xs = [m.var(f"x{k}", lb=float(lo[k]), ub=float(up[k]))
                  for k in range(len(customers))]
            m.add(sum(xs) <= sched._vs)
            m.add(sum(float(p) * (v - float(mc)) for p, v, mc in zip(
                sched._price, xs, sched._mc)) >= lp.solution.objective - 1e-12)
            getattr(m, sense)(xs[j])
            sol = solve(m)
            assert sol.status is Status.OPTIMAL
            extremes.append(sol.value(xs[j]))
        high, low = extremes
        assert low - TOL <= x[name] <= high + TOL
        if high - low <= TOL:
            assert x[name] == pytest.approx(low, abs=TOL)


_price = st.sampled_from([0.0, 1.0, 1.0, 2.0, 3.0])


@given(agreement_graphs(), st.data())
@settings(max_examples=100, deadline=None)
def test_provider_plan_matches_the_lp(g, data):
    access = compute_access_levels(g)
    prices = {p: data.draw(_price) for p in g.names}
    demand = {p: data.draw(_queue) for p in g.names}
    _check_provider(access, prices, demand)


@given(worlds(), st.data())
@settings(max_examples=60, deadline=None)
def test_provider_plan_matches_the_lp_on_fuzz_worlds(world, data):
    access = compute_access_levels(world.graph())
    prices = world.nodes[0].options.get("prices") or {
        p: data.draw(_price) for p in access.names}
    demand = {p: data.draw(_queue) for p in access.names}
    _check_provider(access, prices, demand)


def test_equal_prices_split_by_headroom():
    """Two customers at one price share what is left in proportion to
    their headroom, where the LP's vertex would pick one."""
    from repro.core.agreements import Agreement, AgreementGraph
    g = AgreementGraph()
    g.add_principal("P", capacity=100.0)
    g.add_principal("A")
    g.add_principal("B")
    g.add_agreement(Agreement("P", "A", 0.1, 1.0))
    g.add_agreement(Agreement("P", "B", 0.1, 1.0))
    plan = ProviderPlan(compute_access_levels(g), {"A": 1.0, "B": 1.0},
                        window=WindowConfig(1.0))
    x, _ = plan({"A": 90.0, "B": 50.0})
    # Floors 10 + 10; 80 left against headroom 80 + 40.
    assert x == {"A": pytest.approx(10 + 80 * 80 / 120),
                 "B": pytest.approx(10 + 80 * 40 / 120)}
