"""The compiled window program: lowered once, patched per window.

The reference here is the formulation the schedulers used to rebuild from
the ``Model`` DSL every window — rows and variables of idle principals
*dropped*.  The compiled program keeps its shape (idle rows read
``0 <= 0``) and must reach the same optimum.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.access import compute_access_levels
from repro.core.agreements import Agreement, AgreementGraph
from repro.lp import Model, Status, solve
from repro.scheduling.community import CommunityScheduler
from repro.scheduling.provider import ProviderScheduler
from repro.scheduling.window import WindowConfig
from tests.lp.oracle import scipy_available, solve_scipy

W = WindowConfig(0.1)


@st.composite
def agreement_graphs(draw):
    """2-6 principals in a DAG of random [lb, ub] agreements; at least one
    owns a server."""
    n = draw(st.integers(min_value=2, max_value=6))
    g = AgreementGraph()
    caps = [draw(st.sampled_from([0.0, 100.0, 250.0, 400.0])) for _ in range(n)]
    if not any(caps):
        caps[0] = 320.0
    for i, cap in enumerate(caps):
        g.add_principal(f"P{i}", capacity=cap)
    for i in range(n):
        budget = 1.0
        for j in range(i + 1, n):
            if not draw(st.booleans()):
                continue
            lb = round(draw(st.floats(min_value=0.0, max_value=min(0.5, max(0.0, budget)))), 2)
            ub = round(min(1.0, lb + draw(st.floats(min_value=0.0, max_value=0.5))), 2)
            if ub <= 0.0:
                continue
            g.add_agreement(Agreement(f"P{i}", f"P{j}", lb, ub))
            budget -= lb
    return g


# Zero queues, queues below the mandatory level (MC is at most 40/window
# here) and queues far above it.
_queue = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=5.0),
                   st.floats(min_value=0.0, max_value=120.0))


@st.composite
def graph_and_queues(draw, windows=1):
    g = draw(agreement_graphs())
    n = len(g.names)
    qs = [np.array([draw(_queue) for _ in range(n)]) for _ in range(windows)]
    return g, qs


def _fresh_community_model(access, q):
    """One window's community LP, built from scratch with idle rows dropped."""
    w = access.per_window(W.length)
    names = access.names
    m = Model("community-fresh")
    theta = m.var("theta", lb=0.0, ub=1.0)
    xs = {
        (i, k): m.var(f"x_{names[i]}_{names[k]}", ub=w.MI[i, k] + w.OI[i, k])
        for i in range(len(names)) for k in range(len(names))
        if w.MI[i, k] + w.OI[i, k] > 1e-12
    }
    rows = {}
    for i in sorted({i for i, _ in xs}):
        rows[i] = total = sum(v for (h, _), v in xs.items() if h == i)
        if q[i] > 1e-12:
            m.add(total >= theta * float(q[i]))
        m.add(total <= float(q[i]))
        guarantee = min(float(q[i]), float(w.MC[i]))
        if guarantee > 1e-12:
            m.add(total >= guarantee)
    for k in sorted({k for _, k in xs}):
        m.add(sum(v for (_, o), v in xs.items() if o == k) <= float(w.V[k]))
    m.maximize(theta)
    return m, theta, rows


class TestCommunityProgram:
    @given(graph_and_queues(windows=3))
    @settings(max_examples=60, deadline=None)
    def test_patched_program_matches_fresh_model_and_oracle(self, world):
        g, qs = world
        access = compute_access_levels(g)
        w = access.per_window(W.length)
        sched = CommunityScheduler(access, W)
        for q in qs:        # later windows solve the *re-patched* program
            plan = sched.schedule(q)
            fresh, theta, rows = _fresh_community_model(access, q)
            ref = solve(fresh)
            assert ref.status is Status.OPTIMAL
            assert plan.theta == pytest.approx(ref.value(theta), abs=1e-9)
            if scipy_available():
                assert solve_scipy(sched.program).objective == pytest.approx(
                    plan.theta, abs=1e-7)
            # Per-principal totals: among alternative optima the two may
            # serve a non-bottleneck principal differently, so the totals
            # are held to the fresh model's rows rather than to its vertex.
            served = plan.x.sum(axis=1)
            for i in rows:
                assert served[i] >= plan.theta * q[i] - 1e-7
                assert served[i] <= q[i] + 1e-7
                assert served[i] >= min(q[i], w.MC[i]) - 1e-7
            assert np.all(plan.x.sum(axis=0) <= w.V + 1e-7)
            assert np.all(plan.x <= w.MI + w.OI + 1e-9)

    def test_idle_principal_keeps_the_shape(self, fig6_graph):
        sched = CommunityScheduler(compute_access_levels(fig6_graph), W)
        shape = sched.program.A.shape
        both = sched.schedule({"A": 27.0, "B": 13.5})
        only_a = sched.schedule({"A": 27.0, "B": 0.0})     # B's rows: 0 <= 0
        assert sched.program.A.shape == shape
        assert only_a.served("B") == 0.0
        assert only_a.served("A") / W.length == pytest.approx(270.0)
        assert both.served("B") / W.length == pytest.approx(135.0)

    def test_pairwise_lower_bounds_are_repatched(self, fig9_graph):
        access = compute_access_levels(fig9_graph)
        sched = CommunityScheduler(access, W, pairwise_lower_bounds=True)
        full = sched.schedule({"A": 80.0, "B": 40.0})
        assert full.assignments("A")["B"] >= 16.0 - 1e-6
        # A's queue at a quarter of its mandatory 48: the pairwise floor
        # scales down with it instead of making the window infeasible.
        small = sched.schedule({"A": 12.0, "B": 40.0})
        assert small.served("A") == pytest.approx(12.0)
        assert small.assignments("A")["B"] >= 4.0 - 1e-6


class TestProviderProgram:
    @given(st.lists(_queue, min_size=2, max_size=2), st.lists(_queue, min_size=2, max_size=2))
    @settings(max_examples=40, deadline=None)
    def test_patched_bounds_match_fresh_model(self, q1, q2):
        g = AgreementGraph()
        g.add_principal("P", capacity=640.0)
        g.add_principal("A")
        g.add_principal("B")
        g.add_agreement(Agreement("P", "A", 0.8, 1.0))
        g.add_agreement(Agreement("P", "B", 0.2, 1.0))
        access = compute_access_levels(g)
        w = access.per_window(W.length)
        prices = {"A": 2.0, "B": 1.0}
        sched = ProviderScheduler(access, prices, window=W)
        for q in (q1, q2):
            demand = dict(zip("AB", q))
            plan = sched.schedule(demand)
            # The per-window formulation: idle customers have no variable.
            m = Model("provider-fresh")
            live = {}
            for name, n_i in demand.items():
                i = access.index(name)
                hi = min(w.MC[i] + w.OC[i], n_i)
                if hi > 1e-12:
                    live[name] = m.var(f"x_{name}", lb=min(w.MC[i], n_i), ub=hi)
            if not live:
                assert plan.total() == 0.0 and plan.income == 0.0
                continue
            m.add(sum(live.values()) <= 64.0)
            m.maximize(sum(
                prices[name] * (v - float(w.MC[access.index(name)]))
                for name, v in live.items()
            ))
            ref = solve(m)
            assert plan.income == pytest.approx(ref.objective, abs=1e-9)
            for name in "AB":
                want = ref.value(live[name]) if name in live else 0.0
                assert plan.admitted(name) == pytest.approx(want, abs=1e-9)
