"""Bounded-variable revised simplex: unit cases, the pinned tolerance-edge
regressions, and cross-validation against the scipy oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.lp import Model, Status, solve
from repro.lp.oracle import scipy_available, solve_scipy


class TestBasicCases:
    def test_textbook_maximum(self):
        m = Model()
        x, y = m.var("x"), m.var("y", ub=2.0)
        m.add(x + y <= 4)
        m.add(x <= 3)
        m.maximize(x + 2 * y)
        s = solve(m)
        assert s.status is Status.OPTIMAL
        assert s.objective == pytest.approx(6.0)

    def test_pure_bound_flip_problem(self):
        # No constraints at all: the optimum is reached by bound flips only.
        m = Model()
        x = m.var("x", lb=1.0, ub=5.0)
        y = m.var("y", lb=-2.0, ub=3.0)
        m.minimize(x - 2 * y)
        s = solve(m)
        assert s.value(x) == pytest.approx(1.0)
        assert s.value(y) == pytest.approx(3.0)
        assert s.objective == pytest.approx(-5.0)

    def test_equality_constraint(self):
        m = Model()
        x, y = m.var("x"), m.var("y")
        m.add(x + y == 10)
        m.maximize(y - x)
        s = solve(m)
        assert s.value(y) == pytest.approx(10.0)

    def test_infeasible(self):
        m = Model()
        x = m.var("x", lb=5.0)
        m.add(x <= 1)
        m.maximize(x)
        assert solve(m).status is Status.INFEASIBLE

    def test_unbounded(self):
        m = Model()
        x = m.var("x")
        m.maximize(x)
        assert solve(m).status is Status.UNBOUNDED

    def test_free_variables(self):
        m = Model()
        u = m.var("u", lb=-math.inf)
        v = m.var("v", lb=-math.inf, ub=10.0)
        m.add(u + v == 3)
        m.minimize(u - v)
        s = solve(m)
        assert s.objective == pytest.approx(-17.0)

    def test_negative_lower_bounds(self):
        m = Model()
        x = m.var("x", lb=-5.0, ub=-1.0)
        m.add(x >= -3)
        m.minimize(x)
        s = solve(m)
        assert s.value(x) == pytest.approx(-3.0)

    def test_degenerate(self):
        m = Model()
        x = m.var("x", ub=1.0)
        for _ in range(3):
            m.add(x <= 1)
        m.maximize(x)
        assert solve(m).objective == pytest.approx(1.0)

    def test_iteration_limit(self):
        m = Model()
        xs = [m.var(f"x{i}", ub=1.0) for i in range(6)]
        for i in range(5):
            m.add(xs[i] + xs[i + 1] <= 1.5)
        m.maximize(sum(xs))
        s = solve(m, max_iter=1)
        assert s.status is Status.ITERATION_LIMIT

    def test_community_window_lp(self, fig9_graph):
        """The real workload: a compiled community window against the oracle."""
        from repro.core.access import compute_access_levels
        from repro.scheduling.community import CommunityScheduler
        from repro.scheduling.window import WindowConfig

        sched = CommunityScheduler(compute_access_levels(fig9_graph), WindowConfig(0.1))
        s = sched.schedule({"A": 40.0, "B": 40.0})
        oracle = solve_scipy(sched.program)
        assert s.theta == pytest.approx(oracle.objective, abs=1e-6)
        assert s.x.sum() == pytest.approx(oracle.x[1:].sum(), abs=1e-5)


def _lp(bounds, rows, objective):
    """``maximize objective @ x  s.t.  coefs @ x <= rhs`` per row, boxed."""
    m = Model()
    xs = [m.var(f"x{i}", lb=lo, ub=hi) for i, (lo, hi) in enumerate(bounds)]
    for coefs, rhs in rows:
        m.add(sum(c * x for c, x in zip(coefs, xs)) <= rhs)
    m.maximize(sum(c * x for c, x in zip(objective, xs)))
    return m


# Shrunk hypothesis examples on which the solver used to disagree with HiGHS
# (``--hypothesis-seed`` 7, 9, 19, 20 and 23 of the random profile at the
# commit that made it the default).  Each sat on an *absolute* 1e-7 tolerance:
# phase 1 accepted a residual that was small only because the row was, and
# the point handed back lay outside its box.
_INFEASIBLE_EDGES = {
    "tiny-row-wants-x-above-ub": _lp(
        [(0.0, 0.5)], [([-1.0215004561801626e-07], -1.0215004561801626e-07)], [0.0]),
    "rhs-subnormal-below-lb": _lp(
        [(1e-07, 1.0000001)], [([1.0], -2.225073858507e-311)], [0.0]),
    "rhs-1e-25-below-lb": _lp(
        [(1e-07, 1.0000001)], [([1.0], -7.060580611194904e-25)], [0.0]),
    "half-x-below-minus-6e-8": _lp(
        [(0.0, 1.0)], [([0.5], -5.960464477539063e-08)], [0.0]),
    "1e-7-coefficient-lb-1": _lp(
        [(0.0, 1.0), (1.0, 2.0)], [([0.0, 1e-07], -0.0)], [0.0, 0.0]),
}


class TestToleranceEdges:
    @pytest.mark.parametrize("name", sorted(_INFEASIBLE_EDGES))
    def test_relative_infeasibility_detected(self, name):
        model = _INFEASIBLE_EDGES[name]
        assert solve(model).status is Status.INFEASIBLE
        if scipy_available():
            assert solve_scipy(model).status is Status.INFEASIBLE

    def test_tiny_coefficient_still_binds(self):
        # 1e-7 * x1 <= 0 means x1 <= 0.  (HiGHS answers x1 = 0.125: that
        # point's row activity, 1.25e-8, is inside its absolute tolerance.)
        model = _lp([(0.0, 1.0), (0.0, 0.125)], [([0.0, 1e-07], -0.0)], [0.0, 1.0])
        s = solve(model)
        assert s.status is Status.OPTIMAL
        assert s.objective == 0.0

    @pytest.mark.parametrize("model", [
        # Phase 1 must see an improvement of relative size 1 on a row of
        # 1e-61s (x1 starts at -1 and has to move to 0) ...
        _lp([(0.0, 1.0), (-1.0, 0.0)],
            [([0.0, 0.0], -0.0), ([0.0, -1.5708299232293897e-61], -0.0)], [0.0, 1.0]),
        # ... and undo a pivot that left a 1e-12-coefficient row violated
        # by 1e-12 (x0 must come back from 1 to 0).
        _lp([(0.0, 1.0), (0.0, 1.0)],
            [([1e-12, 0.0], -7.562175876342652e-173), ([0.0, 0.0], -0.0),
             ([1.0, 0.0], 1.0)], [0.0, 0.0]),
    ], ids=["1e-61-row", "1e-12-row"])
    def test_phase_one_prices_rows_by_their_own_scale(self, model):
        s = solve(model)
        assert s.status is Status.OPTIMAL
        assert list(s.x) == [0.0, 0.0]

    def test_returned_point_is_clipped_into_its_box(self):
        # x0 <= -5e-10 with x0 >= 0 is feasible to the relative tolerance;
        # the basic value -5e-10 must not leak out below the lower bound.
        s = solve(_lp([(0.0, 1.0)], [([1.0], -5e-10)], [1.0]))
        assert s.status is Status.OPTIMAL
        assert s.x[0] == 0.0


@st.composite
def boxed_lp(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    m_rows = draw(st.integers(min_value=0, max_value=5))
    model = Model()
    xs = []
    for i in range(n):
        lo = draw(st.floats(min_value=-4.0, max_value=2.0))
        hi = lo + draw(st.floats(min_value=0.1, max_value=6.0))
        xs.append(model.var(f"x{i}", lb=lo, ub=hi))
    for _ in range(m_rows):
        coefs = [draw(st.floats(min_value=-2.0, max_value=2.0)) for _ in range(n)]
        rhs = draw(st.floats(min_value=-4.0, max_value=8.0))
        model.add(sum(c * x for c, x in zip(coefs, xs)) <= rhs)
    model.maximize(
        sum(draw(st.floats(min_value=-3.0, max_value=3.0)) * x for x in xs)
    )
    return model


def _breaks_relative_tolerance(model, x, tol=1e-9):
    """Does ``x`` violate a row or bound by more than ``tol`` of that row's /
    bound's own magnitude — the bounded simplex's feasibility standard?"""
    _c, A_ub, b_ub, _A_eq, _b_eq, bounds = model.to_arrays()
    if A_ub.size:
        scale = np.maximum(np.abs(A_ub).max(axis=1), np.abs(b_ub))
        if np.any(A_ub @ x - b_ub > tol * scale):
            return True
    return any(
        xi < lo - tol * max(1.0, abs(lo)) or xi > hi + tol * max(1.0, abs(hi))
        for xi, (lo, hi) in zip(x, bounds)
    )


@pytest.mark.skipif(not scipy_available(), reason="scipy missing")
class TestCrossValidation:
    @given(boxed_lp())
    @settings(max_examples=200, deadline=None)
    def test_matches_scipy_on_boxed_lps(self, model):
        s1 = solve(model)
        s2 = solve_scipy(model)
        if s2.status is Status.OPTIMAL and _breaks_relative_tolerance(model, s2.x):
            # HiGHS holds rows to 1e-7 *absolute*; where its point only
            # exists inside that slack the two answer different questions
            # (see TestToleranceEdges.test_tiny_coefficient_still_binds).
            return
        assert s1.status == s2.status
        if s1.status is Status.OPTIMAL:
            scale = max(1.0, abs(s2.objective))
            assert abs(s1.objective - s2.objective) <= 1e-6 * scale

    @given(boxed_lp())
    @settings(max_examples=80, deadline=None)
    def test_solution_feasible(self, model):
        s = solve(model)
        if s.status is not Status.OPTIMAL:
            return
        c, A_ub, b_ub, A_eq, b_eq, bounds = model.to_arrays()
        x = s.x
        if A_ub.size:
            assert (A_ub @ x <= b_ub + 1e-6).all()
        for xi, (lo, hi) in zip(x, bounds):
            assert lo <= xi <= hi          # clipped: inside the box exactly
