"""The in-repo simplex through ``repro.lp.solve``: unit cases plus hypothesis
cross-validation against the scipy oracle on random upper-bounded LPs.

These cases were written for the row-based tableau simplex; with that solver
deleted they hold the bounded simplex — the one production solver — to the
same behaviour (``test_bounded_simplex.py`` adds the box-bound specifics).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.lp import Model, Program, Status, solve
from repro.lp.bounded_simplex import bounded_simplex
from tests.lp.oracle import scipy_available, solve_scipy


class TestBasicCases:
    def test_textbook_maximum(self):
        m = Model()
        x, y = m.var("x"), m.var("y", ub=2.0)
        m.add(x + y <= 4)
        m.add(x <= 3)
        m.maximize(x + 2 * y)
        s = solve(m)
        assert s.status is Status.OPTIMAL
        assert s.objective == pytest.approx(6.0)  # x=2, y=2

    def test_minimization(self):
        m = Model()
        x = m.var("x", lb=1.0)
        y = m.var("y", lb=2.0)
        m.add(x + y >= 5)
        m.minimize(3 * x + y)
        s = solve(m)
        assert s.objective == pytest.approx(7.0)  # x=1, y=4

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
        assert s.status is Status.OPTIMAL
        assert s.objective == pytest.approx(-17.0)  # v=10, u=-7

    def test_upper_bounded_only_var(self):
        m = Model()
        x = m.var("x", lb=-math.inf, ub=5.0)
        m.add(x >= -2)
        m.minimize(x)
        s = solve(m)
        assert s.value(x) == pytest.approx(-2.0)

    def test_degenerate_redundant_constraints(self):
        m = Model()
        x = m.var("x", ub=1.0)
        for _ in range(3):
            m.add(x <= 1)
        m.add(x + 0 * m.var("y") == 1)
        m.maximize(x)
        s = solve(m)
        assert s.objective == pytest.approx(1.0)

    def test_zero_objective(self):
        m = Model()
        x = m.var("x", ub=3.0)
        m.add(x >= 1)
        m.maximize(0 * x)
        s = solve(m)
        assert s.status is Status.OPTIMAL
        assert 1.0 - 1e-9 <= s.value(x) <= 3.0 + 1e-9

    def test_iteration_limit(self):
        m = Model()
        xs = [m.var(f"x{i}", ub=1.0) for i in range(8)]
        for i in range(7):
            m.add(xs[i] + xs[i + 1] <= 1.5)
        m.maximize(sum(xs))
        s = solve(m, max_iter=1)
        assert s.status is Status.ITERATION_LIMIT

    def test_arrays_entrypoint(self):
        res = bounded_simplex(Program(
            c=np.array([-1.0]),
            A_ub=np.array([[1.0]]),
            b_ub=np.array([4.0]),
            A_eq=np.zeros((0, 1)),
            b_eq=np.zeros(0),
            bounds=[(0.0, math.inf)],
        ))
        assert res.status is Status.OPTIMAL
        assert res.x[0] == pytest.approx(4.0)


@st.composite
def random_lp(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    m_rows = draw(st.integers(min_value=1, max_value=5))
    model = Model()
    f = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
    xs = [
        model.var(f"x{i}", ub=draw(st.floats(min_value=0.5, max_value=8.0)))
        for i in range(n)
    ]
    for _ in range(m_rows):
        coefs = [draw(f) for _ in range(n)]
        rhs = draw(st.floats(min_value=0.5, max_value=10.0))
        model.add(sum(c * x for c, x in zip(coefs, xs)) <= rhs)
    model.maximize(
        sum(draw(st.floats(min_value=0.0, max_value=3.0)) * x for x in xs)
    )
    return model


@pytest.mark.skipif(not scipy_available(), reason="scipy missing")
class TestCrossValidation:
    @given(random_lp())
    @settings(max_examples=150, deadline=None)
    def test_matches_scipy(self, model):
        s1 = solve(model)
        s2 = solve_scipy(model)
        assert s1.status == s2.status
        if s1.status is Status.OPTIMAL:
            scale = max(1.0, abs(s2.objective))
            assert abs(s1.objective - s2.objective) <= 1e-6 * scale

    @given(random_lp())
    @settings(max_examples=60, deadline=None)
    def test_solution_is_feasible(self, model):
        s = solve(model)
        if s.status is not Status.OPTIMAL:
            return
        c, A_ub, b_ub, A_eq, b_eq, bounds = model.to_arrays()
        x = s.x
        if A_ub.size:
            assert (A_ub @ x <= b_ub + 1e-7).all()
        for xi, (lo, hi) in zip(x, bounds):
            assert lo - 1e-7 <= xi <= hi + 1e-7
