import math

import numpy as np
import pytest

from repro.lp.model import LinExpr, Model, ModelError, Sense, Status, Var


class TestLinExpr:
    def test_arithmetic(self):
        m = Model()
        x, y = m.var("x"), m.var("y")
        e = 2 * x + 3 * y - 1
        assert e.coeffs[x] == 2.0
        assert e.coeffs[y] == 3.0
        assert e.const == -1.0

    def test_subtraction_and_negation(self):
        m = Model()
        x, y = m.var("x"), m.var("y")
        e = -(x - y)
        assert e.coeffs[x] == -1.0
        assert e.coeffs[y] == 1.0

    def test_rsub(self):
        m = Model()
        x = m.var("x")
        e = 5 - x
        assert e.const == 5.0
        assert e.coeffs[x] == -1.0

    def test_division(self):
        m = Model()
        x = m.var("x")
        assert (x / 2).coeffs[x] == pytest.approx(0.5)

    def test_sum_builtin(self):
        m = Model()
        xs = [m.var(f"x{i}") for i in range(4)]
        e = sum(xs)
        assert all(e.coeffs[x] == 1.0 for x in xs)

    def test_nonlinear_rejected(self):
        m = Model()
        x, y = m.var("x"), m.var("y")
        with pytest.raises(ModelError):
            _ = x * y  # type: ignore[operator]

    def test_repeated_var_coalesces(self):
        m = Model()
        x = m.var("x")
        e = x + x + 2 * x
        assert e.coeffs[x] == 4.0


class TestConstraints:
    def test_le_ge_eq(self):
        m = Model()
        x = m.var("x")
        c1 = x <= 5
        c2 = x >= 1
        c3 = x + 1 == 3
        assert c1.sense is Sense.LE and c1.rhs == pytest.approx(5.0)
        assert c2.sense is Sense.GE and c2.rhs == pytest.approx(1.0)
        assert c3.sense is Sense.EQ and c3.rhs == pytest.approx(2.0)

    def test_expr_vs_expr(self):
        m = Model()
        x, y = m.var("x"), m.var("y")
        c = x + 1 <= y + 4
        assert c.rhs == pytest.approx(3.0)
        assert c.expr.coeffs[y] == -1.0


class TestModel:
    def test_duplicate_var_rejected(self):
        m = Model()
        m.var("x")
        with pytest.raises(ModelError):
            m.var("x")

    def test_getitem(self):
        m = Model()
        x = m.var("x")
        assert m["x"] is x

    def test_var_bad_bounds(self):
        m = Model()
        with pytest.raises(ModelError):
            m.var("x", lb=2.0, ub=1.0)

    def test_add_non_constraint_rejected(self):
        m = Model()
        m.var("x")
        with pytest.raises(ModelError):
            m.add(True)  # type: ignore[arg-type]

    def test_to_arrays_shapes(self):
        m = Model()
        x, y = m.var("x"), m.var("y", ub=4.0)
        m.add(x + y <= 3)
        m.add(x - y >= -1)
        m.add(x + 2 * y == 2)
        m.maximize(x + y)
        c, A_ub, b_ub, A_eq, b_eq, bounds = m.to_arrays()
        assert c.shape == (2,)
        assert A_ub.shape == (2, 2)   # GE folded into LE
        assert A_eq.shape == (1, 2)
        assert bounds[1] == (0.0, 4.0)
        # maximisation negates the objective for the minimising backends
        np.testing.assert_allclose(c, [-1.0, -1.0])

    def test_solution_value_of_expr(self):
        m = Model()
        x = m.var("x", ub=2.0)
        m.maximize(x)
        from repro.lp import solve

        sol = solve(m)
        assert sol.value(x) == pytest.approx(2.0)
        assert sol.value(2 * x + 1) == pytest.approx(5.0)

    def test_solution_values_by_name(self):
        m = Model()
        x = m.var("x", ub=1.0)
        m.maximize(x)
        from repro.lp import solve

        sol = solve(m)
        assert sol.values() == {"x": pytest.approx(1.0)}

    def test_nonoptimal_solution_has_no_values(self):
        from repro.lp.model import Solution

        s = Solution(status=Status.INFEASIBLE)
        assert not s.optimal
        assert math.isnan(s.objective)
