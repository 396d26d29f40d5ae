"""LP-format writer/reader round-trip."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.lp import Model, Status, solve
from repro.lp.lpwrite import read_lp, write_lp


def _toy():
    m = Model()
    x = m.var("x", ub=3.0)
    y = m.var("y", lb=-2.0, ub=2.0)
    z = m.var("z", lb=-math.inf)
    m.add(x + 2 * y <= 4, name="cap")
    m.add(x - y >= -1)
    m.add(x + y + z == 2)
    m.maximize(2 * x + y - 0.5 * z)
    return m


class TestWrite:
    def test_sections_present(self):
        text = write_lp(_toy())
        for token in ("Maximize", "Subject To", "Bounds", "End", "cap:"):
            assert token in text

    def test_free_variable_marked(self):
        assert "z free" in write_lp(_toy())

    def test_minimize_header(self):
        m = Model()
        x = m.var("x", ub=1.0)
        m.minimize(x)
        assert write_lp(m).startswith("Minimize")

    def test_empty_objective(self):
        m = Model()
        m.var("x", ub=1.0)
        assert "obj: 0" in write_lp(m)


class TestRoundTrip:
    def test_toy_roundtrip_solves_identically(self):
        m1 = _toy()
        m2 = read_lp(write_lp(m1))
        s1 = solve(m1)
        s2 = solve(m2)
        assert s1.status == s2.status
        assert s1.objective == pytest.approx(s2.objective, abs=1e-9)

    def test_scheduler_lp_roundtrip(self, fig9_graph):
        """The real community window LP survives the round trip."""
        from repro.core.access import compute_access_levels
        from repro.lp.model import Model as M

        # Rebuild the window model by hand via the scheduler's pieces is
        # complex; instead serialise a model with the same structure.
        acc = compute_access_levels(fig9_graph)
        m = M("community")
        theta = m.var("theta", ub=1.0)
        xs = {}
        w = acc.per_window(0.1)
        for i, p in enumerate(acc.names):
            for k, q in enumerate(acc.names):
                hi = float(w.MI[i, k] + w.OI[i, k])
                if hi > 0:
                    xs[(p, q)] = m.var(f"x_{p}_{q}", ub=hi)
        for p in acc.names:
            row = [v for (a, _), v in xs.items() if a == p]
            if row:
                m.add(sum(row) >= 8.0 * theta)
                m.add(sum(row) <= 40.0)
        m.maximize(theta)
        m2 = read_lp(write_lp(m))
        s1, s2 = solve(m), solve(m2)
        assert s1.objective == pytest.approx(s2.objective, abs=1e-9)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-3, max_value=3),
                st.floats(min_value=-3, max_value=3),
                st.floats(min_value=-5, max_value=5),
            ),
            min_size=1, max_size=5,
        ),
        st.lists(st.floats(min_value=0.5, max_value=6.0), min_size=2, max_size=2),
        st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=2, max_size=2),
    )
    @settings(max_examples=80, deadline=None)
    def test_random_roundtrip_property(self, rows, ubs, objs):
        m = Model()
        x = m.var("x0", ub=ubs[0])
        y = m.var("x1", lb=-1.0, ub=ubs[1])
        for (a, b, rhs) in rows:
            m.add(a * x + b * y <= rhs)
        m.maximize(objs[0] * x + objs[1] * y)
        m2 = read_lp(write_lp(m))
        s1 = solve(m)
        s2 = solve(m2)
        assert s1.status == s2.status
        if s1.status is Status.OPTIMAL:
            assert s1.objective == pytest.approx(s2.objective, abs=1e-7)


class TestReadErrors:
    def test_missing_relation(self):
        bad = "Maximize\n obj: x\nSubject To\n c0: x 4\nEnd\n"
        with pytest.raises(Exception):
            read_lp(bad)

    def test_unparseable_bound(self):
        bad = "Maximize\n obj: x\nSubject To\n c0: x <= 4\nBounds\n what??\nEnd\n"
        with pytest.raises(Exception):
            read_lp(bad)
