"""Community LP scheduler: paper arithmetic plus feasibility properties."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.access import compute_access_levels
from repro.core.agreements import Agreement, AgreementGraph
from repro.scheduling.community import CommunityScheduler
from repro.scheduling.window import WindowConfig

W = WindowConfig(0.1)


@pytest.fixture
def fig6_sched(fig6_graph):
    return CommunityScheduler(compute_access_levels(fig6_graph), W)


@pytest.fixture
def fig9_sched(fig9_graph):
    return CommunityScheduler(compute_access_levels(fig9_graph), W)


class TestPaperArithmetic:
    def test_fig6_phase1(self, fig6_sched):
        s = fig6_sched.schedule({"A": 27.0, "B": 13.5})
        assert s.served("A") / W.length == pytest.approx(185.0)
        assert s.served("B") / W.length == pytest.approx(135.0)

    def test_fig6_phase2_only_a(self, fig6_sched):
        s = fig6_sched.schedule({"A": 27.0, "B": 0.0})
        assert s.served("A") / W.length == pytest.approx(270.0)

    def test_fig7_two_to_one(self, fig6_graph):
        g = AgreementGraph()
        g.add_principal("S", capacity=250.0)
        g.add_principal("A")
        g.add_principal("B")
        g.add_agreement(Agreement("S", "A", 0.2, 1.0))
        g.add_agreement(Agreement("S", "B", 0.2, 1.0))
        sched = CommunityScheduler(compute_access_levels(g), W)
        s = sched.schedule({"A": 27.0, "B": 13.5})
        assert s.served("A") == pytest.approx(2 * s.served("B"))

    def test_fig9_phase1(self, fig9_sched):
        s = fig9_sched.schedule({"A": 80.0, "B": 40.0})
        assert s.served("A") / W.length == pytest.approx(480.0)
        assert s.served("B") / W.length == pytest.approx(160.0)

    def test_fig9_phase3_efficient_placement(self, fig9_sched):
        # A's 400 req/s fits: own server full + 80 from B's; B keeps 240.
        s = fig9_sched.schedule({"A": 40.0, "B": 40.0})
        assert s.served("A") / W.length == pytest.approx(400.0)
        assert s.served("B") / W.length == pytest.approx(240.0)
        # A uses its own server before spilling onto B's.
        assert s.assignments("A")["A"] == pytest.approx(32.0)

    def test_fig1_coordinated(self):
        g = AgreementGraph()
        g.add_principal("S1", capacity=50.0)
        g.add_principal("S2", capacity=50.0)
        g.add_principal("A")
        g.add_principal("B")
        for server in ("S1", "S2"):
            g.add_agreement(Agreement(server, "A", 0.2, 1.0))
            g.add_agreement(Agreement(server, "B", 0.8, 1.0))
        sched = CommunityScheduler(compute_access_levels(g), WindowConfig(1.0))
        s = sched.schedule({"A": 40.0, "B": 80.0})
        assert s.served("A") == pytest.approx(20.0)
        assert s.served("B") == pytest.approx(80.0)


class TestMechanics:
    def test_empty_queues(self, fig6_sched):
        s = fig6_sched.schedule({"A": 0.0, "B": 0.0})
        assert s.x.sum() == pytest.approx(0.0)

    def test_negative_queue_rejected(self, fig6_sched):
        with pytest.raises(ValueError):
            fig6_sched.schedule({"A": -1.0})

    def test_wrong_vector_shape_rejected(self, fig6_sched):
        with pytest.raises(ValueError):
            fig6_sched.schedule(np.array([1.0, 2.0]))

    def test_queue_mapping_vs_array(self, fig6_sched):
        names = fig6_sched.names
        q = {"S": 0.0, "A": 10.0, "B": 5.0}
        arr = np.array([q[n] for n in names])
        s1 = fig6_sched.schedule(q)
        s2 = fig6_sched.schedule(arr)
        np.testing.assert_allclose(s1.x, s2.x)

    def test_locality_caps(self, fig9_sched):
        # A demands 35 (below its mandatory 48, so its guarantee shrinks to
        # 35 and needs only ~3 on B's server); capping B's server at 22
        # then binds B's own optional service without breaking guarantees.
        uncapped = fig9_sched.schedule({"A": 35.0, "B": 40.0})
        assert uncapped.load("B") > 22.0  # the cap below is binding
        s = fig9_sched.schedule(
            {"A": 35.0, "B": 40.0}, locality_caps={"A": np.inf, "B": 22.0}
        )
        assert s.load("B") <= 22.0 + 1e-6
        assert s.served("A") == pytest.approx(35.0)  # guarantee intact

    def test_locality_cap_conflicting_with_guarantee_raises(self, fig9_sched):
        # A cap below A's mandatory entitlement on B's server makes the
        # window infeasible — surfaced, not silently violated.
        with pytest.raises(RuntimeError, match="community LP"):
            fig9_sched.schedule(
                {"A": 80.0, "B": 40.0}, locality_caps={"A": np.inf, "B": 10.0}
            )

    def test_theta_bounded_by_one(self, fig6_sched):
        s = fig6_sched.schedule({"A": 1.0, "B": 1.0})
        assert s.theta == pytest.approx(1.0)

    def test_fractions(self, fig6_sched):
        q = {"A": 27.0, "B": 13.5}
        s = fig6_sched.schedule(q)
        f = s.fractions(q)
        assert 0.0 <= f.min() and f.max() <= 1.0 + 1e-9
        ia = s.names.index("A")
        assert f[ia].sum() == pytest.approx(s.served("A") / 27.0)

    def test_pairwise_lower_bounds_mode(self, fig9_graph):
        # The paper's literal form forces usage of remote entitlements.
        sched = CommunityScheduler(
            compute_access_levels(fig9_graph), W, pairwise_lower_bounds=True
        )
        s = sched.schedule({"A": 80.0, "B": 40.0})
        # A must place its mandatory 16/window on B's server.
        assert s.assignments("A")["B"] >= 16.0 - 1e-6

    def test_disabled_lower_bounds(self, fig6_graph):
        sched = CommunityScheduler(
            compute_access_levels(fig6_graph), W, enforce_lower_bounds=False
        )
        s = sched.schedule({"A": 27.0, "B": 13.5})
        # Without guarantees, theta equalisation splits proportionally.
        assert s.served("A") / 27.0 == pytest.approx(s.served("B") / 13.5, rel=1e-6)

    def test_simplex_backend_agrees_with_scipy(self, fig6_sched):
        from tests.lp.oracle import solve_scipy

        s1 = fig6_sched.schedule({"A": 27.0, "B": 13.5})
        # The oracle on the compiled program, as patched for this window.
        s2 = solve_scipy(fig6_sched.program)
        assert s1.theta == pytest.approx(s2.objective, abs=1e-7)
        np.testing.assert_allclose(s1.solution.x, s2.x, atol=1e-6)


@st.composite
def demand_vectors(draw):
    return {
        "A": draw(st.floats(min_value=0.0, max_value=100.0)),
        "B": draw(st.floats(min_value=0.0, max_value=100.0)),
    }


class TestScheduleProperties:
    @given(demand_vectors())
    @settings(max_examples=60, deadline=None)
    def test_schedule_feasible_fig6(self, q):
        g = AgreementGraph()
        g.add_principal("S", capacity=320.0)
        g.add_principal("A")
        g.add_principal("B")
        g.add_agreement(Agreement("S", "A", 0.2, 1.0))
        g.add_agreement(Agreement("S", "B", 0.8, 1.0))
        acc = compute_access_levels(g)
        sched = CommunityScheduler(acc, W)
        s = sched.schedule({**q, "S": 0.0})
        w = acc.per_window(W.length)
        # server capacity respected
        assert s.x.sum(axis=0).max() <= w.V.max() + 1e-6
        # queue limits respected
        for name in ("A", "B"):
            assert s.served(name) <= q[name] + 1e-6
        # mandatory guarantee: min(demand, MC) always served
        for name in ("A", "B"):
            i = acc.index(name)
            assert s.served(name) >= min(q[name], w.MC[i]) - 1e-6

    @given(demand_vectors())
    @settings(max_examples=60, deadline=None)
    def test_work_conserving_under_overload(self, q):
        g = AgreementGraph()
        g.add_principal("S", capacity=100.0)
        g.add_principal("A")
        g.add_principal("B")
        g.add_agreement(Agreement("S", "A", 0.5, 1.0))
        g.add_agreement(Agreement("S", "B", 0.5, 1.0))
        sched = CommunityScheduler(compute_access_levels(g), W)
        s = sched.schedule({**q, "S": 0.0})
        total_demand = q["A"] + q["B"]
        cap = 100.0 * W.length
        # theta-optimal schedules serve min(demand, capacity) in aggregate
        assert s.x.sum() == pytest.approx(min(total_demand, cap), abs=1e-5)
