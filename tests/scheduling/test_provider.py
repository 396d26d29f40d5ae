import pytest

from repro.core.access import compute_access_levels
from repro.core.agreements import Agreement, AgreementGraph
from repro.scheduling.provider import ProviderScheduler
from repro.scheduling.window import WindowConfig

W = WindowConfig(0.1)


def _fig10_access():
    g = AgreementGraph()
    g.add_principal("P", capacity=640.0)
    g.add_principal("A")
    g.add_principal("B")
    g.add_agreement(Agreement("P", "A", 0.8, 1.0))
    g.add_agreement(Agreement("P", "B", 0.2, 1.0))
    return compute_access_levels(g)


@pytest.fixture
def fig10_sched():
    return ProviderScheduler(_fig10_access(), prices={"A": 2.0, "B": 1.0}, window=W)


class TestFig10Arithmetic:
    def test_phase1_high_payer_preferred(self, fig10_sched):
        r = fig10_sched.schedule({"A": 80.0, "B": 40.0})
        assert r.admitted("A") / W.length == pytest.approx(512.0)
        assert r.admitted("B") / W.length == pytest.approx(128.0)

    def test_phase2_b_alone(self, fig10_sched):
        r = fig10_sched.schedule({"A": 0.0, "B": 40.0})
        assert r.admitted("B") / W.length == pytest.approx(400.0)

    def test_phase3_surplus_to_b(self, fig10_sched):
        r = fig10_sched.schedule({"A": 40.0, "B": 40.0})
        assert r.admitted("A") / W.length == pytest.approx(400.0)
        assert r.admitted("B") / W.length == pytest.approx(240.0)

    def test_income_value(self, fig10_sched):
        # Phase 3: income = 2*(40-51.2<0 clamp? A below MC: 2*(40-51.2)) ...
        # income is measured relative to the mandatory levels, so serving A
        # below its MC yields negative contribution and B above MC positive.
        r = fig10_sched.schedule({"A": 40.0, "B": 40.0})
        a_term = 2.0 * (40.0 - 51.2)
        b_term = 1.0 * (24.0 - 12.8)
        assert r.income == pytest.approx(a_term + b_term)


class TestMechanics:
    def test_customers_exclude_capacity_owners(self, fig10_sched):
        assert set(fig10_sched.customers) == {"A", "B"}

    def test_mandatory_floor_respected(self, fig10_sched):
        # B's mandatory floor binds even when A pays more.
        r = fig10_sched.schedule({"A": 200.0, "B": 200.0})
        assert r.admitted("B") >= 12.8 - 1e-9

    def test_total_capacity_respected(self, fig10_sched):
        r = fig10_sched.schedule({"A": 200.0, "B": 200.0})
        assert r.total() <= 64.0 + 1e-9

    def test_zero_price_customer_still_gets_mandatory(self):
        sched = ProviderScheduler(_fig10_access(), prices={"A": 1.0}, window=W)
        r = sched.schedule({"A": 80.0, "B": 80.0})
        assert r.admitted("B") >= 12.8 - 1e-9

    def test_empty_queues(self, fig10_sched):
        r = fig10_sched.schedule({})
        assert r.total() == pytest.approx(0.0)
        assert r.income == pytest.approx(0.0)

    def test_negative_queue_rejected(self, fig10_sched):
        with pytest.raises(ValueError):
            fig10_sched.schedule({"A": -5.0})

    def test_negative_price_rejected(self):
        with pytest.raises(ValueError):
            ProviderScheduler(_fig10_access(), prices={"A": -1.0}, window=W)

    def test_capacity_override(self):
        # Raising the override above the agreement base is fine.
        sched = ProviderScheduler(
            _fig10_access(), prices={"A": 2.0, "B": 1.0}, capacity=800.0, window=W
        )
        r = sched.schedule({"A": 800.0, "B": 800.0})
        assert r.total() == pytest.approx(80.0)

    def test_capacity_below_commitments_raises(self):
        # The provider cannot honour mandatory floors with half the
        # capacity its agreements assume — surfaced as infeasible.
        sched = ProviderScheduler(
            _fig10_access(), prices={"A": 2.0, "B": 1.0}, capacity=320.0, window=W
        )
        with pytest.raises(RuntimeError, match="provider LP"):
            sched.schedule({"A": 80.0, "B": 80.0})

    def test_upper_bound_respected(self):
        g = AgreementGraph()
        g.add_principal("P", capacity=100.0)
        g.add_principal("A")
        g.add_agreement(Agreement("P", "A", 0.1, 0.5))  # ub 50%
        sched = ProviderScheduler(
            compute_access_levels(g), prices={"A": 1.0}, window=W
        )
        r = sched.schedule({"A": 100.0})
        assert r.admitted("A") <= 5.0 + 1e-9  # 50% of 100/s in a 0.1s window

    def test_simplex_backend_agrees(self, fig10_sched):
        from tests.lp.oracle import solve_scipy

        r1 = fig10_sched.schedule({"A": 80.0, "B": 40.0})
        # The oracle on the compiled program, as patched for this window.
        r2 = solve_scipy(fig10_sched.program)
        assert r1.admitted("A") == pytest.approx(r2.x[0], abs=1e-6)
        assert r1.income == pytest.approx(r2.objective, abs=1e-6)
