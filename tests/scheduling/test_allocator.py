"""WindowAllocator: the shared per-node allocation engine."""

import pytest

from repro.coordination.aggregation import VectorAggregate
from repro.coordination.protocol import GlobalView
from repro.core.access import compute_access_levels
from repro.scheduling.allocator import WindowAllocator
from repro.scheduling.window import WindowConfig, roll_ewma

W = WindowConfig(0.1)


class FakeNode:
    """Duck-typed AggregationNode: just carries a view."""

    def __init__(self, view: GlobalView):
        self.view = view


def _view(total, local_then=None, round_id=0):
    return GlobalView(
        aggregate=VectorAggregate(values=dict(total), contributors=2),
        round_id=round_id,
        received_at=0.0,
        local_contribution=(
            VectorAggregate(values=dict(local_then), contributors=1)
            if local_then is not None
            else None
        ),
    )


class TestStandalone:
    def test_local_is_global(self, fig6_graph):
        alloc = WindowAllocator(compute_access_levels(fig6_graph), W)
        a = alloc.compute({"A": 27.0, "B": 13.5})
        assert not a.used_fallback
        assert a.quotas["B"] == pytest.approx(13.5)
        assert a.quotas["A"] == pytest.approx(18.5)

    def test_weights_point_at_server_owner(self, fig6_graph):
        alloc = WindowAllocator(compute_access_levels(fig6_graph), W)
        a = alloc.compute({"A": 27.0, "B": 13.5})
        assert set(a.weights["A"]) == {"S"}


class TestConservativeFallback:
    def test_no_view_uses_one_over_r(self, fig6_graph):
        alloc = WindowAllocator(
            compute_access_levels(fig6_graph), W, n_redirectors=2
        )
        alloc.attach(FakeNode(GlobalView()))  # attached but no broadcast yet
        a = alloc.compute({"B": 13.5})
        assert a.used_fallback
        # Half of B's mandatory 25.6/window = 12.8... capped by demand 13.5.
        assert a.quotas["B"] == pytest.approx(12.8)
        assert alloc.fallback_windows == 1

    def test_fallback_capped_by_demand(self, fig6_graph):
        alloc = WindowAllocator(
            compute_access_levels(fig6_graph), W, n_redirectors=2
        )
        alloc.attach(FakeNode(GlobalView()))
        a = alloc.compute({"B": 3.0})
        assert a.quotas["B"] == pytest.approx(3.0)


class TestSnapshotConsistency:
    def test_substitutes_own_contribution(self, fig6_graph):
        acc = compute_access_levels(fig6_graph)
        alloc = WindowAllocator(acc, W, n_redirectors=2)
        # Broadcast said: global B = 20 of which 15 was ours; now we see 5.
        alloc.attach(FakeNode(_view({"B": 20.0}, local_then={"B": 15.0})))
        est, fb = alloc.global_estimate({"B": 5.0})
        assert not fb
        assert est["B"] == pytest.approx(10.0)  # 20 - 15 + 5

    def test_local_surge_visible_immediately(self, fig6_graph):
        acc = compute_access_levels(fig6_graph)
        alloc = WindowAllocator(acc, W, n_redirectors=2)
        # View knows nothing about A; our local surge must still count.
        alloc.attach(FakeNode(_view({"B": 13.5}, local_then={})))
        est, _ = alloc.global_estimate({"A": 27.0})
        assert est["A"] == pytest.approx(27.0)
        assert est["B"] == pytest.approx(13.5)

    def test_contribution_never_negative(self, fig6_graph):
        acc = compute_access_levels(fig6_graph)
        alloc = WindowAllocator(acc, W)
        alloc.attach(FakeNode(_view({"B": 5.0}, local_then={"B": 9.0})))
        est, _ = alloc.global_estimate({"B": 1.0})
        assert est["B"] == pytest.approx(1.0)  # max(0, 5-9) + 1


class TestLocalScaling:
    def test_quota_proportional_to_local_share(self, fig6_graph):
        acc = compute_access_levels(fig6_graph)
        alloc = WindowAllocator(acc, W, n_redirectors=2)
        # Global B demand 27/window, our local share is 1/3 of it.
        alloc.attach(FakeNode(_view({"B": 27.0}, local_then={"B": 9.0})))
        a = alloc.compute({"B": 9.0})
        # Global x_B = min(27, 25.6+...) = 27 > capacity share...
        # B entitled to its full mandatory; fraction = x/27 applied to 9.
        served_fraction = a.quotas["B"] / 9.0
        assert 0.9 <= served_fraction <= 1.0


class TestExactPlans:
    def test_every_window_is_planned(self, fig6_graph):
        alloc = WindowAllocator(compute_access_levels(fig6_graph), W)
        for _ in range(5):
            alloc.compute({"A": 27.2, "B": 13.4})
        assert alloc.plans_computed == 5

    def test_plan_rescaled_by_fresh_local(self, fig6_graph):
        # Same global estimate, different local share: quotas must differ.
        alloc = WindowAllocator(
            compute_access_levels(fig6_graph), W, n_redirectors=2)
        alloc.attach(FakeNode(_view({"A": 27.0, "B": 13.5},
                                    local_then={"A": 13.5, "B": 13.5})))
        half = alloc.compute({"A": 13.5, "B": 13.5})
        alloc.attach(FakeNode(_view({"A": 27.0, "B": 13.5},
                                    local_then={"A": 27.0, "B": 13.5})))
        whole = alloc.compute({"A": 27.0, "B": 13.5})
        assert half.global_estimate == whole.global_estimate
        assert half.quotas["A"] == pytest.approx(whole.quotas["A"] / 2)

    def test_set_access_replans(self, fig6_graph):
        acc = compute_access_levels(fig6_graph)
        alloc = WindowAllocator(acc, W)
        est = {"A": 27.0, "B": 13.5}
        before = alloc.compute(est)
        alloc.set_access(acc.scaled(0.5))
        after = alloc.compute(est)
        fresh = WindowAllocator(acc.scaled(0.5), W).compute(est)
        assert after.quotas == fresh.quotas != before.quotas

    def test_fig9_phase3_b_gets_its_full_share(self, fig9_graph):
        """Fig 9 phase 3: A's EWMA falls 40.97 -> 40 at 40 arrivals per
        window while B's stays at 40.  A is capped by its own demand, so
        once its estimate settles B gets the rest of the 64 requests per
        window, 24 (240 req/s), exactly; a plan reused from A's 40.97 held
        B at 23.03."""
        alloc = WindowAllocator(compute_access_levels(fig9_graph), W)
        est = {"A": 40.97, "B": 40.0}
        for _ in range(40):
            got = alloc.compute(est)
            roll_ewma(est, {"A": 40.0, "B": 40.0}, 0.7)
        assert est["A"] == 40.0
        assert got.quotas == {"A": 40.0, "B": 24.0}


class TestProviderMode:
    def test_provider_quotas(self):
        from repro.core.agreements import Agreement, AgreementGraph

        g = AgreementGraph()
        g.add_principal("P", capacity=640.0)
        g.add_principal("A")
        g.add_principal("B")
        g.add_agreement(Agreement("P", "A", 0.8, 1.0))
        g.add_agreement(Agreement("P", "B", 0.2, 1.0))
        alloc = WindowAllocator(
            compute_access_levels(g), W, mode="provider",
            prices={"A": 2.0, "B": 1.0},
        )
        a = alloc.compute({"A": 80.0, "B": 40.0})
        assert a.quotas["A"] == pytest.approx(51.2)
        assert a.quotas["B"] == pytest.approx(12.8)

    def test_unknown_mode_rejected(self, fig6_graph):
        with pytest.raises(ValueError):
            WindowAllocator(compute_access_levels(fig6_graph), W, mode="magic")
