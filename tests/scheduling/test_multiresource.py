"""Multi-resource community scheduler."""

import numpy as np
import pytest

from repro.core.agreements import Agreement, AgreementGraph
from repro.core.multiresource import compute_multiresource_access
from repro.scheduling.multiresource import MultiResourceCommunityScheduler
from repro.scheduling.window import WindowConfig

W = WindowConfig(0.1)


def _shared_server(cpu=1000.0, net=1000.0, capacity=None):
    """One server S shared half/half between A and B; ``capacity`` maps
    resource type -> units per second and replaces the cpu/net pair."""
    g = AgreementGraph()
    g.add_principal("S")
    g.add_principal("A")
    g.add_principal("B")
    g.add_agreement(Agreement("S", "A", 0.5, 1.0))
    g.add_agreement(Agreement("S", "B", 0.5, 1.0))
    capacity = capacity or {"cpu": cpu, "net": net}
    return compute_multiresource_access(g, {"S": capacity}, tuple(capacity))


class TestScheduling:
    def test_symmetric_profiles_split_evenly(self):
        acc = _shared_server()
        sched = MultiResourceCommunityScheduler(
            acc, {"A": {"cpu": 1.0, "net": 1.0}, "B": {"cpu": 1.0, "net": 1.0}},
            window=W,
        )
        plan = sched.schedule({"A": 100.0, "B": 100.0})
        assert plan.served("A") == pytest.approx(50.0)
        assert plan.served("B") == pytest.approx(50.0)

    def test_complementary_profiles_pack_better(self):
        """A is CPU-bound, B is network-bound: together they exceed what
        either bottleneck alone would allow — the vector LP's win."""
        acc = _shared_server(cpu=1000.0, net=1000.0)
        sched = MultiResourceCommunityScheduler(
            acc,
            {"A": {"cpu": 2.0, "net": 0.1}, "B": {"cpu": 0.1, "net": 2.0}},
            window=W,
        )
        plan = sched.schedule({"A": 1000.0, "B": 1000.0})
        total = plan.served("A") + plan.served("B")
        # Each alone is limited to ~50 req/window by its bottleneck type
        # (100 cpu-units / 2 per request); jointly ~95 req/window fit.
        assert total > 85.0
        # per-type server load within capacity
        profiles = {"A": {"cpu": 2.0, "net": 0.1}, "B": {"cpu": 0.1, "net": 2.0}}
        assert plan.load("S", "cpu", profiles) <= 100.0 + 1e-6
        assert plan.load("S", "net", profiles) <= 100.0 + 1e-6

    def test_guarantee_uses_bottleneck(self):
        acc = _shared_server(cpu=1000.0, net=200.0)
        sched = MultiResourceCommunityScheduler(
            acc, {"A": {"cpu": 1.0, "net": 1.0}, "B": {"cpu": 1.0, "net": 1.0}},
            window=W,
        )
        # A's guarantee: min(50% of 100 cpu, 50% of 20 net) = 10 req/window.
        assert sched.guaranteed_requests("A") == pytest.approx(10.0)
        plan = sched.schedule({"A": 100.0, "B": 100.0})
        assert plan.served("A") >= 10.0 - 1e-6

    def test_guarantee_served_under_contention(self):
        acc = _shared_server()
        sched = MultiResourceCommunityScheduler(
            acc,
            # B's huge requests could starve A without the guarantee.
            {"A": {"cpu": 1.0, "net": 1.0}, "B": {"cpu": 10.0, "net": 10.0}},
            window=W,
        )
        plan = sched.schedule({"A": 200.0, "B": 200.0})
        assert plan.served("A") >= min(200.0, sched.guaranteed_requests("A")) - 1e-6

    @pytest.mark.parametrize("m", [1, 2, 4, 8])
    def test_solvable_for_any_number_of_resource_types(self, m):
        resources = [f"r{i}" for i in range(m)]
        acc = _shared_server(capacity={r: 1000.0 for r in resources})
        profiles = {
            "A": {r: 1.0 + 0.1 * i for i, r in enumerate(resources)},
            "B": {r: 2.0 - 0.1 * i for i, r in enumerate(resources)},
        }
        sched = MultiResourceCommunityScheduler(acc, profiles, window=W)
        assert sched.schedule({"A": 200.0, "B": 200.0}).theta > 0.0

    def test_empty_queues(self):
        acc = _shared_server()
        sched = MultiResourceCommunityScheduler(acc, {}, window=W)
        plan = sched.schedule({})
        assert plan.x.sum() == pytest.approx(0.0)

    def test_negative_queue_rejected(self):
        acc = _shared_server()
        sched = MultiResourceCommunityScheduler(acc, {}, window=W)
        with pytest.raises(ValueError):
            sched.schedule({"A": -1.0})

    def test_default_profile_is_unit(self):
        acc = _shared_server()
        sched = MultiResourceCommunityScheduler(acc, {}, window=W)
        assert sched.profiles["A"] == {"cpu": 1.0, "net": 1.0}

    def test_unknown_resource_in_profile(self):
        acc = _shared_server()
        with pytest.raises(ValueError):
            MultiResourceCommunityScheduler(acc, {"A": {"gpu": 1.0}}, window=W)

    def test_negative_profile_rejected(self):
        acc = _shared_server()
        with pytest.raises(ValueError):
            MultiResourceCommunityScheduler(acc, {"A": {"cpu": -1.0}}, window=W)

    def test_schedule_always_feasible_property(self):
        """Random demands and profiles: the returned schedule never
        violates per-type server capacity, queue limits, or guarantees."""
        from hypothesis import given, settings, strategies as st
        import numpy as np

        acc = _shared_server(cpu=800.0, net=1200.0)

        @given(
            st.floats(min_value=0.0, max_value=500.0),
            st.floats(min_value=0.0, max_value=500.0),
            st.floats(min_value=0.2, max_value=4.0),
            st.floats(min_value=0.2, max_value=4.0),
        )
        @settings(max_examples=40, deadline=None)
        def check(qa, qb, ca, cb):
            profiles = {
                "A": {"cpu": ca, "net": 4.2 - ca},
                "B": {"cpu": cb, "net": 4.2 - cb},
            }
            sched = MultiResourceCommunityScheduler(acc, profiles, window=W)
            plan = sched.schedule({"A": qa, "B": qb})
            for r, cap in (("cpu", 80.0), ("net", 120.0)):
                assert plan.load("S", r, profiles) <= cap + 1e-6
            assert plan.served("A") <= qa + 1e-6
            assert plan.served("B") <= qb + 1e-6
            for p, q in (("A", qa), ("B", qb)):
                guarantee = min(q, sched.guaranteed_requests(p))
                assert plan.served(p) >= guarantee - 1e-6

        check()

    def test_backends_agree(self):
        acc = _shared_server()
        profiles = {"A": {"cpu": 2.0, "net": 0.5}, "B": {"cpu": 0.5, "net": 2.0}}
        from tests.lp.oracle import solve_scipy

        sched = MultiResourceCommunityScheduler(acc, profiles, W)
        s1 = sched.schedule({"A": 80.0, "B": 120.0})
        # The oracle on the compiled program, as patched for this window.
        assert s1.theta == pytest.approx(solve_scipy(sched.program).objective, abs=1e-6)
