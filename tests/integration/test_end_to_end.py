"""Cross-stack integration tests beyond the paper's figures."""

import numpy as np
import pytest

from repro.cluster.workload import ReplySizeSampler, RequestMix
from repro.core.agreements import Agreement, AgreementGraph
from repro.experiments.harness import Scenario
from repro.scheduling.window import WindowConfig


def _transitive_graph():
    """A -> B -> C transitive chain with real capacities (Fig 3 shape,
    scaled to server rates)."""
    g = AgreementGraph()
    g.add_principal("A", capacity=100.0)
    g.add_principal("B", capacity=150.0)
    g.add_principal("C", capacity=0.0)
    g.add_agreement(Agreement("A", "B", 0.4, 0.6))
    g.add_agreement(Agreement("B", "C", 0.6, 1.0))
    return g


class TestTransitiveAgreementsEndToEnd:
    def test_c_reaches_transitive_entitlement(self):
        """C owns no servers at all, yet must receive its transitive
        mandatory level (114 req/s) computed through two agreements."""
        sc = Scenario(_transitive_graph(), seed=5)
        sa = sc.server("SA", "A", 100.0)
        sb = sc.server("SB", "B", 150.0)
        r1 = sc.l7("R1", {"A": sa, "B": sb})
        # Everyone floods: contention forces enforcement to matter.
        sc.client("CA", "A", r1, rate=200.0)
        sc.client("CB", "B", r1, rate=200.0)
        sc.client("CC", "C", r1, rate=200.0)
        sc.run(30.0)
        c_rate = sc.meter.mean_rate("C", 10.0, 30.0)
        # MC_C = 1140/1900 scaled: with V=(100,150): M_B = 190,
        # MC_C = 0.6*190 = 114.
        assert c_rate == pytest.approx(114.0, rel=0.1)

    def test_unused_entitlement_flows_back(self):
        """When C is idle its reservation is reusable by A and B — the
        paper's 'resources reserved for j can be used by others'."""
        sc = Scenario(_transitive_graph(), seed=6)
        sa = sc.server("SA", "A", 100.0)
        sb = sc.server("SB", "B", 150.0)
        r1 = sc.l7("R1", {"A": sa, "B": sb})
        sc.client("CA", "A", r1, rate=200.0)
        sc.client("CB", "B", r1, rate=200.0)
        sc.run(30.0)
        total = sc.meter.mean_rate("A", 10.0, 30.0) + sc.meter.mean_rate(
            "B", 10.0, 30.0
        )
        assert total == pytest.approx(250.0, rel=0.08)  # full capacity used


class TestMixedLayerDeployment:
    def test_l7_and_l4_share_one_tree(self, fig6_graph):
        """An L7 redirector and an L4 switch coordinating over the same
        combining tree enforce the aggregate agreement together."""
        sc = Scenario(fig6_graph, seed=7)
        srv = sc.server("S", "S", 320.0)
        r7 = sc.l7("R7", {"S": srv}, n_redirectors=2)
        s4 = sc.l4("R4", {"S": srv}, n_redirectors=2)
        sc.connect_tree(link_delay=0.005)
        # A arrives through the L7 node, B through the L4 node.
        sc.client("CA1", "A", r7, rate=135.0)
        sc.client("CA2", "A", r7, rate=135.0)
        sc.client("CB", "B", s4, rate=135.0)
        sc.run(40.0)
        a = sc.meter.mean_rate("A", 15.0, 40.0)
        b = sc.meter.mean_rate("B", 15.0, 40.0)
        # Same Fig 6 arithmetic: B fully served, A takes the remainder.
        assert b == pytest.approx(135.0, rel=0.1)
        assert a == pytest.approx(185.0, rel=0.1)


class TestCapacityChange:
    def test_server_degradation_reinterprets_agreements(self, fig9_graph):
        """B's server degrades to half capacity mid-run; the dynamic
        manager recomputes access levels (§2.2: 'changes in a principal's
        resource levels affect the amount available to others') and both
        principals' rates adjust to the new arithmetic."""
        from repro.core.dynamic import DynamicAccessManager

        mgr = DynamicAccessManager(fig9_graph)
        sc = Scenario(fig9_graph, seed=13)
        sa = sc.server("SA", "A", 320.0)
        sb = sc.server("SB", "B", 320.0)
        red = sc.l7("R", {"A": sa, "B": sb})
        mgr.subscribe(red.set_access)
        sc.client("CA", "A", red, rate=800.0)
        sc.client("CB", "B", red, rate=400.0)

        def degrade():
            sb.set_capacity(160.0)
            mgr.set_capacity("B", 160.0)

        sc.sim.schedule(20.0, degrade)
        sc.run(40.0)
        # Before: A 480 (own 320 + half of B's 320), B 160.
        assert sc.meter.mean_rate("A", 8.0, 20.0) == pytest.approx(480.0, rel=0.08)
        assert sc.meter.mean_rate("B", 8.0, 20.0) == pytest.approx(160.0, rel=0.1)
        # After: B's 160 splits 80/80; A 320+80=400, B 80.
        assert sc.meter.mean_rate("A", 26.0, 40.0) == pytest.approx(400.0, rel=0.08)
        assert sc.meter.mean_rate("B", 26.0, 40.0) == pytest.approx(80.0, rel=0.15)


class TestRedirectorFailure:
    def test_survivors_unaffected_by_dead_peer(self, fig6_graph):
        """A redirector that stops participating (crash) must not stall the
        combining tree: the root's flush forwards partial rounds and the
        surviving redirectors keep enforcing on the demand they can see."""
        sc = Scenario(fig6_graph, seed=12)
        srv = sc.server("S", "S", 320.0)
        r1 = sc.l7("R1", {"S": srv}, n_redirectors=3)
        r2 = sc.l7("R2", {"S": srv}, n_redirectors=3)
        r3 = sc.l7("R3", {"S": srv}, n_redirectors=3)
        sc.connect_tree(link_delay=0.005, extra_root=True)
        sc.client("CA", "A", r1, rate=270.0)
        sc.client("CB", "B", r2, rate=135.0)
        # R3 carries part of A's load until it "crashes" at t=15: its
        # clients vanish with it, and its protocol node goes silent.
        sc.client("CA3", "A", r3, rate=135.0, windows=[(0.0, 15.0)])

        def crash():
            node = sc.protocol_nodes["R3"]
            node.up_link = None                  # stops reporting
            node.local_supplier = lambda: {}     # and contributes nothing

        sc.sim.schedule(15.0, crash)
        sc.run(40.0)
        # After the crash, B (still under its guarantee) is unaffected and
        # A's surviving redirector absorbs the freed capacity.
        b_after = sc.meter.mean_rate("B", 20.0, 40.0)
        a_after = sc.meter.mean_rate("A", 20.0, 40.0)
        assert b_after == pytest.approx(135.0, rel=0.1)
        assert a_after == pytest.approx(185.0, rel=0.1)


class TestManyRedirectors:
    @pytest.mark.slow
    def test_eight_redirectors_converge(self, fig6_graph):
        """Aggregate enforcement holds when demand is spread over eight
        redirector nodes in a fanout-2 combining tree."""
        sc = Scenario(fig6_graph, seed=8)
        srv = sc.server("S", "S", 320.0)
        reds = [
            sc.l7(f"R{i}", {"S": srv}, n_redirectors=8) for i in range(8)
        ]
        sc.connect_tree(link_delay=0.002, kind="balanced", fanout=2)
        # A's 270 req/s spread over 6 nodes; B's 135 over 2 nodes.
        for i in range(6):
            sc.client(f"CA{i}", "A", reds[i], rate=45.0)
        sc.client("CB0", "B", reds[6], rate=67.5)
        sc.client("CB1", "B", reds[7], rate=67.5)
        sc.run(40.0)
        a = sc.meter.mean_rate("A", 15.0, 40.0)
        b = sc.meter.mean_rate("B", 15.0, 40.0)
        assert b == pytest.approx(135.0, rel=0.1)
        assert a == pytest.approx(185.0, rel=0.1)


class TestCrossLayerEquivalence:
    def test_fig10_provider_through_l7(self):
        """The provider-income policy is layer-agnostic: running the Fig 10
        scenario through the L7 redirector (not the paper's L4 switch)
        yields the same phase-1 split (A 512, B 128)."""
        g = AgreementGraph()
        g.add_principal("P", capacity=640.0)
        g.add_principal("A")
        g.add_principal("B")
        g.add_agreement(Agreement("P", "A", 0.8, 1.0))
        g.add_agreement(Agreement("P", "B", 0.2, 1.0))
        sc = Scenario(g, seed=11)
        s1 = sc.server("S1", "P", 320.0)
        s2 = sc.server("S2", "P", 320.0)
        red = sc.l7(
            "R", {"P": [s1, s2]}, mode="provider", prices={"A": 2.0, "B": 1.0},
        )
        sc.client("C1", "A", red, rate=400.0)
        sc.client("C2", "A", red, rate=400.0)
        sc.client("C3", "B", red, rate=400.0)
        sc.run(25.0)
        a = sc.meter.mean_rate("A", 8.0, 25.0)
        b = sc.meter.mean_rate("B", 8.0, 25.0)
        assert a == pytest.approx(512.0, rel=0.08)
        assert b == pytest.approx(128.0, rel=0.1)
        # Both provider servers share the load (capacity-weighted WRR).
        s1_rate = sc.meter.mean_rate("server:S1", 8.0, 25.0)
        s2_rate = sc.meter.mean_rate("server:S2", 8.0, 25.0)
        assert s1_rate == pytest.approx(s2_rate, rel=0.1)


class TestWindowSizeRobustness:
    @pytest.mark.parametrize("window_len", [0.05, 0.1, 0.2, 0.25, 0.5])
    def test_enforcement_insensitive_to_window(self, fig6_graph, window_len):
        sc = Scenario(fig6_graph, window=WindowConfig(window_len), seed=9)
        srv = sc.server("S", "S", 320.0)
        r1 = sc.l7("R1", {"S": srv})
        sc.client("CA", "A", r1, rate=270.0)
        sc.client("CB", "B", r1, rate=135.0)
        sc.run(25.0)
        b = sc.meter.mean_rate("B", 10.0, 25.0)
        assert b == pytest.approx(135.0, rel=0.12)

    def test_long_window_reacts_no_faster(self, fig6_graph):
        """A 1 s window still enforces the steady share, but B's ramp-up in
        the 5 s after it starts is no faster than under 100 ms windows."""
        ramp = {}
        for window_len in (0.1, 1.0):
            sc = Scenario(fig6_graph.copy(), window=WindowConfig(window_len),
                          seed=5)
            srv = sc.server("S", "S", 320.0)
            red = sc.l7("R", {"S": srv})
            sc.client("CA", "A", red, rate=270.0)
            sc.client("CB", "B", red, rate=135.0, windows=[(10.0, 30.0)])
            sc.run(30.0)
            ramp[window_len] = sc.meter.mean_rate("B", 10.0, 15.0)
        assert ramp[0.1] >= ramp[1.0] - 5.0


class TestSizeProportionalCosts:
    def test_unit_enforcement_with_mixed_sizes(self):
        """§4: "large requests are treated as multiple small ones".  A 50/50
        agreement holds in scheduling units, so a principal sending ~3-unit
        requests gets far fewer of them through than one sending 1-unit
        requests."""
        g = AgreementGraph()
        g.add_principal("S", capacity=320.0)
        g.add_principal("A")
        g.add_principal("B")
        g.add_agreement(Agreement("S", "A", 0.5, 1.0))
        g.add_agreement(Agreement("S", "B", 0.5, 1.0))
        sc = Scenario(g, seed=9)
        srv = sc.server("S", "S", 320.0)
        red = sc.l7("R", {"S": srv})
        bulky = RequestMix(
            size_cost=True,
            sampler=ReplySizeSampler(mean_bytes=18_000.0, min_bytes=6_000,
                                     max_bytes=120_000),
            unit_bytes=6144.0,
        )
        sc.client("CA", "A", red, rate=400.0, mix=bulky)
        sc.client("CB", "B", red, rate=400.0, mix=RequestMix(size_cost=False))
        sc.run(20.0)
        rate = {key: sc.meter.mean_rate(key, 8.0, 20.0)
                for key in ("A", "B", "units:A", "units:B")}
        assert rate["units:A"] == pytest.approx(160.0, rel=0.12)
        assert rate["units:B"] == pytest.approx(160.0, rel=0.12)
        assert rate["A"] < 0.5 * rate["B"]


def _closed_loop_response_times(mode, prices=None):
    """Mean response time per principal for two symmetric closed-loop
    principals sharing a 200 req/s server under ``mode``'s objective."""
    g = AgreementGraph()
    g.add_principal("S", capacity=200.0)
    g.add_principal("A")
    g.add_principal("B")
    g.add_agreement(Agreement("S", "A", 0.1, 1.0))
    g.add_agreement(Agreement("S", "B", 0.1, 1.0))
    sc = Scenario(g, seed=8)
    srv = sc.server("S", "S", 200.0)
    red = sc.l7("R", {"S": srv}, mode=mode, prices=prices)
    clients = {
        p: sc.client(f"C{p}", p, red, rate=400.0, mode="closed", users=24,
                     retry_delay=0.1)
        for p in ("A", "B")
    }
    sc.run(25.0)
    out = {}
    for p, c in clients.items():
        rts = np.array(c.response_times[len(c.response_times) // 3:])
        out[p] = float(rts.mean()) if rts.size else np.inf
    return out


class TestObjectiveSemantics:
    def test_community_minimises_max_response_time(self):
        """The community LP's max-min served fraction is the paper's
        "minimise the maximum response time": symmetric principals see
        symmetric response times, and a provider objective favouring A
        raises the community-wide worst case."""
        community = _closed_loop_response_times("community")
        skewed = _closed_loop_response_times(
            "provider", prices={"A": 5.0, "B": 1.0})
        assert community["A"] == pytest.approx(community["B"], rel=0.4)
        assert max(community.values()) < max(skewed.values())
