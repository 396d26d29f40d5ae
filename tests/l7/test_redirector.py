"""Simulated L7 redirector unit/behaviour tests."""

import numpy as np
import pytest

from repro.cluster.client import ClientMachine, Defer, Drop, Held, Redirect
from repro.cluster.request import Request
from repro.cluster.server import Server
from repro.core.access import compute_access_levels
from repro.core.agreements import Agreement, AgreementGraph
from repro.experiments.harness import Scenario
from repro.l7.redirector import L7Redirector
from repro.scheduling.window import WindowConfig
from repro.sim.engine import Simulator

W = WindowConfig(0.1)


def _world(fig6_graph, **kw):
    sim = Simulator()
    acc = compute_access_levels(fig6_graph)
    srv = Server(sim, "S", 320.0, owner="S")
    red = L7Redirector(sim, "R", acc, {"S": srv}, window=W, **kw)
    return sim, acc, srv, red


def _req(principal, t=0.0):
    return Request(principal=principal, client_id="C", created_at=t)


class TestAdmission:
    def test_unknown_principal_dropped(self, fig6_graph):
        sim, _, _, red = _world(fig6_graph)
        assert isinstance(red.handle(_req("nobody")), Drop)

    def test_first_window_defers_then_admits(self, fig6_graph):
        sim, _, srv, red = _world(fig6_graph)
        # Before any window has completed there is no quota: defer.
        assert isinstance(red.handle(_req("A")), Defer)
        # After windows pass with observed demand, quota appears.
        def offer():
            while True:
                red.handle(_req("A", sim.now))
                yield 0.01
        sim.process(offer())
        sim.run(until=1.0)
        assert red.admitted["A"] > 0

    def test_admitted_requests_redirected_to_server(self, fig6_graph):
        sim, _, srv, red = _world(fig6_graph)
        decisions = []
        def offer():
            while True:
                decisions.append(red.handle(_req("A", sim.now)))
                yield 0.02
        sim.process(offer())
        sim.run(until=2.0)
        redirects = [d for d in decisions if isinstance(d, Redirect)]
        assert redirects and all(d.server is srv for d in redirects)

    def test_demand_estimate_tracks_arrivals(self, fig6_graph):
        sim, _, _, red = _world(fig6_graph)
        def offer():
            while sim.now < 1.0:
                red.handle(_req("A", sim.now))
                yield 0.01          # 100/s -> 10/window
        sim.process(offer())
        sim.run(until=1.0)
        assert red.demand_estimate["A"] == pytest.approx(10.0, rel=0.2)

    def test_quota_enforced_under_overload(self, fig6_graph):
        sim, _, srv, red = _world(fig6_graph)
        # B [0.8,1] gets everything it asks; A limited by B's usage.
        meter = {"A": 0, "B": 0}
        def offer(p, gap):
            while True:
                d = red.handle(_req(p, sim.now))
                if isinstance(d, Redirect):
                    meter[p] += 1
                yield gap
        sim.process(offer("A", 1 / 500.0))   # A floods at 500/s
        sim.process(offer("B", 1 / 200.0))   # B offers 200/s
        sim.run(until=5.0)
        a_rate = meter["A"] / 5.0
        b_rate = meter["B"] / 5.0
        assert b_rate == pytest.approx(200.0, rel=0.1)   # fully served
        assert a_rate == pytest.approx(120.0, rel=0.2)   # remainder


class TestExplicitQueuing:
    def test_held_and_released(self, fig6_graph):
        sim, _, srv, red = _world(fig6_graph, queuing="explicit")
        done = []
        d = red.handle(_req("A"), done=lambda r: done.append(sim.now))
        assert isinstance(d, Held)
        assert red.queue_lengths()["A"] == 1
        sim.run(until=1.0)
        assert done                      # released in a later window
        assert red.admitted["A"] == 1

    def test_bounded_held_queue(self, fig6_graph):
        sim, _, _, red = _world(fig6_graph, queuing="explicit", max_held=3)
        decisions = [red.handle(_req("A")) for _ in range(5)]
        assert [type(d) for d in decisions] == [Held, Held, Held, Drop, Drop]

    def test_release_happens_at_window_boundary(self, fig6_graph):
        sim, _, srv, red = _world(fig6_graph, queuing="explicit")
        release_times = []
        for _ in range(4):
            red.handle(_req("A"), done=lambda r: release_times.append(r.completed_at))
        sim.run(until=1.0)
        assert len(release_times) == 4


def _closed_loop_rate(queuing, users):
    """Served rate of ``users`` closed-loop users against a 320 req/s server
    behind one redirector in ``queuing`` mode (the §4.1 experiment)."""
    g = AgreementGraph()
    g.add_principal("S", capacity=320.0)
    g.add_principal("A")
    g.add_agreement(Agreement("S", "A", 0.2, 1.0))
    sc = Scenario(g, seed=3)
    srv = sc.server("S", "S", 320.0)
    red = sc.l7("R", {"S": srv}, queuing=queuing)
    sc.client("C", "A", red, rate=1000.0, mode="closed", users=users,
              retry_delay=0.05)
    sc.run(15.0)
    return sc.meter.mean_rate("A", 5.0, 15.0)


class TestBunchingAnomaly:
    """§4.1: window-boundary releases bunch requests, so closed-loop
    clients of explicit queuing spend most of each window waiting at the
    redirector; implicit quotas remove the hold time."""

    @pytest.mark.parametrize("users", [4, 8, 16])
    def test_implicit_saturates_where_explicit_does_not(self, users):
        implicit = _closed_loop_rate("implicit", users)
        explicit = _closed_loop_rate("explicit", users)
        assert implicit >= 300.0
        assert explicit < 0.7 * implicit

    def test_explicit_needs_many_more_clients_to_saturate(self):
        assert _closed_loop_rate("explicit", 4) < 100.0
        assert _closed_loop_rate("explicit", 32) > 250.0


class TestCreditAdmission:
    def test_credit_engine_matches_quota_rates(self, fig6_graph):
        """The credit-based engine enforces the same LP allocation as the
        windowed quota (paper §6's 'alternative credit-based
        implementation')."""
        import numpy as np
        from repro.cluster.client import ClientMachine

        def run(queuing):
            sim = Simulator()
            acc = compute_access_levels(fig6_graph)
            completions = {"A": 0, "B": 0}
            srv = Server(
                sim, "S", 320.0, owner="S",
                on_complete=lambda r, s: completions.__setitem__(
                    r.principal, completions[r.principal] + 1
                ),
            )
            red = L7Redirector(sim, "R", acc, {"S": srv}, window=W, queuing=queuing)
            ClientMachine(sim, "CA", "A", red, rate=405.0,
                          rng=np.random.default_rng(1))
            ClientMachine(sim, "CB", "B", red, rate=135.0,
                          rng=np.random.default_rng(2))
            sim.run(until=25.0)
            return {p: completions[p] / 25.0 for p in completions}

        quota_rates = run("implicit")
        credit_rates = run("credits")
        for p in ("A", "B"):
            assert credit_rates[p] == pytest.approx(quota_rates[p], rel=0.08)
        assert credit_rates["B"] == pytest.approx(135.0, rel=0.08)
        # Each engine on its own: B's demand in full, A the 320 - 135 rest.
        for rates in (quota_rates, credit_rates):
            assert rates["B"] == pytest.approx(135.0, rel=0.1)
            assert rates["A"] == pytest.approx(185.0, rel=0.1)


class TestValidation:
    def test_bad_queuing_mode(self, fig6_graph):
        sim = Simulator()
        acc = compute_access_levels(fig6_graph)
        with pytest.raises(ValueError):
            L7Redirector(sim, "R", acc, {}, queuing="quantum")

    def test_bad_smoothing(self, fig6_graph):
        sim = Simulator()
        acc = compute_access_levels(fig6_graph)
        with pytest.raises(ValueError):
            L7Redirector(sim, "R", acc, {}, smoothing=0.0)


class TestEndToEndWithClients:
    def test_fig6_phase1_standalone(self, fig6_graph):
        """One redirector, no tree: enforcement still holds locally."""
        sim = Simulator()
        acc = compute_access_levels(fig6_graph)
        completions = {"A": 0, "B": 0}
        srv = Server(
            sim, "S", 320.0, owner="S",
            on_complete=lambda r, s: completions.__setitem__(
                r.principal, completions[r.principal] + 1
            ),
        )
        red = L7Redirector(sim, "R", acc, {"S": srv}, window=W)
        rng = np.random.default_rng(0)
        for i, (p, rate) in enumerate((("A", 135.0), ("A", 135.0), ("B", 135.0))):
            ClientMachine(
                sim, f"C{i}", p, red, rate=rate,
                rng=np.random.default_rng(i),
            )
        sim.run(until=30.0)
        a_rate = completions["A"] / 30.0
        b_rate = completions["B"] / 30.0
        assert b_rate == pytest.approx(135.0, rel=0.1)
        assert a_rate == pytest.approx(185.0, rel=0.1)


class TestParkedRequests:
    def _overloaded(self, fig6_graph):
        sim, _, srv, red = _world(fig6_graph)
        clients = [
            ClientMachine(sim, f"C{i}", "A", red, 400.0,
                          rng=np.random.default_rng(i), max_retry_pool=40)
            for i in (1, 2)
        ]
        return sim, red, clients

    def test_backlog_is_reoffered_first_and_counts_as_demand(self, fig6_graph):
        sim, red, clients = self._overloaded(fig6_graph)
        sim.run(until=1.05)
        early = [c.admitted for c in clients]
        sim.run(until=3.05)
        # 800 req/s against 320: both pools full, the redirector holds them.
        assert [c.parked for c in clients] == [40, 40]
        assert len(red.parked) == 80
        for c in clients:
            assert c.issued == c.admitted + c.dropped + c.parked
        # Demand = a window of fresh arrivals + the backlog at its boundary
        # (re-offered or still parked, each request once).
        assert red.demand_estimate["A"] == pytest.approx(80.0 + 80.0, rel=0.02)
        # Past the start skew's head start the shared FIFO serves both alike.
        a1, a2 = (c.admitted - e for c, e in zip(clients, early))
        assert a1 + a2 == pytest.approx(640, abs=2) and abs(a1 - a2) <= 0.01 * a1

    def test_crashed_redirector_drops_what_it_holds(self, fig6_graph):
        sim, red, clients = self._overloaded(fig6_graph)
        sim.run(until=1.05)
        assert len(red.parked) == 80
        dropped = sum(c.dropped for c in clients)
        red.crash()
        sim.run(until=1.15)   # one boundary later
        assert len(red.parked) == 0 and all(c.parked == 0 for c in clients)
        assert sum(c.dropped for c in clients) >= dropped + 80
