"""InvariantChecker: each ledger check, its violation path, and wiring."""

import pytest

from repro.analysis.invariants import (
    InvariantChecker, InvariantViolation, check_enabled,
)
from repro.core.agreements import Agreement, AgreementGraph
from repro.core.tickets import Currency, Ticket, TicketKind
from repro.cluster.server import Server
from repro.experiments.harness import Scenario
from repro.lp import solver as lp_solver
from repro.lp.model import Model, Status
from repro.sim.engine import Simulator


class TestTicketConservation:
    def test_clean_graph_passes(self, fig6_graph):
        chk = InvariantChecker()
        chk.check_ticket_conservation(fig6_graph)
        assert chk.summary() == {"checks_run": 1, "violations": 0}

    def test_over_granted_graph_fails(self):
        # add_agreement guards the budget at construction; mutate the
        # ledger behind it (the bug class the checker exists for).
        g = AgreementGraph()
        g.add_principal("S", capacity=100.0)
        g.add_principal("A")
        g.add_principal("B")
        g.add_agreement(Agreement("S", "A", 0.7, 1.0))
        g._agreements[("S", "B")] = Agreement("S", "B", 0.7, 1.0)  # Σ lb = 1.4
        chk = InvariantChecker()
        with pytest.raises(InvariantViolation, match="granted 1.4"):
            chk.check_ticket_conservation(g)

    def test_currency_bypass_is_caught(self):
        # Currency.issue() guards the budget; mutate the ledger behind it
        # (what a deserialisation or renegotiation bug would do) and the
        # checker must still notice.
        cur = Currency("S", face_value=100.0)
        cur.issue(TicketKind.MANDATORY, "A", 60.0)
        cur.issued.append(
            Ticket(kind=TicketKind.MANDATORY, issuer="S", holder="B", amount=60.0)
        )
        chk = InvariantChecker()
        with pytest.raises(InvariantViolation, match="mandatory issuance"):
            chk.check_ticket_conservation([cur])

    def test_clean_currencies_pass(self):
        cur = Currency("S")
        cur.issue(TicketKind.MANDATORY, "A", 40.0)
        cur.issue(TicketKind.OPTIONAL, "B", 90.0)  # optional is unbounded
        chk = InvariantChecker()
        chk.check_ticket_conservation([cur])
        assert chk.violations == []

    def test_non_strict_records_instead_of_raising(self):
        cur = Currency("S")
        cur.issued.append(
            Ticket(kind=TicketKind.MANDATORY, issuer="S", holder="B", amount=150.0)
        )
        chk = InvariantChecker(strict=False)
        chk.check_ticket_conservation([cur])
        assert len(chk.violations) == 1


class TestAllocationCheck:
    def test_clean_allocation_passes(self):
        chk = InvariantChecker()
        chk.check_allocation({"A": 5.0, "B": 3.0}, {"A": 10.0, "B": 3.0}, 32.0)
        assert chk.checks_run == 1

    def test_negative_quota_fails(self):
        chk = InvariantChecker()
        with pytest.raises(InvariantViolation, match="negative quota"):
            chk.check_allocation({"A": -1.0}, {"A": 10.0}, 32.0)

    def test_quota_above_demand_fails(self):
        chk = InvariantChecker()
        with pytest.raises(InvariantViolation, match="exceeds"):
            chk.check_allocation({"A": 12.0}, {"A": 10.0}, 32.0)

    def test_total_above_capacity_fails(self):
        chk = InvariantChecker()
        with pytest.raises(InvariantViolation, match="community"):
            chk.check_allocation(
                {"A": 20.0, "B": 20.0}, {"A": 25.0, "B": 25.0}, 32.0
            )


class TestServerWatch:
    def test_overdrawn_server_fails(self):
        sim = Simulator()
        srv = Server(sim, "S", capacity=10.0, owner="S")
        chk = InvariantChecker()
        chk.watch_server(sim, srv, window=1.0)
        # 10 req/s x 1 s window allows ~10 units (+ max_cost slack);
        # claim 100 completed units, as a double-counting bug would.
        for _ in range(100):
            chk.observe_completion("S", 1.0)
        with pytest.raises(InvariantViolation, match="request-units"):
            sim.run(until=1.5)

    def test_normal_service_passes(self, fig6_graph):
        sc = Scenario(fig6_graph, seed=1, check_invariants=True)
        srv = sc.server("S", "S", 320.0)
        r1 = sc.l7("R1", {"S": srv})
        sc.client("C1", "A", r1, rate=50.0)
        sc.run(3.0)
        assert sc.invariants is not None
        assert sc.invariants.checks_run > 0
        assert sc.invariants.violations == []


class TestNatConntrack:
    class _Stub:
        name = "SW"

        def __init__(self, nat, flows):
            self.nat = list(range(nat))
            self.conntrack = list(range(flows))

    def test_balanced_passes(self):
        chk = InvariantChecker()
        chk.check_nat_conntrack(self._Stub(3, 3))
        assert chk.checks_run == 1

    def test_leak_fails(self):
        chk = InvariantChecker()
        with pytest.raises(InvariantViolation, match="NAT entries"):
            chk.check_nat_conntrack(self._Stub(4, 3))


class TestParking:
    class _Red:
        name = "R"

        def __init__(self, held):
            self.parked = list(range(held))

    class _Client:
        name, mode = "C", "open"

        def __init__(self, red, issued, admitted, dropped, parked):
            self.redirector = red
            self.issued, self.admitted = issued, admitted
            self.dropped, self.parked = dropped, parked

    def test_conserved_passes(self):
        chk, red = InvariantChecker(), self._Red(5)
        chk.check_parking(
            [self._Client(red, 10, 5, 2, 3), self._Client(red, 4, 1, 1, 2)], [red])
        assert chk.checks_run == 1

    def test_lost_request_fails(self):
        chk, red = InvariantChecker(), self._Red(3)
        with pytest.raises(InvariantViolation, match="issued 10 != admitted 5"):
            chk.check_parking([self._Client(red, 10, 5, 1, 3)], [red])

    def test_redirector_and_clients_disagree(self):
        chk, red = InvariantChecker(), self._Red(4)
        with pytest.raises(InvariantViolation, match="holds 4 parked"):
            chk.check_parking([self._Client(red, 10, 5, 2, 3)], [red])

    def test_scenario_checks_every_window(self, fig6_graph):
        sc = Scenario(fig6_graph, check_invariants=True)
        srv = sc.server("S", "S", 320.0)
        red = sc.l7("R", {"S": srv})
        sc.client("C1", "A", red, rate=400.0)
        before = sc.invariants.checks_run
        sc.run(2.0)
        assert sc.clients["C1"].parked == len(red.parked) > 0
        assert sc.invariants.checks_run - before >= 3 * 19   # server, LP, parking
        # A request that goes missing is caught at the next boundary.
        sc.clients["C1"].parked -= 1
        with pytest.raises(InvariantViolation, match="client 'C1'"):
            sc.sim.run(until=2.2)


class TestLpFeasibility:
    def _model(self):
        m = Model("toy")
        x = m.var("x", 0.0, 10.0)
        y = m.var("y", 0.0, 10.0)
        m.add(x + y <= 8.0)
        m.maximize(x + y)
        return m

    def test_true_optimum_passes(self):
        m = self._model()
        sol = lp_solver.solve(m)
        chk = InvariantChecker()
        chk.check_lp_solution(m, sol)
        assert chk.checks_run == 1

    def test_tampered_solution_fails(self):
        import numpy as np

        m = self._model()
        fake = m.solution_from_x(np.array([6.0, 6.0]), Status.OPTIMAL)
        chk = InvariantChecker()
        with pytest.raises(InvariantViolation, match="inequality row"):
            chk.check_lp_solution(m, fake)

    def test_out_of_bounds_solution_fails(self):
        import numpy as np

        m = self._model()
        fake = m.solution_from_x(np.array([-3.0, 5.0]), Status.OPTIMAL)
        chk = InvariantChecker()
        with pytest.raises(InvariantViolation, match="outside"):
            chk.check_lp_solution(m, fake)

    def test_infeasible_status_passes_through(self):
        m = self._model()

        class _Sol:
            optimal = False
            x = None

        chk = InvariantChecker()
        chk.check_lp_solution(m, _Sol())
        assert chk.violations == []

    def test_solver_hook_is_called(self):
        calls = []
        lp_solver.set_feasibility_check(lambda m, s: calls.append((m, s)))
        try:
            lp_solver.solve(self._model())
        finally:
            lp_solver.set_feasibility_check(None)
        assert len(calls) == 1


class TestWiring:
    def test_env_toggle(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHECK", raising=False)
        assert check_enabled() is False
        assert check_enabled(default=True) is True
        monkeypatch.setenv("REPRO_CHECK", "1")
        assert check_enabled() is True
        monkeypatch.setenv("REPRO_CHECK", "off")
        assert check_enabled() is False

    def test_scenario_off_by_default(self, fig6_graph, monkeypatch):
        monkeypatch.delenv("REPRO_CHECK", raising=False)
        assert Scenario(fig6_graph).invariants is None

    def test_scenario_env_enables(self, fig6_graph, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK", "1")
        assert Scenario(fig6_graph).invariants is not None

    def test_explicit_flag_beats_env(self, fig6_graph, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK", "1")
        assert Scenario(fig6_graph, check_invariants=False).invariants is None
