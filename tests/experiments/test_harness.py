import numpy as np
import pytest

from repro.cluster.health import BackendHealthChecker
from repro.experiments.harness import (
    FigureResult, LaneError, PhaseExpectation, Scenario,
)
from repro.sim.monitor import PhaseStats


class TestFigureResult:
    def _result(self, measured, expected, tolerance=0.15):
        phases = [PhaseStats("p1", 0.0, 10.0, rates=measured)]
        return FigureResult(
            figure="figX",
            title="t",
            phases=phases,
            expected=[PhaseExpectation("p1", expected, tolerance=tolerance)],
        )

    def test_within_tolerance(self):
        r = self._result({"A": 100.0}, {"A": 105.0})
        assert r.ok

    def test_outside_tolerance(self):
        r = self._result({"A": 100.0}, {"A": 150.0})
        assert not r.ok

    def test_zero_expectation_uses_abs_floor(self):
        r = self._result({"A": 5.0}, {"A": 0.0})
        assert r.ok
        r2 = self._result({"A": 50.0}, {"A": 0.0})
        assert not r2.ok

    def test_missing_phase_skipped(self):
        phases = [PhaseStats("p1", 0.0, 1.0, rates={"A": 1.0})]
        r = FigureResult(
            figure="f", title="t", phases=phases,
            expected=[PhaseExpectation("p99", {"A": 1.0})],
        )
        assert r.deviations() == []

    def test_phase_lookup(self):
        r = self._result({"A": 1.0}, {"A": 1.0})
        assert r.phase("p1").rate("A") == 1.0
        with pytest.raises(KeyError):
            r.phase("nope")


class TestScenario:
    def test_builds_and_runs(self, fig6_graph):
        sc = Scenario(fig6_graph, seed=1)
        srv = sc.server("S", "S", 320.0)
        r1 = sc.l7("R1", {"S": srv})
        sc.client("C1", "A", r1, rate=50.0)
        sc.run(5.0)
        assert sc.meter.total("A", 0, 5.0) > 0
        # per-server series recorded too
        assert sc.meter.total("server:S", 0, 5.0) > 0

    def test_tree_requires_redirectors(self, fig6_graph):
        sc = Scenario(fig6_graph)
        with pytest.raises(RuntimeError):
            sc.connect_tree()

    def test_tree_built_once(self, fig6_graph):
        sc = Scenario(fig6_graph)
        srv = sc.server("S", "S", 320.0)
        sc.l7("R1", {"S": srv})
        sc.connect_tree()
        with pytest.raises(RuntimeError):
            sc.connect_tree()

    def test_extra_root_tree(self, fig6_graph):
        sc = Scenario(fig6_graph)
        srv = sc.server("S", "S", 320.0)
        sc.l7("R1", {"S": srv})
        sc.l7("R2", {"S": srv})
        tree = sc.connect_tree(extra_root=True)
        assert tree.root == "__root__"
        assert len(tree) == 3

    def test_phase_rates(self, fig6_graph):
        sc = Scenario(fig6_graph, seed=2)
        srv = sc.server("S", "S", 320.0)
        r1 = sc.l7("R1", {"S": srv})
        sc.client("C1", "A", r1, rate=100.0, windows=[(0.0, 5.0)])
        sc.run(10.0)
        stats = sc.phase_rates(
            [("on", 0.0, 5.0), ("off", 5.0, 10.0)], keys=["A"], settle=1.0
        )
        assert stats[0].rate("A") > 50.0
        assert stats[1].rate("A") < 10.0

    def test_response_stats(self, fig6_graph):
        sc = Scenario(fig6_graph, seed=4)
        srv = sc.server("S", "S", 320.0)
        r1 = sc.l7("R1", {"S": srv})
        sc.client("C1", "B", r1, rate=100.0)
        sc.run(10.0)
        stats = sc.response_stats()
        assert stats["B"]["count"] > 500
        assert 0.0 <= stats["B"]["p50"] <= stats["B"]["p95"] <= stats["B"]["max"]
        assert stats["B"]["mean"] < 0.5   # underloaded: fast responses

    def test_response_stats_empty(self, fig6_graph):
        sc = Scenario(fig6_graph)
        assert sc.response_stats() == {}

    def test_series(self, fig6_graph):
        sc = Scenario(fig6_graph, seed=3)
        srv = sc.server("S", "S", 320.0)
        r1 = sc.l7("R1", {"S": srv})
        sc.client("C1", "A", r1, rate=100.0)
        sc.run(5.0)
        series = sc.series(["A"])
        times, rates = series["A"]
        assert len(times) == len(rates) > 0


class TestColumnarLane:
    def test_unknown_lane_rejected(self, fig6_graph):
        # "scalar" was the L4 switch's per-packet lane; it is a test oracle.
        for lane in ("vectorised", "scalar"):
            with pytest.raises(ValueError, match="unknown lane"):
                Scenario(fig6_graph, lane=lane)

    def test_lane_resolution(self, fig6_graph):
        sc = Scenario(fig6_graph)
        assert sc.lane == "slotted" and sc.columnar is None
        sc = Scenario(fig6_graph, lane="columnar")
        assert sc.lane == "columnar" and sc.columnar is not None
        with pytest.raises(ValueError):
            Scenario(fig6_graph, lane=None)

    def test_lane_alone_selects_the_l4_data_path(self, fig9_graph):
        from repro.l4.columnar import ColumnarL4Switch
        from repro.l4.switch import L4Switch

        for lane, cls in (("slotted", L4Switch), ("columnar", ColumnarL4Switch)):
            sc = Scenario(fig9_graph, lane=lane)
            sa = sc.server("SA", "A", 320.0)
            sb = sc.server("SB", "B", 320.0)
            assert type(sc.l4("SW", {"A": sa, "B": sb})) is cls

    def test_invariants_fall_back_to_slotted(self, fig6_graph):
        # The one demotion left: the invariant hooks audit per-request
        # events until they run over per-window columns.
        sc = Scenario(fig6_graph, lane="columnar", check_invariants=True)
        assert sc.lane == "slotted"
        assert sc.columnar is None
        assert sc.lane_fallback == "invariant hooks need per-request events"

    @pytest.mark.parametrize("kw, reason", [
        ({"mode": "closed", "users": 4}, "closed-loop"),
        ({"on_response": print}, "on_response"),
    ], ids=["closed-loop", "on_response"])
    def test_client_raises_lane_error(self, fig6_graph, kw, reason):
        sc = Scenario(fig6_graph, lane="columnar")
        srv = sc.server("S", "S", 320.0)
        r1 = sc.l7("R1", {"S": srv})
        with pytest.raises(LaneError) as exc:
            sc.client("C1", "A", r1, rate=50.0, **kw)
        assert exc.value.component == "client 'C1'"
        assert reason in exc.value.reason
        assert (sc.lane, sc.lane_fallback) == ("columnar", None)

    @pytest.mark.parametrize("health, queuing, reason", [
        (False, "explicit", "'explicit' queuing"),
        (True, "implicit", "health-checked pools"),
    ], ids=["explicit-queuing", "health-checked"])
    def test_l7_pool_raises_lane_error(
        self, fig6_graph, health, queuing, reason,
    ):
        sc = Scenario(fig6_graph, lane="columnar")
        srv = sc.server("S", "S", 320.0)
        checker = BackendHealthChecker(sc.sim, [srv]) if health else None
        r1 = sc.l7("R1", {"S": srv}, queuing=queuing, health=checker)
        with pytest.raises(LaneError, match=reason):
            sc.client("C1", "A", r1, rate=50.0)

    def test_passthrough_raises_lane_error(self, fig6_graph):
        sc = Scenario(fig6_graph, lane="columnar")
        srv = sc.server("S", "S", 320.0)
        front = sc.passthrough("W", {"S": [srv]})
        with pytest.raises(LaneError, match="redirector type"):
            sc.client("C1", "A", front, rate=50.0)

    def test_l4_health_check_raises_lane_error(self, fig9_graph):
        sc = Scenario(fig9_graph, lane="columnar")
        sa = sc.server("SA", "A", 320.0)
        sb = sc.server("SB", "B", 320.0)
        health = BackendHealthChecker(sc.sim, [sa, sb])
        with pytest.raises(LaneError, match="L4 switch 'SW'.*health-checked"):
            sc.l4("SW", {"A": sa, "B": sb}, health=health)

    def test_unsupported_client_after_columnar_client_raises(
        self, fig6_graph,
    ):
        sc = Scenario(fig6_graph, lane="columnar")
        srv = sc.server("S", "S", 320.0)
        r1 = sc.l7("R1", {"S": srv})
        sc.client("C1", "A", r1, rate=50.0, max_retry_pool=0)
        assert sc.lane == "columnar"
        with pytest.raises(LaneError):
            sc.client("C2", "B", r1, rate=50.0, mode="closed", users=4)

    def test_columnar_run_counts_requests(self, fig6_graph):
        sc = Scenario(fig6_graph, seed=5, lane="columnar")
        srv = sc.server("S", "S", 320.0)
        r1 = sc.l7("R1", {"S": srv})
        cli = sc.client("C1", "A", r1, rate=100.0, max_retry_pool=0)
        sc.run(10.0)
        assert sc.columnar.requests == cli.issued > 0
        assert sc.meter.total("A", 0, 10.0) > 0
