"""End-to-end recovery: degradation floors, liveness ledger, failover,
and bit-identical replay of faulted runs."""

import pytest

from repro.analysis.invariants import InvariantViolation
from repro.analysis.replay import chaos_replay, scenario_digest
from repro.cluster.health import BackendHealthChecker
from repro.core.access import compute_access_levels
from repro.core.agreements import Agreement, AgreementGraph
from repro.coordination.protocol import GlobalView
from repro.experiments.faultmatrix import (
    CONSERVATIVE_B,
    K_WINDOWS,
    fault_matrix_scenario,
    run_fault_matrix,
)
from repro.experiments.harness import Scenario
from repro.faults.inject import FaultInjector
from repro.faults.plan import FaultPlan, ServerCrash
from repro.scheduling.allocator import WindowAllocator

from .conftest import build_world


class TestFaultMatrix:
    def test_partition_degrades_then_recovers_within_budget(self):
        # check_invariants=True arms the liveness ledger: admitted rates
        # must be back within eps of the agreed split K_WINDOWS after the
        # heal, or the run raises.
        result = run_fault_matrix(duration_scale=0.4, check_invariants=True)
        assert result.ok, result.deviations()
        # B is held at its conservative floor, not starved...
        held = result.phase("p2_partition").rates["B"]
        assert held >= 0.85 * CONSERVATIVE_B
        # ...and pays for the partition with its optional share.
        assert held < 0.7 * result.phase("p1_agreed").rates["B"]
        # After the heal both principals are back on the pre-fault split.
        agreed = result.phase("p1_agreed")
        recovered = result.phase("p3_recovered")
        for principal in ("A", "B"):
            assert recovered.rate(principal) == pytest.approx(
                agreed.rate(principal), rel=0.1)
        assert "evictions=1" in result.notes
        assert "rejoins=1" in result.notes

    def test_partitioned_redirector_counts_degraded_windows(self):
        sc, _, (t1, t2, end) = fault_matrix_scenario(duration_scale=0.4)
        degraded = sc.l7_redirectors["R2"].allocator.degraded_windows
        # Windows are 0.1 s; the view goes stale ~1 s into the partition.
        assert degraded * sc.window.length > 0.5 * (t2 - t1 - 2.0)
        # R1 stays coordinated throughout (the root is on its side).
        assert sc.l7_redirectors["R1"].allocator.degraded_windows == 0

    def test_liveness_ledger_catches_non_recovery(self):
        # A quota no run can meet: the ledger must raise at its deadline.
        sc = build_world(check_invariants=True)
        sc.invariants.arm_liveness(
            sc.sim, sc.meter, {"A": 500.0}, heal_at=2.0,
            k_windows=K_WINDOWS, window=sc.window.length,
        )
        with pytest.raises(InvariantViolation, match="liveness"):
            sc.run(8.0)

    def test_liveness_ledger_validates_arguments(self):
        sc = build_world(check_invariants=True)
        with pytest.raises(ValueError):
            sc.invariants.arm_liveness(
                sc.sim, sc.meter, {"A": 1.0}, heal_at=1.0,
                k_windows=0, window=0.1,
            )


class TestDegradedAllocator:
    def _allocator(self):
        g = AgreementGraph()
        g.add_principal("S", capacity=100.0)
        g.add_principal("A")
        g.add_agreement(Agreement("S", "A", 0.5, 1.0))
        alloc = WindowAllocator(
            compute_access_levels(g), n_redirectors=2, stale_after=1.0,
        )

        class Node:
            view = GlobalView()

        alloc.attach(Node())
        return alloc, Node

    def test_stale_view_snaps_to_conservative(self):
        alloc, node = self._allocator()
        from repro.coordination.aggregation import VectorAggregate

        node.view.aggregate = VectorAggregate.local({"A": 4.0})
        node.view.received_at = 0.0
        fresh = alloc.compute({"A": 4.0}, now=0.5)
        assert not fresh.used_fallback
        stale = alloc.compute({"A": 4.0}, now=2.0)   # age 2.0 > stale_after
        assert stale.used_fallback
        assert alloc.degraded_windows == 1
        # Conservative 1/R: half of A's mandatory per-window entitlement.
        assert stale.quotas["A"] < fresh.quotas["A"]

    def test_stale_after_validated(self):
        g = AgreementGraph()
        g.add_principal("S", capacity=10.0)
        with pytest.raises(ValueError, match="stale_after"):
            WindowAllocator(compute_access_levels(g), stale_after=0.0)


class TestBackendFailover:
    def test_l7_routes_around_dead_backend(self):
        g = AgreementGraph()
        g.add_principal("S", capacity=80.0)
        g.add_principal("A")
        g.add_agreement(Agreement("S", "A", 1.0, 1.0))
        sc = Scenario(g, seed=0, bin_width=0.25)
        s1 = sc.server("S1", "S", 40.0)
        s2 = sc.server("S2", "S", 40.0)
        health = BackendHealthChecker(sc.sim, [s1, s2], probe_interval=0.05)
        r1 = sc.l7("R1", {"S": [s1, s2]}, health=health)
        sc.connect_tree(link_delay=0.005)
        sc.client("C1", "A", r1, rate=30.0)
        injector = FaultInjector(sc, FaultPlan(events=[ServerCrash(
            at=2.0, until=5.0, server="S1",
        )]))
        sc.run(8.0)
        # Once S1 is out of rotation all load lands on S2: no drops
        # beyond the pre-detection blip, and S2 carries the outage.
        times, rates = sc.meter.series("A")
        mid = [r for t, r in zip(times, rates) if 2.5 <= t <= 4.5]
        assert min(mid) >= 20.0              # service continued on S2
        assert sum(mid) / len(mid) >= 26.0   # ~full rate through the outage
        assert s2.completed["A"] > s1.completed["A"]
        assert health.marked_down == 1 and health.marked_up == 1


class TestChaosReplay:
    def test_faulted_run_replays_bit_identically(self):
        report = chaos_replay(duration_scale=0.4, runs=2,
                              with_invariants=True)
        assert report.identical and report.ok
        assert len(set(report.digests)) == 1
        assert report.checker_summary["violations"] == 0
        assert report.meta["plan_digest"]

    def test_digest_covers_fault_ledgers(self):
        sc1, _, _ = fault_matrix_scenario(duration_scale=0.4)
        sc2, _, _ = fault_matrix_scenario(duration_scale=0.4, seed=1)
        assert scenario_digest(sc1) != scenario_digest(sc2)
