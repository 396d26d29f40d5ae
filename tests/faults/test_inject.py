"""FaultInjector: link impairment, partitions, crashes, target validation."""

from dataclasses import replace

import pytest

from repro.analysis.replay import combined_digest
from repro.cluster.columnar import LaneError
from repro.experiments.figures import fig6_world
from repro.faults.inject import FaultInjector
from repro.faults.plan import (
    FaultPlan,
    LinkDegrade,
    NodeCrash,
    PartitionFault,
    RedirectorCrash,
    ServerCrash,
)

from .conftest import build_world


class TestSetup:
    def test_requires_connect_tree(self):
        class Bare:
            _tree_built = False

        plan = FaultPlan(events=[PartitionFault(
            at=1.0, until=2.0, groups=(("a",), ("b",)),
        )])
        with pytest.raises(RuntimeError, match="connect_tree"):
            FaultInjector(Bare(), plan)

    @pytest.mark.parametrize("event,message", [
        (NodeCrash(at=1.0, node="nope"), "unknown protocol node"),
        (ServerCrash(at=1.0, server="nope"), "unknown server"),
        (RedirectorCrash(at=1.0, redirector="nope"), "unknown redirector"),
        (LinkDegrade(at=1.0, src="R1", dst="R2"), "unknown link"),
    ])
    def test_unknown_targets_rejected(self, world, event, message):
        with pytest.raises(ValueError, match=message):
            FaultInjector(world, FaultPlan(events=[event]))


class TestLinkDegrade:
    def test_applies_and_reverts_symmetrically(self, world):
        fwd = world.protocol_links[("R1", "__root__")]
        rev = world.protocol_links[("__root__", "R1")]
        before = (fwd.loss, fwd.delay, rev.loss, rev.delay)
        FaultInjector(world, FaultPlan(events=[LinkDegrade(
            at=1.0, until=2.0, src="R1", dst="__root__",
            loss=0.4, delay=0.3,
        )]))
        world.sim.run(until=1.5)
        assert (fwd.loss, fwd.delay) == (0.4, 0.3)
        assert (rev.loss, rev.delay) == (0.4, 0.3)
        world.sim.run(until=2.5)
        assert (fwd.loss, fwd.delay, rev.loss, rev.delay) == before

    def test_asymmetric_touches_one_direction(self, world):
        rev = world.protocol_links[("__root__", "R1")]
        FaultInjector(world, FaultPlan(events=[LinkDegrade(
            at=1.0, src="R1", dst="__root__", loss=0.4, symmetric=False,
        )]))
        world.sim.run(until=1.5)
        assert world.protocol_links[("R1", "__root__")].loss == 0.4
        assert rev.loss == 0.0


class TestPartitions:
    def test_cuts_crossing_links_and_heals(self, world):
        FaultInjector(world, FaultPlan(events=[PartitionFault(
            at=1.0, until=2.0, groups=(("R2",), ("__root__", "R1")),
        )]))
        world.sim.run(until=1.5)
        assert not world.protocol_links[("R2", "__root__")].up
        assert not world.protocol_links[("__root__", "R2")].up
        assert world.protocol_links[("R1", "__root__")].up
        world.sim.run(until=2.5)
        assert all(link.up for link in world.protocol_links.values())

    def test_overlapping_partitions_refcount(self, world):
        # The shared link heals only when the *last* partition lifts.
        FaultInjector(world, FaultPlan(events=[
            PartitionFault(at=1.0, until=3.0,
                           groups=(("R2",), ("__root__", "R1"))),
            PartitionFault(at=2.0, until=4.0, groups=(("R2",), ("__root__",))),
        ]))
        link = world.protocol_links[("R2", "__root__")]
        world.sim.run(until=3.5)
        assert not link.up          # first heal passed, second still active
        world.sim.run(until=4.5)
        assert link.up

    def test_log_records_the_timeline(self, world):
        injector = FaultInjector(world, FaultPlan(events=[PartitionFault(
            at=1.0, until=2.0, groups=(("R2",), ("__root__", "R1")),
        )]))
        world.sim.run(until=3.0)
        kinds = [kind for _, kind, _ in injector.log]
        assert kinds == ["partition", "heal"]


class TestCrashes:
    def test_server_crash_refuses_then_recovers(self, world):
        server = world.servers["S"]
        FaultInjector(world, FaultPlan(events=[ServerCrash(
            at=1.0, until=2.0, server="S",
        )]))
        world.sim.run(until=1.5)
        assert not server.alive
        world.sim.run(until=6.0)
        assert server.alive
        assert server.refused > 0           # work arrived while it was down
        done_mid = server.completed.copy()
        world.sim.run(until=8.0)
        assert sum(server.completed.values()) > sum(done_mid.values())

    def test_redirector_crash_silences_node_and_drops(self, world):
        red = world.l7_redirectors["R2"]
        node = world.protocol_nodes["R2"]
        FaultInjector(world, FaultPlan(events=[RedirectorCrash(
            at=1.0, until=3.0, redirector="R2",
        )]))
        world.sim.run(until=2.0)
        assert not red.alive and not node.alive
        world.sim.run(until=4.0)
        assert red.alive and node.alive

    def test_node_crash_routes_through_membership(self, world):
        FaultInjector(world, FaultPlan(events=[NodeCrash(
            at=1.0, until=4.0, node="R2",
        )]))
        world.sim.run(until=3.5)
        assert not world.protocol_nodes["R2"].alive
        assert "R2" not in world.tree        # evicted by the detector
        world.sim.run(until=8.0)
        assert world.protocol_nodes["R2"].alive
        assert "R2" in world.tree            # heartbeats brought it back
        assert world.membership.rejoins == 1


class TestLanes:
    """The columnar lane never asks a server or redirector whether it is
    alive, so a plan that crashes one must refuse that lane instead of
    running as if nothing had failed.  Partitions and protocol-node
    crashes reach only the combining tree, which both lanes share."""

    @pytest.mark.parametrize("event", [
        ServerCrash(at=3.0, server="S", until=9.0),
        RedirectorCrash(at=3.0, redirector="R1", until=9.0),
    ], ids=["server", "redirector"])
    def test_crashes_refuse_the_columnar_lane(self, event):
        world = replace(fig6_world(0.05), faults=FaultPlan(events=[event]))
        with pytest.raises(LaneError, match="crash of .* per-request events"):
            world.build()
        sc = world.scenario("slotted")
        if isinstance(event, ServerCrash):
            assert sc.servers["S"].refused > 0
        else:
            assert sc.injector.log

    @pytest.mark.parametrize("event", [
        PartitionFault(at=3.0, until=9.0, groups=(("R1",), ("R2",))),
        NodeCrash(at=3.0, node="R2", until=9.0),
    ], ids=["partition", "node"])
    def test_tree_faults_run_columnar_bit_for_bit(self, event):
        world = replace(fig6_world(0.05), faults=FaultPlan(events=[event]))
        slotted, columnar = (world.scenario(lane) for lane in ("slotted", "columnar"))
        assert columnar.columnar is not None and columnar.injector.log
        assert combined_digest(columnar) == combined_digest(slotted)
