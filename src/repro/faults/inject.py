"""Bind a :class:`FaultPlan` to a scenario and execute it.

:class:`FaultInjector` translates plan events into kernel-scheduled state
changes on the scenario's components:

- link events hit the registered coordination links
  (``scenario.protocol_links``), saving pre-fault values for the revert;
- partitions cut every crossing link and — when the scenario has a
  :class:`repro.coordination.membership.ResilientTree` — install a
  ``link_filter`` so links created *by healing* while the partition is
  still active are cut too (a healed overlay cannot tunnel through a
  partition);
- crashes call the target's own ``crash``/``restart`` (protocol node,
  server, redirector), routing through the membership layer when present.
  The columnar lane never asks a server or redirector whether it is
  alive, so a plan that crashes one raises :class:`LaneError` there
  instead of running as if nothing had failed.

The injector itself draws no randomness: every event fires at its planned
time via ``sim.schedule_at``, and the stochastic impairments it configures
draw from the links' own per-link substreams.  Injecting the same plan
into the same seeded scenario therefore replays bit-identically.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.cluster.columnar import LaneError
from repro.faults.plan import (
    FaultPlan,
    FaultPlanError,
    LinkDegrade,
    NodeCrash,
    PartitionFault,
    RedirectorCrash,
    ServerCrash,
    ShardRevoke,
)
from repro.sim.network import Link

__all__ = ["FaultInjector"]

LinkKey = Tuple[str, str]


class FaultInjector:
    """Executes a fault plan against a built scenario.

    Construct *after* ``scenario.connect_tree()`` (the injector needs the
    link registry) and before ``scenario.run()``.
    """

    def __init__(self, scenario, plan: FaultPlan) -> None:
        for ev in plan.events:
            if isinstance(ev, ShardRevoke):
                # Worker revocation is an execution-substrate fault, not a
                # simulated-component one; only the sharded runner can
                # honour it deterministically.
                raise FaultPlanError(
                    "revoke_shard targets the sharded execution lane; "
                    "run this plan via `repro chaos --shards R`"
                )
            if getattr(scenario, "columnar", None) is not None:
                if isinstance(ev, ServerCrash):
                    raise LaneError(f"crash of server {ev.server!r}",
                                    "crashed servers need per-request events")
                if isinstance(ev, RedirectorCrash):
                    raise LaneError(f"crash of redirector {ev.redirector!r}",
                                    "crashed redirectors need per-request events")
        if not getattr(scenario, "_tree_built", False) and any(
            isinstance(ev, (LinkDegrade, PartitionFault, NodeCrash))
            for ev in plan.events
        ):
            raise RuntimeError("connect_tree() must run before FaultInjector")
        self.scenario = scenario
        self.sim = scenario.sim
        self.plan = plan
        self.links: Dict[LinkKey, Link] = getattr(scenario, "protocol_links", {})
        self.membership = getattr(scenario, "membership", None)
        # Which active partitions currently cut each link (a link heals
        # only when no active partition crosses it any more).
        self._cut_by: Dict[LinkKey, Set[int]] = {}
        self._active: Dict[int, PartitionFault] = {}
        self._saved: Dict[LinkKey, Dict[str, float]] = {}
        self.log: List[Tuple[float, str, str]] = []
        self._validate_targets()
        if self.membership is not None:
            self.membership.link_filter = self._on_new_link
        for ev in plan.sorted_events():
            self._schedule(ev)

    # -- setup -------------------------------------------------------------

    def _validate_targets(self) -> None:
        nodes = getattr(self.scenario, "protocol_nodes", {})
        for ev in self.plan.events:
            if isinstance(ev, NodeCrash) and ev.node not in nodes:
                raise ValueError(f"unknown protocol node {ev.node!r}")
            if isinstance(ev, ServerCrash) and ev.server not in self.scenario.servers:
                raise ValueError(f"unknown server {ev.server!r}")
            if isinstance(ev, RedirectorCrash):
                if ev.redirector not in self.scenario.l7_redirectors:
                    raise ValueError(f"unknown redirector {ev.redirector!r}")
            if isinstance(ev, LinkDegrade):
                if (ev.src, ev.dst) not in self.links:
                    raise ValueError(f"unknown link {ev.src!r}->{ev.dst!r}")

    def _schedule(self, ev) -> None:
        if isinstance(ev, LinkDegrade):
            self.sim.schedule_at(ev.at, self._apply_link, ev)
            if ev.until is not None:
                self.sim.schedule_at(ev.until, self._revert_link, ev)
        elif isinstance(ev, PartitionFault):
            pid = id(ev)
            self.sim.schedule_at(ev.at, self._apply_partition, pid, ev)
            self.sim.schedule_at(ev.until, self._heal_partition, pid, ev)
        elif isinstance(ev, NodeCrash):
            self.sim.schedule_at(ev.at, self._node, ev.node, True)
            if ev.until is not None:
                self.sim.schedule_at(ev.until, self._node, ev.node, False)
        elif isinstance(ev, ServerCrash):
            self.sim.schedule_at(ev.at, self._server, ev.server, True)
            if ev.until is not None:
                self.sim.schedule_at(ev.until, self._server, ev.server, False)
        elif isinstance(ev, RedirectorCrash):
            self.sim.schedule_at(ev.at, self._redirector, ev.redirector, True)
            if ev.until is not None:
                self.sim.schedule_at(ev.until, self._redirector, ev.redirector, False)
        else:  # pragma: no cover - plan.validate rejects unknown kinds
            raise TypeError(f"unknown fault event {ev!r}")

    # -- link impairment ---------------------------------------------------

    def _link_pairs(self, ev: LinkDegrade) -> List[LinkKey]:
        keys = [(ev.src, ev.dst)]
        if ev.symmetric and (ev.dst, ev.src) in self.links:
            keys.append((ev.dst, ev.src))
        return keys

    def _apply_link(self, ev: LinkDegrade) -> None:
        for key in self._link_pairs(ev):
            link = self.links[key]
            if key not in self._saved:
                self._saved[key] = {
                    "loss": link.loss, "duplicate": link.duplicate,
                    "reorder": link.reorder, "delay": link.delay,
                    "jitter": link.jitter,
                }
            link.set_impairment(
                loss=ev.loss, duplicate=ev.duplicate, reorder=ev.reorder,
            )
            if ev.delay is not None or ev.jitter is not None:
                link.set_delay(
                    ev.delay if ev.delay is not None else link.delay,
                    jitter=ev.jitter,
                )
        self.log.append((self.sim.now, "link_degrade", f"{ev.src}->{ev.dst}"))

    def _revert_link(self, ev: LinkDegrade) -> None:
        for key in self._link_pairs(ev):
            saved = self._saved.pop(key, None)
            if saved is None:
                continue
            link = self.links[key]
            link.set_impairment(
                loss=saved["loss"], duplicate=saved["duplicate"],
                reorder=saved["reorder"],
            )
            link.set_delay(saved["delay"], jitter=saved["jitter"])
        self.log.append((self.sim.now, "link_restore", f"{ev.src}->{ev.dst}"))

    # -- partitions --------------------------------------------------------

    def _apply_partition(self, pid: int, ev: PartitionFault) -> None:
        self._active[pid] = ev
        for key, link in self.links.items():
            if ev.crosses(*key):
                self._cut(key, link, pid)
        self.log.append((
            self.sim.now, "partition",
            "|".join(",".join(g) for g in ev.groups),
        ))

    def _heal_partition(self, pid: int, ev: PartitionFault) -> None:
        self._active.pop(pid, None)
        for key in list(self._cut_by):
            cutters = self._cut_by[key]
            cutters.discard(pid)
            if not cutters:
                del self._cut_by[key]
                link = self.links.get(key)
                if link is not None:
                    link.restore()
        self.log.append((self.sim.now, "heal", ""))

    def _cut(self, key: LinkKey, link: Link, pid: int) -> None:
        self._cut_by.setdefault(key, set()).add(pid)
        link.cut()

    def _on_new_link(self, link: Link, src: str, dst: str) -> None:
        """Membership hook: a heal-created link must respect active cuts."""
        for pid, ev in self._active.items():
            if ev.crosses(src, dst):
                self._cut((src, dst), link, pid)

    # -- crashes -----------------------------------------------------------

    def _node(self, node: str, down: bool) -> None:
        if self.membership is not None:
            (self.membership.crash if down else self.membership.restart)(node)
        else:
            target = self.scenario.protocol_nodes[node]
            (target.crash if down else target.restart)()
        self.log.append((self.sim.now, "node_crash" if down else "node_restart", node))

    def _server(self, server: str, down: bool) -> None:
        target = self.scenario.servers[server]
        (target.crash if down else target.restart)()
        self.log.append((
            self.sim.now, "server_crash" if down else "server_restart", server,
        ))

    def _redirector(self, name: str, down: bool) -> None:
        red = self.scenario.l7_redirectors[name]
        (red.crash if down else red.restart)()
        # The redirector host dying takes its protocol node with it.
        if name in getattr(self.scenario, "protocol_nodes", {}):
            self._node(name, down)
        self.log.append((
            self.sim.now,
            "redirector_crash" if down else "redirector_restart",
            name,
        ))
