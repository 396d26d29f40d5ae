"""Scenario builder: declaratively wire up a full paper-style experiment.

A :class:`Scenario` owns the simulation kernel, RNG streams, the completion
rate meter, and constructors for every component; :meth:`Scenario.run`
executes the timeline and :meth:`Scenario.phase_rates` produces the
per-phase service rates the paper's figures plot.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.analysis.invariants import InvariantChecker, check_enabled
from repro.cluster.client import ClientMachine
from repro.cluster.columnar import ColumnarClient, ColumnarEngine
from repro.cluster.server import Server
from repro.coordination.membership import ResilientTree
from repro.coordination.messages import MessageCounter
from repro.coordination.protocol import build_protocol
from repro.coordination.tree import CombiningTree
from repro.core.access import AccessLevels, compute_access_levels
from repro.core.agreements import AgreementGraph
from repro.l4.columnar import ColumnarL4Switch
from repro.l4.daemon import L4Daemon
from repro.l4.switch import L4Switch
from repro.l7.redirector import L7Redirector
from repro.scheduling.node import EnforcementNode
from repro.scheduling.window import WindowConfig
from repro.sim.engine import Simulator
from repro.sim.monitor import PhaseStats, RateMeter, summarize_phases
from repro.sim.rng import RngStreams
from repro.sim.trace import Tracer

__all__ = ["Scenario", "FigureResult", "PhaseExpectation"]


@dataclass
class PhaseExpectation:
    """Paper-reported rates for one phase, with a shape tolerance."""

    phase: str
    rates: Dict[str, float]
    tolerance: float = 0.15   # relative tolerance on non-zero rates
    abs_floor: float = 12.0   # absolute slack for (near-)zero expectations


@dataclass
class FigureResult:
    """Measured vs expected outcome for one paper figure."""

    figure: str
    title: str
    phases: List[PhaseStats]
    expected: List[PhaseExpectation]
    series: Dict[str, Tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    notes: str = ""

    def phase(self, name: str) -> PhaseStats:
        for p in self.phases:
            if p.name == name:
                return p
        raise KeyError(name)

    def deviations(self) -> List[Tuple[str, str, float, float, bool]]:
        """(phase, principal, measured, expected, within_tolerance) rows."""
        out = []
        for exp in self.expected:
            try:
                measured = self.phase(exp.phase)
            except KeyError:
                continue
            for principal, want in exp.rates.items():
                got = measured.rate(principal)
                if want <= exp.abs_floor:
                    ok = got <= exp.abs_floor + exp.tolerance * exp.abs_floor
                else:
                    ok = abs(got - want) <= exp.tolerance * want
                out.append((exp.phase, principal, got, want, ok))
        return out

    @property
    def ok(self) -> bool:
        return all(row[4] for row in self.deviations())


class Scenario:
    """Builder/owner of one experiment's simulated world."""

    def __init__(
        self,
        graph: AgreementGraph,
        window: WindowConfig = WindowConfig(0.1),
        seed: int = 0,
        bin_width: float = 1.0,
        trace: bool = False,
        check_invariants: Optional[bool] = None,
        lane: str = "slotted",
    ):
        gc.collect()  # the previous world is one big cycle: free it before this one grows
        self.graph = graph
        self.access: AccessLevels = compute_access_levels(graph)
        self.window = window
        # The one execution selector.  "slotted" = per-request events;
        # "columnar" = struct-of-arrays bulk advance with one pump event
        # per window (open-loop clients, refusals parked at the redirector
        # as in the event lanes; unsupported features fall back to
        # "slotted" and record why in ``lane_fallback``).
        if lane not in ("slotted", "columnar"):
            raise ValueError(f"unknown lane {lane!r}")
        self.lane: str = lane
        self.lane_fallback: Optional[str] = None
        self.sim = Simulator()
        self.streams = RngStreams(seed)
        self.meter = RateMeter(bin_width)
        self.counter = MessageCounter()
        self.tracer = Tracer() if trace else None
        # Runtime conservation checks (repro.analysis.invariants).  None
        # when off, and the hooks are only ever installed when on, so the
        # disabled hot path is byte-for-byte the unchecked one.
        # ``check_invariants=None`` defers to the REPRO_CHECK env toggle so
        # any experiment (including parallel workers, which inherit the
        # environment) can be audited without threading a flag through
        # every figure entry point.  Checker callbacks are read-only, so
        # traces stay bit-identical with the checker on or off.
        enabled = check_enabled() if check_invariants is None else bool(check_invariants)
        self.invariants: Optional[InvariantChecker] = (
            InvariantChecker() if enabled else None
        )
        if self.invariants is not None:
            self.invariants.check_ticket_conservation(graph)
            self.sim.every(window.length, lambda: self.invariants.check_parking(
                list(self.clients.values()),
                [*self.l7_redirectors.values(), *self.l4_switches.values()],
            ), start=window.length)
        # The columnar engine must exist before *any* other component so
        # its boundary pump carries the smallest event sequence numbers
        # (fires first at every window boundary — see ColumnarEngine).
        self.columnar: Optional[ColumnarEngine] = None
        if self.lane == "columnar":
            if trace:
                self.lane = "slotted"
                self.lane_fallback = "tracing needs per-request events"
            elif self.invariants is not None:
                self.lane = "slotted"
                self.lane_fallback = "invariant hooks need per-request events"
            else:
                self.columnar = ColumnarEngine(self.sim, window, self.meter)
        self.servers: Dict[str, Server] = {}
        self.l7_redirectors: Dict[str, L7Redirector] = {}
        self.l4_switches: Dict[str, L4Switch] = {}
        self.l4_daemons: Dict[str, L4Daemon] = {}
        self.clients: Dict[str, ClientMachine] = {}
        self._tree_built = False

    # -- components -------------------------------------------------------

    def server(self, name: str, owner: str, capacity: float, **kw) -> Server:
        srv = Server(
            self.sim, name, capacity, owner=owner,
            on_complete=self._on_complete, **kw,
        )
        self.servers[name] = srv
        if self.invariants is not None:
            self.invariants.watch_server(self.sim, srv, self.window.length)
        return srv

    def endpoint_server(
        self, name: str, owner: str, capacity: float, shares, **kw
    ):
        """A server enforcing agreements by itself (the Fig 1 baseline)."""
        from repro.cluster.endpoint_server import EndpointEnforcingServer

        kw.setdefault("window", self.window)
        srv = EndpointEnforcingServer(
            self.sim, name, capacity, shares,
            owner=owner, on_complete=self._on_complete, **kw,
        )
        self.servers[name] = srv
        if self.invariants is not None:
            self.invariants.watch_server(self.sim, srv, self.window.length)
        return srv

    def _on_complete(self, request, server) -> None:
        self.meter.record(request.principal, self.sim.now)
        self.meter.record(f"server:{server.name}", self.sim.now)
        # Unit-weighted series: enforcement is defined over average-request
        # *units* when costs vary (§4: "large requests are treated as
        # multiple small ones for the purpose of scheduling").
        if request.cost != 1.0:
            self.meter.record(f"units:{request.principal}", self.sim.now,
                              weight=request.cost)
        else:
            self.meter.record(f"units:{request.principal}", self.sim.now)
        if self.tracer is not None:
            self.tracer.record(
                self.sim.now, "completion",
                principal=request.principal, server=server.name,
                response_time=request.response_time, attempts=request.attempts,
            )

    def _register_node(
        self, name: str, node: EnforcementNode, capacity: Optional[float] = None
    ) -> None:
        """Trace every window's allocation of an enforcement node and audit
        it against ``capacity`` (requests/second; None = the community's
        total physical capacity)."""
        allocator = node.allocator
        if self.tracer is not None:
            inner = allocator.compute

            def traced(local, now=None):
                alloc = inner(local, now=now)
                self.tracer.record(
                    self.sim.now, "allocation", node=name,
                    quotas=dict(alloc.quotas), fallback=alloc.used_fallback,
                    global_estimate=dict(alloc.global_estimate),
                )
                return alloc

            allocator.compute = traced
        if self.invariants is not None:
            if capacity is None:
                capacity = float(self.access.V.sum())
            self.invariants.watch_allocator(
                name, allocator, capacity * self.window.length)

    def l7(
        self,
        name: str,
        servers: Mapping[str, Union[Server, List[Server]]],
        n_redirectors: Optional[int] = None,
        **kw,
    ) -> L7Redirector:
        red = L7Redirector(
            self.sim, name, self.access, servers, window=self.window,
            n_redirectors=n_redirectors or 1, **kw,
        )
        self.l7_redirectors[name] = red
        self._register_node(name, red)
        return red

    def l4(
        self,
        name: str,
        servers: Mapping[str, Union[Server, List[Server]]],
        n_redirectors: Optional[int] = None,
        mode: str = "community",
        prices: Optional[Mapping[str, float]] = None,
        capacity: Optional[float] = None,
        **kw,
    ) -> L4Switch:
        if self.lane == "columnar" and kw.get("health") is not None:
            # Health-checked pools need the checker's event-path probes.
            self.lane = "slotted"
            self.lane_fallback = "health-checked L4 pools need per-flow events"
        switch_cls = ColumnarL4Switch if self.lane == "columnar" else L4Switch
        switch = switch_cls(
            self.sim, name, self.access.names, servers, window=self.window, **kw,
        )
        daemon = L4Daemon(
            self.sim, f"{name}-daemon", switch, self.access, window=self.window,
            mode=mode, prices=prices, capacity=capacity,
            n_redirectors=n_redirectors or 1,
        )
        self.l4_switches[name] = switch
        self.l4_daemons[name] = daemon
        self._register_node(name, daemon, capacity)
        if self.invariants is not None:
            self.invariants.watch_switch(self.sim, switch, self.window.length)
        return switch

    def client(
        self,
        name: str,
        principal: str,
        redirector,
        rate: float,
        windows: Optional[Sequence[Tuple[float, float]]] = None,
        **kw,
    ) -> Union[ClientMachine, ColumnarClient]:
        if self.lane == "columnar":
            reason = self._columnar_unsupported(redirector, kw)
            if reason is None:
                ckw = dict(kw)
                for drop in ("users", "think", "stream_chunk"):
                    ckw.pop(drop, None)
                client = ColumnarClient(
                    self.sim, name, principal, redirector, rate,
                    rng=self.streams.get(f"client:{name}"),
                    active_windows=list(windows) if windows is not None else None,
                    **ckw,
                )
                assert self.columnar is not None
                self.columnar.register(client)
                self.clients[name] = client
                return client
            if self.columnar is not None and self.columnar.clients_by_code:
                # Mixed lanes on one run would break the pump's window
                # accounting; by now it is too late to demote cleanly.
                raise ValueError(
                    f"client {name!r} cannot join the columnar lane "
                    f"({reason}) after columnar clients were built"
                )
            self.lane = "slotted"
            self.lane_fallback = reason
        kw.pop("batch", None)  # ColumnarClient-only knob
        client = ClientMachine(
            self.sim, name, principal, redirector, rate,
            rng=self.streams.get(f"client:{name}"),
            active_windows=list(windows) if windows is not None else None,
            **kw,
        )
        self.clients[name] = client
        return client

    @staticmethod
    def _columnar_unsupported(redirector, kw: Dict) -> Optional[str]:
        """Why this client cannot run columnar (None when it can)."""
        if kw.get("mode", "open") != "open":
            return "closed-loop clients need per-request feedback"
        if kw.get("on_response") is not None:
            return "on_response hooks need per-request events"
        if hasattr(redirector, "columnar_group"):
            return None
        if isinstance(redirector, L7Redirector):
            if redirector.queuing != "implicit":
                return f"{redirector.queuing!r} queuing needs per-request events"
            if redirector.health is not None:
                return "health-checked pools need per-request events"
            return None
        return "redirector type does not support the columnar lane"

    # -- coordination -----------------------------------------------------------

    def connect_tree(
        self,
        link_delay: float = 0.005,
        kind: str = "star",
        fanout: int = 2,
        period: Optional[float] = None,
        extra_root: bool = False,
        loss: float = 0.0,
        jitter: float = 0.0,
        resilient: bool = False,
        heartbeat_period: float = 0.5,
        failure_timeout: Optional[float] = None,
    ) -> CombiningTree:
        """Wire every redirector (L7 and L4) into one combining tree.

        ``extra_root=True`` inserts a dedicated aggregator root that is not
        itself a redirector, making up+down latency symmetric for all
        redirectors (used by the Fig 8 delay experiment).

        ``resilient=True`` builds the tree through
        :class:`repro.coordination.membership.ResilientTree` — heartbeats,
        failure detection and automatic healing — and exposes it as
        ``self.membership``.  Stochastic link impairments (``loss``,
        ``jitter``) always draw from per-link spawned RNG substreams, and
        every directed link is registered in ``self.protocol_links`` for
        the fault injector.
        """
        if self._tree_built:
            raise RuntimeError("tree already built")
        participants: Dict[str, EnforcementNode] = {
            **self.l7_redirectors, **self.l4_daemons}
        ids = list(participants)
        if not ids:
            raise RuntimeError("no redirectors to connect")
        suppliers = {nid: participants[nid].local_demand for nid in ids}
        if extra_root:
            root = "__root__"
            tree_ids = [root] + ids
            suppliers[root] = lambda: {}
            tree = (
                CombiningTree.star(tree_ids)
                if kind == "star"
                else CombiningTree.balanced(tree_ids, fanout)
            )
        else:
            if kind == "star":
                tree = CombiningTree.star(ids)
            elif kind == "chain":
                tree = CombiningTree.chain(ids)
            else:
                tree = CombiningTree.balanced(ids, fanout)
        if resilient:
            self.membership = ResilientTree(
                self.sim, tree, period or self.window.length, suppliers,
                link_delay=link_delay, jitter=jitter, loss=loss,
                streams=self.streams, counter=self.counter,
                heartbeat_period=heartbeat_period,
                failure_timeout=failure_timeout,
            )
            nodes = self.membership.nodes
            self.protocol_links = self.membership.links
        else:
            self.membership = None
            self.protocol_links = {}
            nodes = build_protocol(
                self.sim, tree, period=period or self.window.length,
                suppliers=suppliers, link_delay=link_delay, jitter=jitter,
                loss=loss, streams=self.streams, counter=self.counter,
                link_registry=self.protocol_links,
            )
        for nid in ids:
            participants[nid].attach(nodes[nid])
        self._tree_built = True
        self.tree = tree
        self.protocol_nodes = nodes
        return tree

    # -- execution ---------------------------------------------------------------

    def run(self, duration: float) -> None:
        if self.invariants is None:
            if self.columnar is not None:
                # The last pump inside the run drains the server lanes'
                # queues, so their work is part of the run.
                self.columnar.horizon = duration
            self.sim.run(until=duration)
            if self.columnar is not None:
                # Commit the final partial window (boundary drift means the
                # last pump usually lies beyond the horizon).
                self.columnar.flush(duration)
            return
        self.sim.run(until=duration)

    def phase_rates(
        self,
        phases: Sequence[Tuple[str, float, float]],
        keys: Optional[Sequence[str]] = None,
        settle: float = 5.0,
    ) -> List[PhaseStats]:
        return summarize_phases(self.meter, phases, keys=keys, settle=settle)

    def series(self, keys: Sequence[str]) -> Dict[str, Tuple[np.ndarray, np.ndarray]]:
        return {k: self.meter.series(k) for k in keys}

    def response_stats(
        self, skip_fraction: float = 0.25
    ) -> Dict[str, Dict[str, float]]:
        """Per-principal response-time summaries from the clients.

        ``skip_fraction`` discards each client's earliest completions
        (start-up transient).  Response times include queueing, deferral
        retries and service.  Samples come from each client's bounded
        :class:`repro.sim.stats.StreamingStats` reservoir — exact while a
        run completes fewer requests than the reservoir capacity, a uniform
        sample beyond that.
        """
        by_principal: Dict[str, List[float]] = {}
        for client in self.clients.values():
            st = client.response_stats
            rts = st.tail_values(int(st.count * skip_fraction))
            by_principal.setdefault(client.principal, []).extend(rts)
        out: Dict[str, Dict[str, float]] = {}
        for p, rts in by_principal.items():
            if not rts:
                out[p] = {"count": 0.0}
                continue
            arr = np.asarray(rts)
            out[p] = {
                "count": float(arr.size),
                "mean": float(arr.mean()),
                "p50": float(np.percentile(arr, 50)),
                "p95": float(np.percentile(arr, 95)),
                "p99": float(np.percentile(arr, 99)),
                "max": float(arr.max()),
            }
        return out
