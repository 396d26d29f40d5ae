"""Columnar lane for the L4 switch: windowed bulk flow admission.

:class:`ColumnarL4Switch` keeps the real :class:`L4Switch` admission state
— quota, per-server budgets/used/heap, EWMA demand, kernel SYN queues,
the :class:`~repro.cluster.client.ParkedRequests` FIFOs — and replays the
slotted lane's per-flow decisions from columnar client batches inside the
engine pump, one Python step per *flow* but zero heap events, zero
:class:`Request`/:class:`FlowRecord` objects and zero
NAT/port/conntrack-ring bookkeeping on the hot path.

What is skipped is exactly the unobservable part: NAT slots, ephemeral
ports and the conntrack expiry ring feed no digest (server counters,
meters and per-window admitted/dropped traces never read them), and the
idle sweep over an empty ring is a no-op.  Client-machine affinity *is*
observable (it steers ``_pick_server``), so admissions write the
``(client, principal) -> server`` affinity entry directly — the only
effect ``open_slot`` has on later decisions.

Reinjection becomes data instead of events: the daemon's ``install`` still
drains the SYN queues against next-window quota (so per-window admitted
counts stay fixed at install time, like the slotted lane), but the
releases are recorded with their exact slotted-lane times
``now + (idx / n) * length`` and merged into the next pump's arrival
stream.  A release at its install boundary fires *after* arrivals at that
instant (the slotted reinjection pump is scheduled at the boundary and so
carries the largest sequence number); all other releases precede
equal-time arrivals.

A SYN refused with the queue full (or admitted with no server to take it)
parks at the switch, and ``install`` re-offers the parked FIFOs right
after the reinjection drain, through ``handle`` like an event-lane client
(:meth:`ColumnarL4Switch._handle_flow`): quota, then the SYN queue, then
a server pick with affinity, submitted at the boundary instant — ahead of
that boundary's first reinjection release, which the event lanes fire as
a later event.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Tuple

from repro.cluster.columnar import _Pending, _columns, _select
from repro.l4.switch import L4Switch

__all__ = ["ColumnarL4Switch"]


class ColumnarL4Switch(L4Switch):
    """Switch whose flow path is driven by a ColumnarEngine."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._columnar_engine = None
        # (release time, flow, at_install_boundary), ascending in time;
        # produced by install's queue drain, consumed by the next pump.
        self._columnar_releases: List[Tuple[float, _Pending, bool]] = []

    # -- ColumnarEngine integration ---------------------------------------

    def columnar_group(self, engine) -> "_L4Group":
        self._columnar_engine = engine
        return _L4Group(engine, self)

    def _handle_flow(self, request, done=None):
        """``handle`` for one re-offered columnar flow (a ``_Pending``): the
        slotted lane's admission, with an admitted flow submitted to its
        server's lane at the boundary instant and affinity written
        directly; a refusal counts as a dropped SYN, as in the event lanes."""
        engine = self._columnar_engine
        if engine is None:
            return super()._handle_flow(request, done)
        p = request.principal
        self._arrivals[p] += request.cost
        if self._try_admit(p, request.cost):
            client = engine.clients_by_code[request.code]
            server = self._pick_server(p, client.name)
            if server is not None:
                self.conntrack._affinity[(client.name, p)] = server
                self.admitted[p] += 1
                engine.lane(self._server_by_name[server][1]).submit(
                    self.sim.now, request.cost, request.created,
                    client._code, client._pcode,
                )
                return self._held
        elif len(self._syn_queues[p]) < self.max_syn_queue:
            self._syn_queues[p].append(request)
            self.queued[p] += 1
            return self._held
        self.dropped[p] += 1
        return self._defer

    def _schedule_reinjection(self) -> None:
        if self._columnar_engine is None:
            super()._schedule_reinjection()
            return
        flows: List[_Pending] = []
        for p in self.principals:
            q = self._syn_queues[p]
            while q:
                flow = q[0]
                if not self._try_admit(p, flow.cost):
                    break
                q.popleft()
                self.reinjected[p] += 1
                flows.append(flow)
        n = len(flows)
        if not n:
            return
        now = self.sim.now
        rel = self._columnar_releases
        if not self.spread_reinjection:
            for flow in flows:
                rel.append((now, flow, True))
            return
        length = self.window.length
        for idx, flow in enumerate(flows):
            # Same float expression as the slotted lane.
            rel.append((now + (idx / n) * length, flow, idx == 0))


class _L4Group:
    """Columnar drive of one :class:`ColumnarL4Switch`.

    Per-flow admission shares too much window state to vectorise safely
    (budgets/used move under affinity and spill picks, queues bound at 256)
    so flows replay through the *live* ``_try_admit``/``_pick_server`` in
    merged event order — exact by construction, and still ~an order of
    magnitude cheaper than the slotted lane's per-flow heap events.
    """

    def __init__(self, engine, switch: ColumnarL4Switch) -> None:
        self.engine = engine
        self.switch = switch
        self._order: List = []

    def add_client(self, client) -> None:
        if client.principal not in self.switch._principal_set:
            raise ValueError(
                f"unknown principal {client.principal!r} for {self.switch.name}"
            )
        self._order.append(client)

    def advance(self, hi: float, closed: bool) -> None:
        sw = self.switch
        engine = self.engine
        batch = engine.gather(self._order, hi, closed)
        releases = sw._columnar_releases
        if batch is None:
            if not releases:
                return
            tl = cll = col = []
        else:
            tl = batch[0].tolist()
            cll = batch[3].tolist()
            col = [1.0] * len(tl) if batch[1] is None else batch[1].tolist()
        clients = engine.clients_by_code
        arrivals = sw._arrivals
        try_admit = sw._try_admit
        pick = sw._pick_server
        affinity = sw.conntrack._affinity
        syn_queues = sw._syn_queues
        max_q = sw.max_syn_queue
        admitted = sw.admitted
        dropped = sw.dropped
        queued = sw.queued
        # server name -> submission rows (t, cost, created, client code,
        # principal code); insertion (= first submission) order.
        subs: Dict[str, List[tuple]] = defaultdict(list)
        refused: List[int] = []  # arrival indices, for engine.refuse
        na = len(tl)
        nrel = len(releases)
        ai = 0
        ri = 0
        while True:
            due = ri < nrel
            if due:
                rt, flow, at_boundary = releases[ri]
                if (rt > hi) if closed else (rt >= hi):
                    due = False
            if due and ai < na:
                at = tl[ai]
                fire_release = rt < at or (rt == at and not at_boundary)
            elif due:
                fire_release = True
            elif ai < na:
                fire_release = False
            else:
                break
            if fire_release:
                cli = clients[flow.code]
                p = flow.principal
                server = pick(p, cli.name)
                if server is None:
                    # Quota was consumed at install; the flow vanishes
                    # (the client already counted it at queue time).
                    dropped[p] += 1
                else:
                    affinity[(cli.name, p)] = server
                    admitted[p] += 1
                    subs[server].append((rt, flow.cost, flow.created,
                                         flow.code, cli._pcode))
                ri += 1
                continue
            code = cll[ai]
            cost = col[ai]
            cli = clients[code]
            p = cli.principal
            arrivals[p] += cost
            if try_admit(p, cost):
                server = pick(p, cli.name)
                if server is None:
                    dropped[p] += 1
                    refused.append(ai)
                else:
                    affinity[(cli.name, p)] = server
                    admitted[p] += 1
                    cli.admitted += 1
                    subs[server].append((tl[ai], cost, tl[ai], code, cli._pcode))
            else:
                q = syn_queues[p]
                if len(q) >= max_q:
                    dropped[p] += 1
                    refused.append(ai)
                else:
                    q.append(_Pending(p, cost, tl[ai], code))
                    queued[p] += 1
                    cli.admitted += 1
            ai += 1
        if ri:
            del releases[:ri]
        if refused:
            engine.refuse(_select(batch, refused))
        by_name = sw._server_by_name
        for server, rows in subs.items():
            engine.lane(by_name[server][1]).push(_columns(rows))
