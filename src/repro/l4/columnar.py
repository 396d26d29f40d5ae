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

from typing import List, Optional, Tuple

import numpy as np

from repro.cluster.columnar import _Pending
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
        parts: List[np.ndarray] = []
        codes: List[np.ndarray] = []
        cost_parts: List[Optional[np.ndarray]] = []
        any_costs = False
        total = 0
        for c in self._order:
            t, cost = c.take_until(hi, closed)
            n = t.shape[0]
            if not n:
                continue
            c.issued += n
            parts.append(t)
            codes.append(np.full(n, c._code, dtype=np.int64))
            cost_parts.append(cost)
            if cost is not None:
                any_costs = True
            total += n
        releases = sw._columnar_releases
        if not total and not releases:
            return
        engine.requests += total
        if total:
            ts = np.concatenate(parts) if len(parts) > 1 else parts[0]
            cl = np.concatenate(codes) if len(codes) > 1 else codes[0]
            if any_costs:
                costs = np.concatenate([
                    cp if cp is not None else np.ones(pp.shape[0])
                    for cp, pp in zip(cost_parts, parts)
                ]) if len(parts) > 1 else (
                    cost_parts[0] if cost_parts[0] is not None
                    else np.ones(parts[0].shape[0])
                )
            else:
                costs = np.ones(total)
            if len(parts) > 1:
                order = engine.event_order(ts, cl)
                ts = ts[order]
                cl = cl[order]
                costs = costs[order]
            tl = ts.tolist()
            cll = cl.tolist()
            col = costs.tolist()
        else:
            tl = []
            cll = []
            col = []
        clients = engine.clients_by_code
        arrivals = sw._arrivals
        try_admit = sw._try_admit
        pick = sw._pick_server
        by_name = sw._server_by_name
        affinity = sw.conntrack._affinity
        syn_queues = sw._syn_queues
        max_q = sw.max_syn_queue
        admitted = sw.admitted
        dropped = sw.dropped
        queued = sw.queued
        # server name -> [server, times, costs, created, client codes,
        # principal codes]; insertion (= first submission) order.
        subs: dict = {}
        refused: List[int] = []  # arrival indices, for engine.refuse

        def _submit(server: str, t: float, cost: float, created: float,
                    code: int, pcode: int) -> None:
            rec = subs.get(server)
            if rec is None:
                rec = subs[server] = [by_name[server][1], [], [], [], [], []]
            rec[1].append(t)
            rec[2].append(cost)
            rec[3].append(created)
            rec[4].append(code)
            rec[5].append(pcode)

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
                    _submit(server, rt, flow.cost, flow.created,
                            flow.code, cli._pcode)
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
                    _submit(server, tl[ai], cost, tl[ai], code, cli._pcode)
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
            engine.refuse(ts[refused], cl[refused],
                          costs[refused] if any_costs else None)
        for rec in subs.values():
            srv, t_l, c_l, cr_l, cd_l, pc_l = rec
            t_a = np.asarray(t_l)
            c_a = np.asarray(c_l)
            engine.lane(srv).push(
                t_a,
                c_a if bool(np.any(c_a != 1.0)) else None,
                np.asarray(cr_l),
                np.asarray(cd_l, dtype=np.int64),
                np.asarray(pc_l, dtype=np.int64),
            )
