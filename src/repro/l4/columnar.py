"""Columnar lane for the L4 switch: windowed bulk flow admission.

:class:`ColumnarL4Switch` keeps the real :class:`L4Switch` admission state
— quota, per-server budgets/used/heap, EWMA demand, kernel SYN queues,
the :class:`~repro.cluster.client.ParkedRequests` FIFOs — and reproduces
the slotted lane's per-flow decisions from columnar client batches inside
the engine pump: zero heap events, zero :class:`Request`/:class:`FlowRecord`
objects and zero NAT/port/conntrack-ring bookkeeping.

What is skipped is exactly the unobservable part: NAT slots, ephemeral
ports and the conntrack expiry ring feed no digest (server counters,
meters and per-window admitted/dropped traces never read them), and the
idle sweep over an empty ring is a no-op.  Client-machine affinity *is*
observable (it steers ``_pick_server``), so admissions write the
``(client, principal) -> server`` affinity entry directly — the only
effect ``open_slot`` has on later decisions.

Admission is per principal.  Inside one pump a principal's quota budget
and SYN queue move only through that principal's own arrivals:
reinjection releases spent their quota at install, and nothing pops a SYN
queue before the next install.  So each principal's arrivals split, in
order, in one array step (:func:`_split`): admitted while the budget
holds, queued up to the queue's free room, refused (parked by
``ColumnarEngine.refuse``) beyond it.  Only the admitted arrivals and the
due reinjection releases then run one at a time, merged in firing order,
because their server picks depend on order (per-server usage, client
affinity): the affinity hit — nearly every pick — inline, the best-slack
heap and the spill through ``_pick_server``.  The inline pick skips the
health probe, so the switch refuses a health checker.

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
after the reinjection drain, through ``handle`` like an event-lane client:
``ParkedRequests.reoffer`` asks each client's activity once per install,
and :meth:`ColumnarL4Switch._handle_flow` is the split's rule for one flow
(quota, then the SYN queue, then a server pick with affinity), an
admitted flow submitted to its server's lane at the boundary instant —
ahead of that boundary's first reinjection release, which the event
lanes fire as a later event.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.columnar import (
    LaneError, _Pending, _columns, _concat, _greedy_admit, _select,
    _unit_admit,
)
from repro.l4.switch import L4Switch

__all__ = ["ColumnarL4Switch"]


def _split(
    budget: float, n: int, costs: Optional[np.ndarray], room: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """One principal's ``n`` arrivals, in order, against its quota and the
    free room of its SYN queue: (admitted, queued and refused indices, new
    budget); ``costs`` None for unit costs.

    ``try_admit`` one flow at a time admits a prefix of a unit-cost batch
    (:func:`_unit_admit`) and the greedy set of :func:`_greedy_admit` of a
    sized one (integer costs: a smaller flow may pass after a larger one
    failed); a flow it refuses takes a queue slot while one is free, and
    none frees inside a pump, so the first ``room`` of them queue and the
    rest are refused.
    """
    if costs is None:
        k = _unit_admit(budget, n)
        idx = np.arange(n)
        admitted, rest, budget = idx[:k], idx[k:], budget - float(k)
    else:
        mask, budget = _greedy_admit(budget, costs)
        admitted, rest = mask.nonzero()[0], (~mask).nonzero()[0]
    return admitted, rest[:room], rest[room:], budget


class ColumnarL4Switch(L4Switch):
    """Switch whose flow path is driven by a ColumnarEngine."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if self.health is not None:
            raise LaneError(f"L4 switch {self.name!r}",
                            "health-checked L4 pools need per-flow events")
        self._columnar_engine = None
        # (release time, flow, at_install_boundary), ascending in time;
        # produced by install's queue drain, consumed by the next pump.
        self._columnar_releases: List[Tuple[float, _Pending, bool]] = []

    # -- ColumnarEngine integration ---------------------------------------

    def columnar_group(self, engine) -> "_L4Group":
        self._columnar_engine = engine
        return _L4Group(engine, self)

    def _handle_flow(self, flow, done=None):
        """``handle`` for one re-offered flow (a ``_Pending``): the rule
        :func:`_split` applies to a batch — quota, then the SYN queue's
        free room, else refused (a dropped SYN) — with an admitted flow's
        server picked, its affinity written directly and the flow
        submitted to the server's lane at the boundary instant."""
        engine = self._columnar_engine
        if engine is None:
            return super()._handle_flow(flow, done)
        p = flow.principal
        cost = flow.cost
        self._arrivals[p] += cost
        if self._try_admit(p, cost):
            client = engine.clients_by_code[flow.code]
            server = self._pick_server(p, client.name)
            if server is not None:
                self.conntrack._affinity[(client.name, p)] = server
                self.admitted[p] += 1
                engine.lane(self._server_by_name[server][1]).submit(
                    self.sim.now, cost, flow.created, flow.code, client._pcode,
                )
                return self._held
        else:
            syn = self._syn_queues[p]
            if len(syn) < self.max_syn_queue:
                syn.append(flow)
                self.queued[p] += 1
                return self._held
        self.dropped[p] += 1
        return self._defer

    def _schedule_reinjection(self) -> None:
        if self._columnar_engine is None:
            super()._schedule_reinjection()
            return
        try_admit = self._try_admit
        flows: List[_Pending] = []
        for p in self.principals:
            q = self._syn_queues[p]
            n = 0
            while q and try_admit(p, q[0].cost):
                flows.append(q.popleft())
                n += 1
            self.reinjected[p] += n
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

    Each pump splits the window's arrivals per principal in one array step
    (:meth:`_admit`); the admitted arrivals and the due reinjection
    releases then pick their servers one at a time in merged firing order
    (:meth:`_pick`), and each server's picks go to its lane as one chunk.
    """

    def __init__(self, engine, switch: ColumnarL4Switch) -> None:
        self.engine = engine
        self.switch = switch
        self._order: List = []
        # client code -> its affinity key (client, principal)
        self._key: Dict[int, Tuple[str, str]] = {}

    def add_client(self, client) -> None:
        if client.principal not in self.switch._principal_set:
            raise ValueError(
                f"unknown principal {client.principal!r} for {self.switch.name}"
            )
        self._order.append(client)
        self._key[client._code] = (client.name, client.principal)

    def advance(self, hi: float, closed: bool) -> None:
        sw = self.switch
        engine = self.engine
        batch = engine.gather(self._order, hi, closed)
        releases = sw._columnar_releases
        nrel = 0
        for rt, _, _ in releases:
            if (rt > hi) if closed else (rt >= hi):
                break
            nrel += 1
        if batch is None and not nrel:
            return
        due = releases[:nrel]
        del releases[:nrel]
        if batch is None:
            tl = cll = []
        else:
            admit, taken = self._admit(batch)
            rows = admit.nonzero()[0]
            tl, cll = batch[0][rows].tolist(), batch[3][rows].tolist()
        subs, lost = self._pick(tl, cll, due)
        if batch is not None:
            if lost:
                taken[rows[lost]] = False
            if not taken.all():
                engine.refuse(_select(batch, ~taken))
            clients = engine.clients_by_code
            for code, cnt in enumerate(np.bincount(batch[3][taken]).tolist()):
                if cnt:
                    clients[code].admitted += cnt
        if not subs:
            return
        # The merged positions' columns: admitted arrivals, then releases.
        chunks = [] if batch is None else [_select(batch, rows)]
        if due:
            by_code = engine.clients_by_code
            chunks.append(_columns([
                (t, flow.cost, flow.created, flow.code, by_code[flow.code]._pcode)
                for t, flow, _ in due
            ]))
        merged = _concat(chunks)
        by_name = sw._server_by_name
        for server, sel in subs.items():
            ts, costs, created, cl, pc = _select(merged, np.array(sel))
            if costs is not None and not bool(np.any(costs != 1.0)):
                costs = None
            engine.lane(by_name[server][1]).push((ts, costs, created, cl, pc))

    def _admit(self, batch: tuple) -> Tuple[np.ndarray, np.ndarray]:
        """Count the batch as demand and split it per principal
        (:func:`_split`): quota spent, refused SYNs queued while there is
        room.  Returns (admitted mask, admitted-or-queued mask)."""
        sw = self.switch
        ts, costs, _, cl, pc = batch
        n = cl.shape[0]
        quota = sw.quota
        names = self.engine.principal_names
        admit = np.zeros(n, dtype=bool)
        taken = np.ones(n, dtype=bool)
        present = np.bincount(pc).nonzero()[0].tolist()
        for pcode in present:
            p = names[pcode]
            sel = (np.arange(n) if len(present) == 1
                   else (pc == pcode).nonzero()[0])
            m = sel.shape[0]
            c = None if costs is None else costs[sel]
            # Integer costs onto an integer-valued ledger: one add of the
            # sum equals the per-flow `+= cost` chain.
            sw._arrivals[p] += float(m) if c is None else float(c.sum())
            syn = sw._syn_queues[p]
            adm, queued, refused, quota._budget[p] = _split(
                quota._budget[p], m, c, sw.max_syn_queue - len(syn))
            quota.admitted[p] += adm.shape[0]
            quota.rejected[p] += m - adm.shape[0]
            sw.dropped[p] += refused.shape[0]
            admit[sel[adm]] = True
            if refused.shape[0]:
                taken[sel[refused]] = False
            if queued.shape[0]:
                sw.queued[p] += queued.shape[0]
                at = sel[queued]
                qcost = ([1.0] * queued.shape[0] if c is None
                         else c[queued].tolist())
                for t, cost, code in zip(ts[at].tolist(), qcost,
                                         cl[at].tolist()):
                    syn.append(_Pending(p, cost, t, code))
        return admit, taken

    def _pick(
        self, tl: List[float], cll: List[int], due: list,
    ) -> Tuple[Dict[str, List[int]], List[int]]:
        """Pick a server for each admitted arrival (times ``tl``, client
        codes ``cll``) and each due release, in firing order: a release
        precedes equal-time arrivals unless it is at its install boundary.
        Returns (server name -> merged positions in submission order,
        arrivals no server took); position ``i`` is arrival ``i`` and
        ``len(tl) + r`` release ``r``.  Server names key the dict in
        order of first submission."""
        sw = self.switch
        keys = self._key
        affinity = sw.conntrack._affinity
        use_affinity = sw.affinity_enabled
        budgets = sw._server_budget
        used_of = sw._server_used
        pick = sw._pick_server
        admitted = sw.admitted
        dropped = sw.dropped
        hits = 0
        lost: List[int] = []
        subs: Dict[str, List[int]] = defaultdict(list)
        na = len(tl)
        nrel = len(due)
        ai = ri = 0
        while ai < na or ri < nrel:
            if ri < nrel:
                rt, flow, at_boundary = due[ri]
                release = ai == na or rt < tl[ai] or (
                    rt == tl[ai] and not at_boundary)
            else:
                release = False
            if release:
                # Quota was consumed at install, and the client counted the
                # flow when it queued.
                code = flow.code
                pos = na + ri
                ri += 1
            else:
                code = cll[ai]
                pos = ai
                ai += 1
            key = keys[code]
            p = key[1]
            server = affinity.get(key) if use_affinity else None
            if server is not None:
                # _pick_server's affinity hit, inline.
                used = used_of[p]
                u = used.get(server, 0.0)
                if u < budgets[p].get(server, 0.0):
                    used[server] = u + 1.0
                    hits += 1
                else:
                    server = None
            if server is None:
                server = pick(p, key[0])
                if server is None:
                    dropped[p] += 1
                    if not release:
                        lost.append(pos)
                    continue
                affinity[key] = server
            admitted[p] += 1
            subs[server].append(pos)
        sw.affinity_hits += hits
        return subs, lost
