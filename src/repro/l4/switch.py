"""The Layer-4 switch: the paper's kernel-module model (§4.2).

Packet path, as in the LVS-based prototype:

- A client SYN addressed to the virtual service address arrives.  If the
  current allocation (installed by the user-space daemon) has quota for the
  owning principal, the switch picks a server — honouring client-machine
  affinity when the allocation still permits that server — installs a NAT
  mapping, records the connection, and forwards the rewritten SYN.
- If there is no quota, the SYN goes into a per-principal kernel queue; a
  kernel thread reinjects queued SYNs in subsequent windows as allowance
  appears (oldest first, spread evenly across the window so releases do
  not bunch).  The queue is bounded; overflow drops the SYN (RST), whose
  retransmission waits parked and is re-offered at ``install`` after reinjection.
- Non-SYN packets of admitted connections are translated through the NAT
  table and forwarded to the recorded server; responses are rewritten back
  to the virtual address.

For the experiments the switch exposes the same ``handle(request)``
admission API as the L7 redirector.  Each connection travels the data path
as one slotted :class:`FlowRecord` rather than as TCP segments: its state
lives in the arena tables (:class:`ArenaNatTable` /
:class:`ArenaConnTracker`), each window's reinjection queue drains through
one coalesced pump event, and servers are picked from a precomputed
best-slack heap.  The per-segment model of the same switch is kept in the
test suite as a bit-exact oracle (``tests/l4/packet_oracle.py``).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable, Deque, Dict, List, Mapping, Optional, Tuple, Union

from repro.cluster.client import Decision, Defer, Drop, Held, ParkedRequests
from repro.cluster.health import BackendHealthChecker
from repro.cluster.request import Request
from repro.cluster.server import Server
from repro.l4.conntrack import ArenaConnTracker
from repro.l4.nat import ArenaNatTable
from repro.l4.packets import FlowRecord, FourTuple
from repro.scheduling.allocator import Allocation
from repro.scheduling.queueing import ImplicitQuota
from repro.scheduling.window import WindowConfig, roll_ewma
from repro.scheduling.wrr import SmoothWeightedRoundRobin
from repro.sim.engine import Simulator

__all__ = ["L4Switch", "PortSpaceExhausted"]

# Ephemeral port range modelled after a real stack's net.ipv4.ip_local_port_range.
_PORT_LO = 10_000
_PORT_SPAN = 50_000


class PortSpaceExhausted(RuntimeError):
    """Every (client, port) tuple in the ephemeral range is in use.

    Subclasses :class:`RuntimeError` for callers that caught the previous
    untyped error.
    """


class L4Switch:
    """Kernel-module model: NAT redirection with per-principal SYN queues."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        principals: Tuple[str, ...],
        servers: Mapping[str, Union[Server, List[Server]]],
        window: WindowConfig = WindowConfig(),
        virtual_ip: str = "10.0.0.1",
        virtual_port: int = 80,
        max_syn_queue: int = 256,
        affinity: bool = True,
        spread_reinjection: bool = True,
        smoothing: float = 0.7,
        health: Optional[BackendHealthChecker] = None,
    ):
        self.sim = sim
        self.name = name
        self.principals = tuple(principals)
        self.window = window
        self.virtual_ip = virtual_ip
        self.virtual_port = int(virtual_port)
        self.max_syn_queue = int(max_syn_queue)
        self.affinity_enabled = bool(affinity)
        self.spread_reinjection = bool(spread_reinjection)
        self.smoothing = float(smoothing)
        # Fault model: when a health checker is attached, NAT forwarding
        # only targets backends in rotation (down/draining ones are
        # skipped); without one, a crashed backend surfaces as drops.
        self.health = health

        self.servers: Dict[str, List[Server]] = {}
        self._server_by_name: Dict[str, Tuple[str, Server]] = {}
        for owner, s in servers.items():
            pool = list(s) if isinstance(s, (list, tuple)) else [s]
            self.servers[owner] = pool
            for srv in pool:
                self._server_by_name[srv.name] = (owner, srv)

        self.nat = ArenaNatTable()
        self.conntrack = ArenaConnTracker()
        # Slot operations, pre-bound: the flow path calls these tens of
        # thousands of times per simulated minute, and the attribute
        # chain + bind per call is measurable there.
        self._nat_install_slot = self.nat.install_slot
        self._nat_remove = self.nat.remove
        self._ct_open_slot = self.conntrack.open_slot
        self._ct_close = self.conntrack.close
        # Live-tuple mappings, aliased for membership probes in the port
        # allocator: `tup in dict` with no method frame.
        self._nat_live = self.nat.live
        self._ct_live = self.conntrack.live
        self.quota = ImplicitQuota(self.principals)
        # `quota.principals` is a list-building property; admission tests
        # membership once per request, so keep a frozen set.
        self._principal_set = frozenset(self.principals)
        self._try_admit = self.quota.try_admit
        self._syn_queues: Dict[str, Deque[FlowRecord]] = {
            p: deque() for p in self.principals
        }
        self._wrr: Dict[str, SmoothWeightedRoundRobin] = {
            p: SmoothWeightedRoundRobin() for p in self.principals
        }
        # Ephemeral port space, per client IP: freed ports are reused via a
        # free list; otherwise a wrapping cursor walks the range.  A
        # (client, port) pair only has to stay unique among *live*
        # connections, and far fewer than the 50k-port span are ever
        # concurrently open; a full wrap without a free tuple raises
        # :class:`PortSpaceExhausted`.
        self._free_ports: Dict[str, List[int]] = {}
        self._port_cursor: Dict[str, int] = {}
        self._pending_tuples: set = set()  # tuples of SYNs waiting in kernel queues
        self._arrivals: Dict[str, float] = {p: 0.0 for p in self.principals}
        self.demand_estimate: Dict[str, float] = {p: 0.0 for p in self.principals}
        self.parked = ParkedRequests(self.principals, self._arrivals)
        self.park = self.parked.park
        self._weights: Dict[str, Dict[str, float]] = {p: {} for p in self.principals}
        # Per-window, per-(principal, server) forwarding budgets and usage.
        # The LP allocates per server *owner*; the budget is split across
        # the owner's pool by capacity so no single server is overrun, and
        # affinity may only route to a server while that server's budget
        # has room — "to the extent allowed by the sharing agreements".
        self._server_budget: Dict[str, Dict[str, float]] = {p: {} for p in self.principals}
        self._server_used: Dict[str, Dict[str, float]] = {p: {} for p in self.principals}
        # Per-principal best-slack heap over the window's server budgets,
        # entries (-slack, insertion_idx, name).  Rebuilt each install;
        # revalidated lazily (see _pick_from_heap).
        self._slack_heap: Dict[str, List[Tuple[float, int, str]]] = {
            p: [] for p in self.principals
        }
        # Decisions are frozen dataclasses the clients only type-check, so
        # the switch hands out shared singletons, not one per SYN.
        self._held = Held()
        self._defer = Defer()

        # Telemetry
        self.admitted: Dict[str, int] = {p: 0 for p in self.principals}
        self.queued: Dict[str, int] = {p: 0 for p in self.principals}
        self.dropped: Dict[str, int] = {p: 0 for p in self.principals}
        self.reinjected: Dict[str, int] = {p: 0 for p in self.principals}
        self.affinity_hits = 0

    # -- daemon interface -----------------------------------------------------

    def install(self, alloc: Allocation) -> None:
        """The user-space daemon pushes the next window's allocation."""
        self.quota.new_window(alloc.quotas)
        for p, w in alloc.weights.items():
            usable = {owner: v for owner, v in w.items() if owner in self.servers}
            self._weights[p] = usable
            self._wrr[p].set_weights(usable)
            total_w = sum(usable.values())
            quota = alloc.quotas.get(p, 0.0)
            budget: Dict[str, float] = {}
            if total_w > 0:
                for owner, v in usable.items():
                    pool = self.servers[owner]
                    cap_total = sum(s.capacity for s in pool)
                    share = quota * v / total_w
                    for srv in pool:
                        # One request of slack so rounding does not starve.
                        budget[srv.name] = share * srv.capacity / cap_total + 1.0
            self._server_budget[p] = budget
            self._server_used[p] = {name: 0.0 for name in budget}
            # used is all-zero here, so slack == budget exactly.
            heap = [(-b, i, name) for i, (name, b) in enumerate(budget.items())]
            heapq.heapify(heap)
            self._slack_heap[p] = heap
        # Rolled after the daemon's solve: its LP saw last window's estimate.
        roll_ewma(self.demand_estimate, self._arrivals, self.smoothing)
        self._schedule_reinjection()
        self.parked.reoffer(self.sim.now)

    def local_demand(self) -> Dict[str, float]:
        """Kernel queue lengths plus the incoming-rate estimate — the
        'queue length information' the daemon aggregates."""
        return {
            p: len(self._syn_queues[p]) + self.demand_estimate[p]
            for p in self.principals
        }

    def queue_lengths(self) -> Dict[str, int]:
        return {p: len(q) for p, q in self._syn_queues.items()}

    def sweep_idle(self, now: float) -> int:
        """Expire idle connections *and* their NAT mappings together.

        Expiring conntrack alone leaks NAT entries forever (and keeps
        translating packets for flows the tracker has forgotten) — the
        invariant checker's "NAT entries == open conntrack flows" ledger
        caught exactly that.  Returns how many flows were expired.
        """
        stale = self.conntrack.expire_stale(now)
        for tup in stale:
            if self.nat.remove(tup):
                self._release_port(tup[0], tup[1])
        return len(stale)

    # -- client adapter ------------------------------------------------------------

    def handle(self, request: Request, done: Optional[Callable[[Request], None]] = None) -> Decision:
        """Admission API used by :class:`repro.cluster.client.ClientMachine`:
        runs the request's connection through the flow path.

        A SYN lost to kernel-queue overflow is reported as :class:`Defer`:
        the client's TCP stack would retransmit the SYN after a timeout;
        the open-loop client parks it here until the next ``install``.
        """
        if request.principal not in self._principal_set:
            return Drop()
        return self._handle_flow(request, done)

    def _claim_tuple(self, client_ip: str) -> FourTuple:
        """Allocate a free (client, port, vip, vport) tuple.

        Freed ports are preferred (LIFO — cache-warm and keeps the cursor
        from wrapping); each candidate is re-checked against live state, so
        a stray double-release can never hand out a port that is still in
        use.  Falls back to a per-client wrapping cursor over the whole
        range and raises :class:`PortSpaceExhausted` after a full wrap —
        the previous fixed-probe-count search degraded linearly under
        pressure and then failed spuriously long before true exhaustion.
        """
        nat, ct, pending = self._nat_live, self._ct_live, self._pending_tuples
        vip, vport = self.virtual_ip, self.virtual_port
        free = self._free_ports.get(client_ip)
        while free:
            port = free.pop()
            tup = (client_ip, port, vip, vport)
            if tup not in nat and tup not in ct and tup not in pending:
                return tup
        start = self._port_cursor.get(client_ip, 0)
        for off in range(_PORT_SPAN):
            idx = start + off
            if idx >= _PORT_SPAN:
                idx -= _PORT_SPAN
            tup = (client_ip, _PORT_LO + idx, vip, vport)
            if tup not in nat and tup not in ct and tup not in pending:
                self._port_cursor[client_ip] = idx + 1 if idx + 1 < _PORT_SPAN else 0
                return tup
        raise PortSpaceExhausted(
            f"all {_PORT_SPAN} ephemeral ports for {client_ip} are in use"
        )

    def _release_port(self, client_ip: str, port: int) -> None:
        """Return a port to the client's free list once its state is gone."""
        free = self._free_ports.get(client_ip)
        if free is None:
            free = self._free_ports[client_ip] = []
        free.append(port)

    # -- flow path ------------------------------------------------------------------

    def _handle_flow(
        self, request: Request, done: Optional[Callable[[Request], None]]
    ) -> Decision:
        """Admit, queue or refuse one connection as a :class:`FlowRecord`:
        quota first, then the bounded kernel SYN queue."""
        p = request.principal
        cost = request.cost
        self._arrivals[p] += cost
        if self._try_admit(p, cost):
            flow = FlowRecord(
                self, request, done, self._claim_tuple(request.client_id)
            )
            return self._held if self._admit_flow(flow) else self._defer
        q = self._syn_queues[p]
        if len(q) >= self.max_syn_queue:
            # Overflow drop: no port was claimed yet, nothing to release.
            self.dropped[p] += 1
            return self._defer
        flow = FlowRecord(self, request, done, self._claim_tuple(request.client_id))
        q.append(flow)
        self._pending_tuples.add(flow.tup)
        self.queued[p] += 1
        return self._held

    def _admit_flow(self, flow: FlowRecord) -> bool:
        """Pick a server, install the NAT mapping and connection, submit.

        A backend that refuses the request (crashed or overflowed) tears
        the flow back down so no NAT/conntrack state leaks."""
        tup = flow.tup
        self._pending_tuples.discard(tup)
        p = flow.request.principal
        server = self._pick_server(p, tup[0])
        if server is None:
            self.dropped[p] += 1
            self._release_port(tup[0], tup[1])
            return False
        srv = self._server_by_name[server][1]
        self._nat_install_slot(tup, server, self.virtual_port)
        self._ct_open_slot(tup, server, p, self.sim.now)
        flow.server = server
        # The record itself is the completion callback — no closure.
        if not srv.submit(flow.request, done=flow):
            self._ct_close(tup)
            if self._nat_remove(tup):
                self._release_port(tup[0], tup[1])
            self.dropped[p] += 1
            return False
        self.admitted[p] += 1
        return True

    def _on_response_flow(self, flow: FlowRecord, request: Request) -> None:
        """Server completed a flow: tear down and report.

        The response's source rewrite back to the virtual address is a
        counter bump, gated, like the port release, on the NAT mapping
        still existing (an idle sweep may already have torn the flow
        down)."""
        tup = flow.tup
        flow.response_bytes = request.size_bytes
        self._ct_close(tup)
        if self._nat_remove(tup):
            self.nat.rewrites_out += 1
            self._release_port(tup[0], tup[1])
        if flow.done is not None:
            flow.done(request)

    def _usable(self, name: str) -> bool:
        return self.health is None or self.health.is_healthy(name)

    def _pick_server(self, principal: str, client_ip: str) -> Optional[str]:
        budget = self._server_budget.get(principal) or {}
        if not budget:
            return None
        used = self._server_used.get(principal)
        if used is None:
            used = self._server_used[principal] = {}
        if self.affinity_enabled:
            pref = self.conntrack.preferred_server(client_ip, principal)
            # Affinity only "to the extent allowed by the sharing
            # agreements": the preferred server must still have unspent
            # allocation this window, otherwise affinity would skew the
            # LP's per-server split and overload that server.
            if pref is not None:
                u = used.get(pref, 0.0)
                if u < budget.get(pref, 0.0) and self._usable(pref):
                    used[pref] = u + 1.0
                    self.affinity_hits += 1
                    return pref
        # The server with the most remaining budget this window
        # (deterministic proportional fill across the allocation).
        best = self._pick_from_heap(principal, budget, used)
        if best is None:
            # Every budget exhausted (demand burst within a window): spill
            # proportionally to the budgets rather than refuse.
            usable = [n for n in budget if self._usable(n)]
            if not usable:
                return None
            best = max(usable, key=lambda n: budget[n] - used.get(n, 0.0))
        used[best] = used.get(best, 0.0) + 1.0
        return best

    def _pick_from_heap(
        self,
        principal: str,
        budget: Dict[str, float],
        used: Dict[str, float],
    ) -> Optional[str]:
        """Max-slack pick via the precomputed heap, O(log n) amortised.

        Entries are lazily revalidated: ``used`` moves under the heap
        (affinity hits, previous picks), so slack recorded in an entry can
        only *overstate* the truth.  The top therefore bounds the real
        maximum; a stale top is corrected in place and the loop retried.
        Slack is always recomputed from ``budget``/``used`` — never by
        arithmetic on a previous slack — so the comparison keys are
        bit-identical to a linear scan's, and the ``insertion_idx``
        tie-break reproduces its first-in-dict-order choice exactly.
        """
        heap = self._slack_heap.get(principal)
        if not heap:
            return None
        set_aside: List[Tuple[float, int, str]] = []
        best: Optional[str] = None
        health = self.health
        while heap:
            neg, idx, name = heap[0]
            slack = budget[name] - used.get(name, 0.0)
            if -neg != slack:
                heapq.heapreplace(heap, (-slack, idx, name))
                continue
            if slack <= 0.0:
                break  # true maximum is non-positive -> caller spills
            if health is not None and not health.is_healthy(name):
                set_aside.append(heapq.heappop(heap))
                continue
            best = name
            break
        for entry in set_aside:
            heapq.heappush(heap, entry)
        return best

    # -- reinjection -------------------------------------------------------------------

    def _schedule_reinjection(self) -> None:
        """Kernel thread: reinject queued SYNs as the new window's quota
        allows, oldest first, optionally spread across the window.

        Quota is consumed for every release *here*, at install time, so
        the per-window admitted counts are fixed before any reinjection
        fires.  The batch drains through a single pump event that re-arms
        itself along the release times — one outstanding heap entry
        instead of one per SYN.
        """
        flows: List[FlowRecord] = []
        for p in self.principals:
            q = self._syn_queues[p]
            while q:
                flow = q[0]
                if not self._try_admit(p, flow.request.cost):
                    break
                q.popleft()
                self.reinjected[p] += 1
                flows.append(flow)
        n = len(flows)
        if not n:
            return
        if not self.spread_reinjection:
            self.sim.schedule(0.0, self._pump_reinjection, flows, None, 0)
            return
        # Absolute release times.  ColumnarL4Switch computes the same float
        # expression, so both lanes admit at bit-identical instants.
        now = self.sim.now
        length = self.window.length
        times = [now + (idx / n) * length for idx in range(n)]
        self.sim.schedule_at(times[0], self._pump_reinjection, flows, times, 0)

    def _pump_reinjection(
        self,
        flows: List[FlowRecord],
        times: Optional[List[float]],
        i: int,
    ) -> None:
        """Kernel thread: admit every due release, then re-arm once at
        the next release time (coalesced drain)."""
        n = len(flows)
        if times is None:
            while i < n:
                self._admit_flow(flows[i])
                i += 1
            return
        now = self.sim.now
        while i < n and times[i] <= now:
            self._admit_flow(flows[i])
            i += 1
        if i < n:
            self.sim.schedule_at(times[i], self._pump_reinjection, flows, times, i)
