"""Simulated Layer-7 HTTP redirector (paper §4.1).

The redirector is an :class:`repro.scheduling.node.EnforcementNode`: every
scheduling window (100 ms in all experiments) it smooths the window's
arrivals into its demand estimate, solves the window LP through the node,
and installs the result as per-principal admission quotas and per-server
forwarding weights.

Admission is the paper's *implicit queuing*: requests within quota are
redirected (HTTP 302) to a server chosen by smooth weighted round-robin
over the LP's per-server split; requests beyond quota get a self-redirect
(:class:`repro.cluster.client.Defer`) and wait in the redirector's
:class:`repro.cluster.client.ParkedRequests` until step 3.  The original
*explicit queuing* — hold requests and release a batch at the next window
boundary, whose bunching anomaly the paper §4.1 describes — is available
with ``queuing="explicit"`` for the ablation benchmark.

A third admission engine, ``queuing="credits"``, implements the
credit-based virtual-time alternative the paper's §6 says it found "more
suitable to our distributed context": instead of a per-window counter, each
principal accrues credits continuously at its allocated rate, which smooths
admission within the window (no boundary discontinuities) while tracking
the same LP allocation.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.cluster.client import Decision, Defer, Drop, Held, ParkedRequests, Redirect
from repro.cluster.health import BackendHealthChecker
from repro.cluster.request import Request
from repro.cluster.server import Server
from repro.core.access import AccessLevels
from repro.scheduling.allocator import Allocation
from repro.scheduling.credits import CreditScheduler
from repro.scheduling.node import EnforcementNode
from repro.scheduling.queueing import ImplicitQuota, PrincipalQueues
from repro.scheduling.window import WindowConfig, roll_ewma
from repro.scheduling.wrr import SmoothWeightedRoundRobin
from repro.sim.engine import Simulator

__all__ = ["L7Redirector"]


class L7Redirector(EnforcementNode):
    """One Layer-7 redirector: an enforcement node whose install is
    admission quotas, WRR forwarding and the parked re-offers.

    Args:
        sim: simulation kernel.
        name: redirector id (also its combining-tree node id).
        access: per-second access levels for the agreement graph.
        servers: servers per owning principal (the community LP's
            ``x_ik`` sends principal i's requests to owner k's servers).
        window: scheduling window config.
        mode: ``"community"`` or ``"provider"``.
        prices: provider mode only — price per extra request per customer.
        n_redirectors: total redirectors (for the conservative fallback).
        queuing: ``"implicit"`` (default, what the paper shipped) or
            ``"explicit"`` (windowed hold-and-release, for the ablation).
        smoothing: EWMA weight on the newest window's arrivals.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        access: AccessLevels,
        servers: Mapping[str, Union[Server, List[Server]]],
        window: WindowConfig = WindowConfig(),
        mode: str = "community",
        prices: Optional[Mapping[str, float]] = None,
        capacity: Optional[float] = None,
        n_redirectors: int = 1,
        queuing: str = "implicit",
        smoothing: float = 0.7,
        max_held: int = 0,
        stale_after: Optional[float] = None,
        health: Optional[BackendHealthChecker] = None,
    ):
        if queuing not in ("implicit", "explicit", "credits"):
            raise ValueError(f"unknown queuing {queuing!r}")
        if not 0.0 < smoothing <= 1.0:
            raise ValueError("smoothing must be in (0, 1]")
        self.queuing = queuing
        self.smoothing = float(smoothing)
        # Fault model: route only to health-checked backends; degrade the
        # allocator to 1/R when the global view goes stale (partition).
        # ``alive`` is the redirector process itself — down means clients
        # get no answer (Drop), parked requests included at the next boundary.
        self.health = health
        self.alive = True

        self.servers: Dict[str, List[Server]] = {}
        for owner, s in servers.items():
            self.servers[owner] = list(s) if isinstance(s, (list, tuple)) else [s]
        self.principals: Tuple[str, ...] = access.names

        self.quota = ImplicitQuota(self.principals)
        self.credits = CreditScheduler({p: 0.0 for p in self.principals})
        self.queues = PrincipalQueues(self.principals, max_depth=max_held)
        self._held_done: Dict[int, Optional[Callable[[Request], None]]] = {}
        self._wrr: Dict[str, SmoothWeightedRoundRobin] = {
            p: SmoothWeightedRoundRobin() for p in self.principals
        }
        self._server_wrr: Dict[str, SmoothWeightedRoundRobin] = {}

        self._arrivals: Dict[str, float] = {p: 0.0 for p in self.principals}
        self.demand_estimate: Dict[str, float] = {p: 0.0 for p in self.principals}
        self.parked = ParkedRequests(self.principals, self._arrivals)
        self.park = self.parked.park

        # Telemetry
        self.admitted: Dict[str, int] = {p: 0 for p in self.principals}
        self.self_redirects: Dict[str, int] = {p: 0 for p in self.principals}

        super().__init__(
            sim, name, access, self.servers, self.admitted, self.self_redirects,
            window, mode, prices, capacity, n_redirectors, stale_after,
        )

    # -- fault model -------------------------------------------------------

    def crash(self) -> None:
        """The redirector process dies: clients get no response."""
        self.alive = False

    def restart(self) -> None:
        """Come back with in-memory state intact (quota counters are
        per-window and rebuilt at the next boundary anyway)."""
        self.alive = True

    def local_demand(self) -> Dict[str, float]:
        """Supplier callback for the aggregation protocol: per-principal
        demand in requests per window — the smoothed arrival estimate under
        implicit queuing, actual queue lengths under explicit queuing (the
        paper's 'queue length information')."""
        if self.queuing == "explicit":
            return {p: float(v) for p, v in self.queues.lengths().items()}
        return dict(self.demand_estimate)

    # -- window hooks ----------------------------------------------------------

    def window_demand(self) -> Dict[str, float]:
        roll_ewma(self.demand_estimate, self._arrivals, self.smoothing)
        return self.local_demand()

    def install(self, alloc: Allocation) -> None:
        """Quotas (or credit rates) and WRR weights for the next window, then
        the parked re-offers and, under explicit queuing, the held release."""
        if self.queuing == "credits":
            for p, q in alloc.quotas.items():
                self.credits.set_rate(p, q / self.window.length, self.sim.now)
        else:
            self.quota.new_window(alloc.quotas)
        for p, w in alloc.weights.items():
            # Keep only owners that actually have servers attached here.
            self._wrr[p].set_weights(
                {owner: v for owner, v in w.items() if owner in self.servers}
            )
        self.parked.reoffer(self.sim.now)
        if self.queuing == "explicit":
            self._release_held(alloc)

    # -- request path -------------------------------------------------------------

    def handle(self, request: Request, done: Optional[Callable[[Request], None]] = None) -> Decision:
        """Admission decision for one request (the client-facing API)."""
        if not self.alive:
            return Drop()
        p = request.principal
        if p not in self._arrivals:
            return Drop()
        self._arrivals[p] += request.cost
        if self.queuing == "explicit":
            if not self.queues.enqueue(p, request, self.sim.now):
                return Drop()
            self._held_done[request.request_id] = done
            return Held()
        if self.queuing == "credits":
            admitted = self.credits.try_admit(p, self.sim.now, cost=request.cost)
        else:
            admitted = self.quota.try_admit(p, cost=request.cost)
        if admitted:
            server = self._pick_server(p)
            if server is not None:
                self.admitted[p] += 1
                return Redirect(server)
            self.quota.rejected[p] += 1  # no usable server this window
        self.self_redirects[p] += 1
        return Defer()

    def _pick_server(self, principal: str) -> Optional[Server]:
        owner = self._wrr[principal].next()
        if owner is None:
            # No LP weights yet (e.g. first window).
            owners = self._fallback_owners(principal)
            if not owners:
                return None
            owner = owners[0]
        server = self._pool_pick(owner)
        if server is not None or self.health is None:
            return server
        # The chosen owner's whole pool is out of rotation: fail over to
        # any owner with healthy capacity, in attachment order.
        for other in self.servers:
            if other != owner:
                server = self._pool_pick(other)
                if server is not None:
                    return server
        return None

    def _fallback_owners(self, principal: str) -> List[str]:
        """Owners with servers here on which ``principal`` holds a mandatory
        entitlement (per window, as the LP sees it), in principal order."""
        i, length = self.access.index(principal), self.window.length
        return [
            k for k in self.principals if k in self.servers
            and self.access.MI[i, self.access.index(k)] * length > 1e-12
        ]

    def _pool_pick(self, owner: str) -> Optional[Server]:
        """Pick within one owner's pool, honouring backend health."""
        pool = self.servers.get(owner)
        if not pool:
            return None
        if self.health is not None:
            healthy = [s for s in pool if self.health.is_healthy(s.name)]
            if not healthy:
                return None
            if len(healthy) == 1:
                return healthy[0]
        elif len(pool) == 1:
            return pool[0]
        wrr = self._server_wrr.get(owner)
        if wrr is None:
            wrr = SmoothWeightedRoundRobin({s.name: s.capacity for s in pool})
            self._server_wrr[owner] = wrr
        # The smooth-WRR state spans the full pool so weights stay stable
        # across outages; unhealthy picks are skipped (bounded scan).
        for _ in range(len(pool)):
            chosen = wrr.next()
            server = next(s for s in pool if s.name == chosen)
            if self.health is None or self.health.is_healthy(server.name):
                return server
        return None

    # -- explicit queuing (ablation) --------------------------------------------------

    def _release_held(self, alloc: Allocation) -> None:
        """Window boundary: release each principal's quota from its queue
        in one burst — reproducing the bunching the paper observed."""
        for p in self.principals:
            budget = alloc.quotas.get(p, 0.0)
            count = int(budget + 0.5)
            for request, _enq_t in self.queues.dequeue_upto(p, count):
                server = self._pick_server(p)
                done = self._held_done.pop(request.request_id, None)
                if server is None:
                    continue
                self.admitted[p] += 1
                server.submit(request, done=done)

    # -- introspection ------------------------------------------------------------------

    def queue_lengths(self) -> Dict[str, int]:
        return self.queues.lengths()
