"""A server that enforces sharing agreements *by itself* (the Fig 1 baseline).

This is the end-point enforcement model the paper's motivating example
shows failing: the server applies per-window admission on the demand *it*
happens to see (guaranteed share first, then water-filling), with no
knowledge of what other servers are doing.  Excess requests are deferred
(the client retries), so clients experience it like any other admission
control.

Used by the distributed Fig 1 experiment to demonstrate the SLA violation
end-to-end, against the coordinated redirectors that fix it.
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Optional

from repro.cluster.request import Request
from repro.cluster.server import Server
from repro.scheduling.endpoint import endpoint_allocate
from repro.scheduling.queueing import ImplicitQuota
from repro.scheduling.window import WindowConfig, roll_ewma
from repro.sim.engine import Simulator

__all__ = ["EndpointEnforcingServer"]


class EndpointEnforcingServer(Server):
    """A :class:`Server` with built-in independent agreement enforcement.

    Every window it runs the end-point allocation (guarantee-then-
    water-fill) on its *locally observed* demand and admits accordingly;
    requests beyond the allocation are bounced back to the caller's
    ``rejected`` callback (clients treat it as a deferral).
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        capacity: float,
        shares: Mapping[str, float],
        window: WindowConfig = WindowConfig(),
        smoothing: float = 0.7,
        **kw,
    ):
        super().__init__(sim, name, capacity, **kw)
        total = sum(shares.values())
        if total > 1.0 + 1e-9:
            raise ValueError(f"guaranteed shares sum to {total:.3f} > 1")
        self.shares = dict(shares)
        self.window = window
        self.smoothing = float(smoothing)
        self._arrivals: Dict[str, float] = {p: 0.0 for p in shares}
        self.demand_estimate: Dict[str, float] = {p: 0.0 for p in shares}
        self.quota = ImplicitQuota(list(shares))
        self.rejected: Dict[str, int] = {p: 0 for p in shares}
        sim.process(self._window_driver(), name=f"endpoint[{name}]")

    def _window_driver(self):
        while True:
            yield self.window.length
            roll_ewma(self.demand_estimate, self._arrivals, self.smoothing)
            alloc = endpoint_allocate(
                self.demand_estimate, self.shares,
                self.capacity * self.window.length,
            )
            self.quota.new_window(alloc)

    def submit(self, request: Request, done=None) -> bool:
        p = request.principal
        if p not in self._arrivals:
            self.dropped += 1
            return False
        self._arrivals[p] += request.cost
        if not self.quota.try_admit(p, cost=request.cost):
            self.rejected[p] += 1
            return False
        return super().submit(request, done=done)
