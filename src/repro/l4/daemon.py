"""The user-space daemon of the Layer-4 prototype (§4.2): collect kernel
queue lengths, solve the window LP, feed the next window's allocation into
the kernel module — the :class:`~repro.scheduling.node.EnforcementNode` loop."""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from repro.core.access import AccessLevels
from repro.l4.switch import L4Switch
from repro.scheduling.allocator import Allocation
from repro.scheduling.node import EnforcementNode
from repro.scheduling.window import WindowConfig
from repro.sim.engine import Simulator

__all__ = ["L4Daemon"]


class L4Daemon(EnforcementNode):
    """Window loop of one :class:`L4Switch`.  Demand is its kernel queue
    lengths plus its EWMA, which ``install`` rolls, so the LP sees the EWMA
    one window late; idle connections are swept every ``conntrack_sweep`` s."""

    def __init__(
        self, sim: Simulator, name: str, switch: L4Switch, access: AccessLevels,
        window: WindowConfig = WindowConfig(), mode: str = "community",
        prices: Optional[Mapping[str, float]] = None,
        capacity: Optional[float] = None, n_redirectors: int = 1,
        conntrack_sweep: float = 10.0, stale_after: Optional[float] = None,
    ):
        self.switch = switch
        super().__init__(sim, name, access, switch.servers, switch.admitted,
                         switch.dropped, window, mode, prices, capacity,
                         n_redirectors, stale_after)
        if conntrack_sweep > 0:
            sim.every(conntrack_sweep, lambda: switch.sweep_idle(sim.now),
                      start=conntrack_sweep)

    def local_demand(self) -> Dict[str, float]:
        return self.switch.local_demand()

    def install(self, alloc: Allocation) -> None:
        self.switch.install(alloc)
