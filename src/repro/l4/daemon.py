"""The user-space daemon of the Layer-4 prototype (§4.2).

"The user space daemon periodically collects queue length information from
the kernel module, calculates scheduling decisions by solving the linear
programming models discussed in Section 3, and feeds allocation
information for the next time window into the kernel module."

:class:`L4Daemon` does exactly that: each window it reads the switch's
kernel-queue lengths (plus its incoming-rate estimate), runs the shared
:class:`repro.scheduling.allocator.WindowAllocator` (which consults the
combining tree for global state), and installs the resulting allocation
into the switch.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.coordination.protocol import AggregationNode
from repro.core.access import AccessLevels
from repro.l4.switch import L4Switch
from repro.scheduling.allocator import Allocation, WindowAllocator
from repro.scheduling.window import WindowConfig
from repro.sim.engine import Simulator
from repro.sim.monitor import RateMeter
from repro.sim.stats import StreamingStats

__all__ = ["L4Daemon"]


class L4Daemon:
    """Periodic LP-solving controller for one :class:`L4Switch`."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        switch: L4Switch,
        access: AccessLevels,
        window: WindowConfig = WindowConfig(),
        mode: str = "community",
        prices: Optional[Mapping[str, float]] = None,
        capacity: Optional[float] = None,
        n_redirectors: int = 1,
        conntrack_sweep: float = 10.0,
        stale_after: Optional[float] = None,
    ):
        self.sim = sim
        self.name = name
        self.switch = switch
        self.window = window
        self.allocator = WindowAllocator(
            access,
            window=window,
            mode=mode,
            prices=prices,
            capacity=capacity,
            n_redirectors=n_redirectors,
            server_capacities={
                owner: sum(s.capacity for s in pool)
                for owner, pool in switch.servers.items()
            },
            stale_after=stale_after,
        )
        self.last_allocation: Optional[Allocation] = None
        self.windows = 0
        # Per-principal admitted/refused accounting through the same
        # bounded-memory stats types the L7 path reports with: a
        # window-binned RateMeter holds the per-window admitted/refused
        # traces (what the paper's Fig 9/10 plot, and what the lane-parity
        # digest hashes), and StreamingStats keeps O(1) moments of the
        # per-window counts instead of an unbounded ad-hoc list.
        self.admission_meter = RateMeter(bin_width=window.length)
        self.admitted_stats: Dict[str, StreamingStats] = {
            p: StreamingStats() for p in switch.principals
        }
        self.refused_stats: Dict[str, StreamingStats] = {
            p: StreamingStats() for p in switch.principals
        }
        self._last_admitted: Dict[str, int] = dict(switch.admitted)
        self._last_dropped: Dict[str, int] = dict(switch.dropped)
        sim.process(self._driver(), name=f"l4d[{name}]")
        if conntrack_sweep > 0:
            sim.every(conntrack_sweep, self._sweep, start=conntrack_sweep)

    def attach(self, node: AggregationNode) -> None:
        """Attach the combining-tree protocol node for this daemon."""
        self.allocator.attach(node)

    def set_access(self, access: AccessLevels) -> None:
        """Adopt renegotiated access levels from the next window on."""
        self.allocator.set_access(access)

    @property
    def used_fallback_windows(self) -> int:
        return self.allocator.fallback_windows

    def local_demand(self) -> Dict[str, float]:
        """Supplier callback for the aggregation protocol."""
        return self.switch.local_demand()

    def admitted_series(self, principal: str) -> Tuple[np.ndarray, np.ndarray]:
        """Per-window admitted counts as (window-midpoint times, rates)."""
        return self.admission_meter.series(f"admitted:{principal}")

    def refused_series(self, principal: str) -> Tuple[np.ndarray, np.ndarray]:
        """Per-window refused (dropped) counts, same shape as admitted."""
        return self.admission_meter.series(f"refused:{principal}")

    def _driver(self):
        while True:
            yield self.window.length
            # Snapshot the window that just ended *before* install: the
            # install's reinjection drain consumes next-window quota and
            # admits synchronously, so its counts belong to the new window.
            self._account_window()
            alloc = self.allocator.compute(
                self.switch.local_demand(), now=self.sim.now
            )
            self.last_allocation = alloc
            self.windows += 1
            self.switch.install(alloc)

    def _account_window(self) -> None:
        t_mid = self.sim.now - self.window.length / 2.0
        for p in self.switch.principals:
            adm = self.switch.admitted[p]
            ref = self.switch.dropped[p]
            d_adm = adm - self._last_admitted[p]
            d_ref = ref - self._last_dropped[p]
            self._last_admitted[p] = adm
            self._last_dropped[p] = ref
            # Zero-weight records still land so every window appears in
            # the series — the trace's *shape* is part of the digest.
            self.admission_meter.record(f"admitted:{p}", t_mid, weight=d_adm)
            self.admission_meter.record(f"refused:{p}", t_mid, weight=d_ref)
            self.admitted_stats[p].add(float(d_adm))
            self.refused_stats[p].add(float(d_ref))

    def _sweep(self) -> None:
        self.switch.sweep_idle(self.sim.now)
