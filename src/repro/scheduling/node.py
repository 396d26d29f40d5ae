"""One enforcement node: the per-window loop behind both prototypes (§3.1).

At every window boundary the node accounts the window that just ended,
runs :meth:`WindowAllocator.compute` on the front end's demand (a global
estimate from the latest combining-tree broadcast, or the conservative 1/R
fallback when none has arrived; the LP solve; the result scaled to this
node's local share), and hands the allocation to the front end's
``install``.  Front ends supply only what differs:
:class:`repro.l7.redirector.L7Redirector` rolls its EWMA before the solve
and installs quotas, WRR weights and parked re-offers;
:class:`repro.l4.daemon.L4Daemon` reports the switch's kernel-queue lengths
plus EWMA and installs into the switch, which rolls that EWMA during
install, so the L4 LP sees it one window late.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.coordination.protocol import AggregationNode
from repro.core.access import AccessLevels
from repro.scheduling.allocator import Allocation, WindowAllocator
from repro.scheduling.window import WindowConfig
from repro.sim.engine import Simulator
from repro.sim.monitor import RateMeter

__all__ = ["EnforcementNode"]


class EnforcementNode:
    """Window allocator, admission meter and window driver of one node.

    ``pools`` are the front end's servers per owner (the LP's per-owner
    capacity is their sum); ``admitted`` / ``refused`` are its cumulative
    per-principal counters, read at each boundary.  Subclasses define
    ``local_demand()`` and ``install(alloc)``.
    """

    def __init__(
        self, sim: Simulator, name: str, access: AccessLevels,
        pools: Mapping[str, List], admitted: Dict[str, int],
        refused: Dict[str, int], window: WindowConfig, mode: str,
        prices: Optional[Mapping[str, float]], capacity: Optional[float],
        n_redirectors: int, stale_after: Optional[float],
    ):
        self.sim = sim
        self.name = name
        self.access = access
        self.window = window
        self.allocator = WindowAllocator(
            access, window=window, mode=mode, prices=prices, capacity=capacity,
            n_redirectors=n_redirectors,
            server_capacities={
                owner: sum(s.capacity for s in pool) for owner, pool in pools.items()
            },
            stale_after=stale_after,
        )
        self.last_allocation: Optional[Allocation] = None
        self.windows = 0
        # Per-window admitted/refused traces, binned at window width: what
        # the paper's figures plot and the lane-parity digests hash.  Window
        # counts are deltas of the cumulative counters, snapshotted at each
        # boundary *before* the new window's allocation work, so they are
        # lane-neutral (the columnar pump fires first at every boundary,
        # leaving exactly the state a slotted run shows here).
        self.admission_meter = RateMeter(bin_width=window.length)
        self._admitted = admitted
        self._refused = refused
        self._last_admitted: Dict[str, int] = dict(admitted)
        self._last_refused: Dict[str, int] = dict(refused)
        sim.process(self._window_driver(), name=f"node[{name}]")

    def attach(self, node: AggregationNode) -> None:
        """Attach this node's combining-tree protocol node."""
        self.allocator.attach(node)

    def set_access(self, access: AccessLevels) -> None:
        """Adopt renegotiated access levels from the next window on."""
        self.access = access
        self.allocator.set_access(access)

    @property
    def used_fallback_windows(self) -> int:
        return self.allocator.fallback_windows

    def window_demand(self) -> Dict[str, float]:
        """Close the ended window's demand; what the LP sees."""
        return self.local_demand()

    def _window_driver(self):
        while True:
            yield self.window.length
            self._end_window()

    def _end_window(self) -> None:
        # Account first: install admits synchronously (reinjection drain,
        # parked re-offers), and those admissions belong to the new window.
        self._account_window()
        alloc = self.allocator.compute(self.window_demand(), now=self.sim.now)
        self.last_allocation = alloc
        self.windows += 1
        self.install(alloc)

    def _account_window(self) -> None:
        t_mid = self.sim.now - self.window.length / 2.0
        for p, adm in self._admitted.items():
            ref = self._refused[p]
            d_adm = adm - self._last_admitted[p]
            d_ref = ref - self._last_refused[p]
            self._last_admitted[p] = adm
            self._last_refused[p] = ref
            # Zero-weight records keep every window in the series: the
            # trace's shape is part of the parity digest.
            self.admission_meter.record(f"admitted:{p}", t_mid, weight=d_adm)
            self.admission_meter.record(f"refused:{p}", t_mid, weight=d_ref)

    def admitted_series(self, principal: str) -> Tuple[np.ndarray, np.ndarray]:
        """Per-window admitted counts as (window-midpoint times, rates)."""
        return self.admission_meter.series(f"admitted:{principal}")

    def refused_series(self, principal: str) -> Tuple[np.ndarray, np.ndarray]:
        """Per-window refused counts, same shape as admitted."""
        return self.admission_meter.series(f"refused:{principal}")
