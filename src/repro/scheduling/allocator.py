"""Shared window-allocation engine for redirector implementations.

Both prototypes (the Layer-7 redirector and the Layer-4 daemon) perform the
same per-window computation (paper §3.2): form a globally consistent demand
estimate from the latest combining-tree broadcast, solve the window LP on
it, and scale the resulting allocation to this node's local share
(``x_i * local_i / global_i``).  :class:`WindowAllocator` packages that
computation so the two network layers only differ in admission mechanics.

Snapshot consistency: the broadcast aggregate is a past-round snapshot; the
allocator substitutes this node's own round-r contribution with its current
local vector (``global - local_then + local_now``) so the fraction applied
locally matches the data the LP saw.  When no broadcast has ever arrived,
it falls back to the conservative ``1/R`` split of mandatory entitlements —
the behaviour visible in the paper's Fig 8 phase 1, where a redirector with
no global information uses only half of its principal's mandatory tickets.

Graceful degradation (fault model): with ``stale_after`` set, the same
conservative split is used whenever the newest broadcast is older than
``stale_after`` seconds — a partitioned or orphaned redirector snaps back
to 1/R instead of acting on a frozen world view, and re-converges on the
first fresh broadcast after the heal.  Degraded windows are counted in
``degraded_windows`` (a subset of ``fallback_windows``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple, Union

from repro.coordination.protocol import AggregationNode
from repro.core.access import AccessLevels
from repro.lp import SolveCache
from repro.scheduling.community import CommunityScheduler
from repro.scheduling.provider import ProviderScheduler
from repro.scheduling.window import WindowConfig

__all__ = ["WindowAllocator", "Allocation"]


@dataclass
class Allocation:
    """Result of one window's allocation at one node."""

    quotas: Dict[str, float]                 # local admission budget per principal
    weights: Dict[str, Dict[str, float]]     # per-principal server-owner weights
    global_estimate: Dict[str, float]
    used_fallback: bool


class WindowAllocator:
    """The per-window allocation computation shared by all redirectors.

    Args:
        access: per-second access levels for the agreement graph.
        window: scheduling window.
        mode: ``"community"`` or ``"provider"``.
        prices: provider mode — price per additional request per customer.
        capacity: provider mode — total provider capacity override.
        n_redirectors: redirector count, for the conservative fallback.
    """

    def __init__(
        self,
        access: AccessLevels,
        window: WindowConfig = WindowConfig(),
        mode: str = "community",
        prices: Optional[Mapping[str, float]] = None,
        capacity: Optional[float] = None,
        n_redirectors: int = 1,
        server_capacities: Optional[Mapping[str, float]] = None,
        cache_tolerance: float = 0.05,
        stale_after: Optional[float] = None,
    ):
        if mode not in ("community", "provider"):
            raise ValueError(f"unknown mode {mode!r}")
        if cache_tolerance < 0:
            raise ValueError("cache_tolerance must be >= 0")
        self.access = access
        self.window = window
        self.mode = mode
        self.n_redirectors = max(1, int(n_redirectors))
        self._w = access.per_window(window.length)
        self.agg_node: Optional[AggregationNode] = None
        if stale_after is not None and stale_after <= 0:
            raise ValueError("stale_after must be positive (or None to disable)")
        self.stale_after = stale_after
        self.lp_solves = 0
        self.cache_hits = 0
        self.fallback_windows = 0
        self.degraded_windows = 0
        self._server_capacities = dict(server_capacities or {})
        self._prices = dict(prices or {})
        self._capacity = capacity
        # Demand barely moves between adjacent 100 ms windows in steady
        # state; re-solving a near-identical LP dominates simulation cost.
        # A solve is reused while every principal's global estimate stays
        # within cache_tolerance (relative) of the solved one (0 disables).
        # Quotas are still rescaled by the *fresh* local share every
        # window, so the reuse error is bounded by the estimate drift —
        # at most cache_tolerance, transiently.
        self.cache_tolerance = float(cache_tolerance)
        self._build_scheduler()

    def _build_scheduler(self) -> None:
        """(Re)compile the window program for the current access levels,
        and with it everything compute() needs that only they determine."""
        access = self.access
        names = access.names
        # Plan reuse, dropped with the levels it was solved for.  The
        # tolerance rule reuses the last plan for *nearby* demand; behind
        # it an exact-match LRU, keyed on the estimate in ``principals``
        # order, returns the plan first solved for a repeated estimate and
        # leaves the warm-start basis as it was.  Both hold the plan in the
        # form compute() consumes: requests served per principal
        # (``principals`` order) and forwarding weights.
        self._cached_est: Optional[Dict[str, float]] = None
        self._cached_plan: Optional[Tuple[List[float], Dict[str, Dict[str, float]]]] = None
        self._plans = SolveCache()
        # No global information: 1/R of the mandatory entitlements.
        share = 1.0 / self.n_redirectors
        self._fallback_quota = [float(mc) * share for mc in self._w.MC]
        self._fallback_weights = {
            p: {k: float(v) for k, v in zip(names, row) if v > 1e-12}
            for p, row in zip(names, self._w.MI)
        }
        self.scheduler: Union[CommunityScheduler, ProviderScheduler]
        if self.mode == "community":
            self.scheduler = CommunityScheduler(access, self.window)
        else:
            self.scheduler = ProviderScheduler(
                access, self._prices, capacity=self._capacity,
                window=self.window,
            )
            # A defaulted capacity is resolved once: renegotiated access
            # levels do not move it.
            self._capacity = self.scheduler.capacity
            # Provider mode spreads every customer over the provider's pools.
            cap = self._server_capacities or {
                name: float(access.V[access.index(name)])
                for name in access.names
                if access.V[access.index(name)] > 0
            }
            self._provider_weights = {p: dict(cap) for p in access.names}

    @property
    def principals(self) -> Tuple[str, ...]:
        return self.access.names

    def attach(self, node: AggregationNode) -> None:
        self.agg_node = node

    def set_access(self, access: AccessLevels) -> None:
        """Swap in renegotiated access levels (dynamic agreements, §2.2).

        Suitable as a :class:`repro.core.dynamic.DynamicAccessManager`
        subscriber; takes effect from the next window's LP solve.
        """
        if access.names != self.access.names:
            raise ValueError("renegotiated levels must cover the same principals")
        self.access = access
        self._w = access.per_window(self.window.length)
        self._build_scheduler()

    # -- global estimate -----------------------------------------------------

    def global_estimate(
        self, local: Mapping[str, float], now: Optional[float] = None
    ) -> Tuple[Dict[str, float], bool]:
        view = self.agg_node.view if self.agg_node is not None else None
        if view is None or view.aggregate is None:
            if self.agg_node is None:
                return dict(local), False   # standalone node: local is global
            return dict(local), True        # no broadcast yet
        if (
            self.stale_after is not None
            and now is not None
            and view.age(now) > self.stale_after
        ):
            return dict(local), True        # stale view: degrade to 1/R
        then = view.local_contribution
        est = {}
        for p in self.principals:
            others = view.aggregate.get(p, 0.0)
            if then is not None:
                others = max(0.0, others - then.get(p, 0.0))
            est[p] = others + local.get(p, 0.0)
        return est, False

    # -- allocation -------------------------------------------------------------

    def compute(
        self, local: Mapping[str, float], now: Optional[float] = None
    ) -> Allocation:
        """Allocate one window given this node's local demand (req/window).

        ``now`` enables the ``stale_after`` degradation check; callers that
        never set ``stale_after`` may omit it.
        """
        global_est, fallback = self.global_estimate(local, now)
        if fallback:
            view = self.agg_node.view if self.agg_node is not None else None
            if view is not None and view.aggregate is not None:
                self.degraded_windows += 1   # had a view once — it went stale
            self.fallback_windows += 1
            return Allocation(
                *self._conservative(local), global_estimate=global_est,
                used_fallback=True,
            )
        served, weights = self._solve(global_est)
        quotas: Dict[str, float] = {}
        for p, total in zip(self.principals, served):
            g = global_est.get(p, 0.0)
            frac = min(1.0, total / g) if g > 1e-9 else 0.0
            quotas[p] = frac * local.get(p, 0.0)
        return Allocation(
            quotas=quotas, weights=weights, global_estimate=global_est,
            used_fallback=False,
        )

    def _solve(
        self, global_est: Dict[str, float]
    ) -> Tuple[List[float], Dict[str, Dict[str, float]]]:
        """The window's plan as ``(served per principal, forwarding
        weights)``: reused within tolerance, else an exact repeat, else
        solved."""
        if self._cached_plan is not None and self.cache_tolerance > 0:
            tol = self.cache_tolerance
            cached = self._cached_est
            if all(
                abs(global_est.get(p, 0.0) - cached.get(p, 0.0))
                <= tol * max(global_est.get(p, 0.0), cached.get(p, 0.0), 1.0)
                for p in self.principals
            ):
                self.cache_hits += 1
                return self._cached_plan
        self.lp_solves += 1
        names = self.principals
        key = tuple(global_est.get(p, 0.0) for p in names)
        found = self._plans.get(key)
        if found is None:
            plan = self.scheduler.schedule(global_est)
            if self.mode == "community":
                # Row sums and forwarding weights once per solved plan, not
                # per principal per window the plan is reused for.
                served = [float(row.sum()) for row in plan.x]
                weights = {
                    p: {k: float(v) for k, v in zip(names, row) if v > 1e-9}
                    for p, row in zip(names, plan.x)
                }
            else:
                served = [plan.x.get(p, 0.0) for p in names]
                weights = self._provider_weights
            found = (served, weights)
            self._plans.put(key, found)
        self._cached_est = dict(global_est)
        self._cached_plan = found
        return found

    def _conservative(
        self, local: Mapping[str, float]
    ) -> Tuple[Dict[str, float], Dict[str, Dict[str, float]]]:
        """No global information: use 1/R of the mandatory entitlements."""
        quotas = {
            p: min(local.get(p, 0.0), cap)
            for p, cap in zip(self.principals, self._fallback_quota)
        }
        return quotas, self._fallback_weights
