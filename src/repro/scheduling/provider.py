"""Provider scheduler: maximise service-provider income (§3.1.2).

The provider negotiates a price ``p_i`` per request processed for customer
i beyond the mandatory service level.  Per window, with ``x_i`` the number
of customer-i requests admitted::

    maximize sum_i p_i (x_i - MC_i)
    s.t.     sum_i x_i <= V_s
             MC_i <= x_i <= MC_i + OC_i
             x_i <= n_i

As in the community model, the mandatory lower bound shrinks to the demand
(``x_i >= min(n_i, MC_i)``) when a queue is below its mandatory level, so a
customer's sub-mandatory load is always served in full while the surplus
goes to the highest payer (the paper's Fig 10 behaviour).

:class:`ProviderPlan`, which every window runs, is the same optimum in
closed form: ``min(n_i, MC_i)`` each, then the rest of ``V_s`` by
descending price, each customer up to ``min(n_i, MC_i + OC_i)``.  One price
level splits its share in proportion to headroom, where the LP leaves the
choice to its vertex (zero prices included: the plan is work-conserving).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.access import AccessLevels
from repro.lp import Model, Solution, Status, solve
from repro.scheduling.compiled import CompiledWindowLP
from repro.scheduling.window import WindowConfig

__all__ = ["ProviderScheduler", "ProviderSchedule", "ProviderPlan"]


@dataclass
class ProviderSchedule:
    """Result of one provider scheduling window."""

    customers: Tuple[str, ...]
    x: Dict[str, float]            # admitted requests per customer
    income: float                  # sum p_i (x_i - MC_i), in price units
    solution: Solution

    def admitted(self, customer: str) -> float:
        return self.x.get(customer, 0.0)

    def total(self) -> float:
        return sum(self.x.values())


class ProviderPlan:
    """The provider LP's optimum in closed form (see the module docstring).

    Args:
        access: per-second access levels; customer entitlements must stem
            from agreements the provider granted.
        prices: price per additional request for each customer; customers
            not listed are treated as paying zero.
        capacity: the provider's total server capacity ``V_s`` in req/s.
            Defaults to the sum of capacities in ``access``.
        window: scheduling window.

    Calling it with one window's global queue lengths returns ``(admitted
    per customer, income)``.
    """

    def __init__(
        self,
        access: AccessLevels,
        prices: Mapping[str, float],
        capacity: Optional[float] = None,
        window: WindowConfig = WindowConfig(),
    ):
        self.access = access
        self.window = window
        self.prices = dict(prices)
        for name, p in self.prices.items():
            if p < 0:
                raise ValueError(f"negative price for {name!r}")
        self.capacity = float(capacity if capacity is not None else access.V.sum())
        # Customers: principals with a non-zero entitlement and no capacity
        # of their own counted against V_s (the provider itself is excluded).
        self.customers: Tuple[str, ...] = tuple(
            name
            for name in access.names
            if access.mandatory(name) + access.optional(name) > 1e-12
            and access.V[access.index(name)] == 0.0
        )
        w = access.per_window(window.length)
        self._vs = self.capacity * window.length
        idx = [access.index(name) for name in self.customers]
        self._mc = w.MC[idx]
        self._oc = w.OC[idx]
        self._price = np.array([self.prices.get(name, 0.0) for name in self.customers])
        self._floor = self._mc.tolist()
        self._top = (self._mc + self._oc).tolist()
        self._pay = self._price.tolist()
        levels: Dict[float, List[int]] = {}
        for j, p in enumerate(self._pay):
            levels.setdefault(p, []).append(j)
        # Customer positions per price, highest price first.
        self._levels = [levels[p] for p in sorted(levels, reverse=True)]

    def __call__(
        self, queue_lengths: Mapping[str, float]
    ) -> Tuple[Dict[str, float], float]:
        hi = [min(top, float(queue_lengths.get(name, 0.0)))
              for top, name in zip(self._top, self.customers)]
        hi = [h if h > 1e-12 else 0.0 for h in hi]
        x = [min(mc, h) for mc, h in zip(self._floor, hi)]
        rest = self._vs - sum(x)
        if rest < -1e-9 * max(1.0, self._vs):
            raise RuntimeError("provider LP infeasible")
        for level in self._levels:
            if rest <= 0.0:
                break
            head = sum(hi[j] - x[j] for j in level)
            if head <= 0.0:
                continue
            if head <= rest:
                for j in level:
                    x[j] = hi[j]
                rest -= head
            else:
                share = rest / head
                for j in level:
                    x[j] += (hi[j] - x[j]) * share
                rest = 0.0
        # Income counts the customers in play this window only.
        income = float(sum(p * (xj - mc) for p, xj, mc, h in zip(
            self._pay, x, self._floor, hi) if h > 0.0))
        return dict(zip(self.customers, x)), income


class ProviderScheduler(ProviderPlan, CompiledWindowLP):
    """Compiles the provider-income LP once and re-solves it each window.

    One variable per customer, one capacity row and the price objective are
    fixed by the agreements; per window only the demand-clipped bounds
    ``min(n_i, MC_i) <= x_i <= min(n_i, MC_i + OC_i)`` are rewritten (an
    idle customer's variable is pinned to ``[0, 0]``).  Takes
    :class:`ProviderPlan`'s arguments and shares its customers, prices and
    ``V_s``.
    """

    def __init__(
        self,
        access: AccessLevels,
        prices: Mapping[str, float],
        capacity: Optional[float] = None,
        window: WindowConfig = WindowConfig(),
    ):
        super().__init__(access, prices, capacity, window)
        self.lp_solves = 0
        if not self.customers:
            return  # nothing to sell: schedule() returns the empty plan
        m = Model("provider")
        xs = [m.var(f"x_{name}") for name in self.customers]
        m.add(sum(xs) <= self._vs)
        m.maximize(sum(
            float(p) * (v - float(mc))
            for p, v, mc in zip(self._price, xs, self._mc)
        ))
        prog = self._compile(m)
        self._xcols = prog.cols(xs)

    def schedule(self, queue_lengths: Mapping[str, float]) -> ProviderSchedule:
        """Solve one window; ``queue_lengths`` are global per-customer
        queue sizes in requests."""
        customers = self.customers
        n = np.array([float(queue_lengths.get(name, 0.0)) for name in customers])
        if (n < 0).any():
            raise ValueError("queue lengths must be non-negative")
        # As in the community model the mandatory floor shrinks to the
        # demand; a customer with (next to) nothing queued is pinned to 0.
        hi = np.minimum(self._mc + self._oc, n)
        live = hi > 1e-12
        if not live.any():
            return ProviderSchedule(
                customers=customers,
                x={name: 0.0 for name in customers},
                income=0.0,
                solution=Solution(status=Status.OPTIMAL, objective=0.0),
            )
        hi = np.where(live, hi, 0.0)
        self.program.set_bounds(self._xcols, lo=np.minimum(self._mc, hi), up=hi)
        sol = self._solve(solve, "provider LP")
        admitted = sol.x[self._xcols]
        x = dict(zip(customers, admitted.tolist()))
        # Income counts the customers in play this window only.
        income = float(self._price[live] @ (admitted - self._mc)[live])
        return ProviderSchedule(
            customers=customers, x=x, income=income, solution=sol
        )
