"""Community scheduling over multiple resource types.

The vector extension of :mod:`repro.scheduling.community`: each principal's
requests carry a *demand profile* (units of CPU, bandwidth, ... consumed
per request) and every server has a capacity vector.  The window LP becomes

    maximize theta
    s.t.     sum_k x_ik >= theta * n_i
             sum_i x_ik * profile_i[r] <= V[k, r]        for all k, r
             x_ik <= bottleneck((MI+OI)[i,k], profile_i)
             sum_k x_ik <= n_i
             sum_k x_ik >= min(n_i, guaranteed_requests_i)

where ``guaranteed_requests_i = sum_k bottleneck(MI[i,k], profile_i)`` is
always jointly feasible because mandatory entitlements partition each
server's capacity per type.

Packing effect worth knowing: with complementary profiles (a CPU-heavy and
a bandwidth-heavy principal) the vector LP co-schedules both at rates a
scalar single-resource scheduler cannot see — asserted by
``tests/scheduling/test_multiresource.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

import numpy as np

from repro.core.multiresource import MultiResourceAccess, bottleneck_rate
from repro.lp import Model, Solution, solve
from repro.scheduling.compiled import CompiledWindowLP
from repro.scheduling.window import WindowConfig

__all__ = ["MultiResourceCommunityScheduler", "MultiResourceSchedule"]


@dataclass
class MultiResourceSchedule:
    names: Tuple[str, ...]
    resources: Tuple[str, ...]
    x: np.ndarray          # x[i, k]: requests from queue i to server k
    theta: float
    solution: Solution

    def served(self, principal: str) -> float:
        return float(self.x[self.names.index(principal)].sum())

    def load(self, owner: str, resource: str, profiles: Mapping[str, Mapping[str, float]]) -> float:
        """Resource units placed on ``owner``'s server this window."""
        k = self.names.index(owner)
        total = 0.0
        for i, name in enumerate(self.names):
            total += self.x[i, k] * float(profiles.get(name, {}).get(resource, 0.0))
        return total


class MultiResourceCommunityScheduler(CompiledWindowLP):
    """Max-min window scheduler over vector resources.

    Compiled once like :class:`~repro.scheduling.community.CommunityScheduler`
    (the per-resource capacity rows are part of the fixed structure); per
    window only theta's ``n_i`` coefficients, the queue right-hand sides and
    the ``min(n_i, guaranteed_requests_i)`` floors are rewritten.

    Args:
        access: vector access levels from
            :func:`repro.core.multiresource.compute_multiresource_access`.
        profiles: per-principal per-request demand ``{resource: units}``.
            Principals without a profile are assumed to demand 1 unit of
            every resource per request.
        window: scheduling window.
    """

    def __init__(
        self,
        access: MultiResourceAccess,
        profiles: Mapping[str, Mapping[str, float]],
        window: WindowConfig = WindowConfig(),
    ):
        self.access = access
        self.window = window
        self.profiles: Dict[str, Dict[str, float]] = {}
        for name in access.names:
            prof = dict(profiles.get(name, {}))
            if not prof:
                prof = {r: 1.0 for r in access.resources}
            for r, v in prof.items():
                if r not in access.resources:
                    raise ValueError(f"unknown resource {r!r} in {name}'s profile")
                if v < 0:
                    raise ValueError(f"negative demand in {name}'s profile")
            self.profiles[name] = prof
        # Per-window quantities.
        w = window.length
        self._MIw = access.MI * w
        self._OIw = access.OI * w
        self._Vw = access.V * w
        names, n, resources = access.names, access.n, access.resources

        m = Model("multiresource-community")
        theta = m.var("theta", lb=0.0, ub=1.0)
        xs = {}
        for i, holder in enumerate(names):
            for k in range(n):
                hi = bottleneck_rate(
                    self._MIw[i, k] + self._OIw[i, k], self.profiles[holder], resources
                )
                if hi > 1e-12:
                    xs[i, k] = m.var(f"x_{holder}_{names[k]}", ub=hi)
        queue_rows = self._queue_constraints(m, theta, xs, guarantee=True)
        for k in range(n):
            for r, res in enumerate(resources):
                if self._Vw[k, r] <= 1e-12:
                    continue
                terms = [
                    self.profiles[names[i]].get(res, 0.0) * v
                    for (i, o), v in xs.items()
                    if o == k and self.profiles[names[i]].get(res, 0.0) > 1e-12
                ]
                if terms:
                    m.add(sum(terms) <= float(self._Vw[k, r]))
        m.maximize(theta)

        self._compile(m)
        self._bind(xs, queue_rows)
        self._guaranteed = np.array(
            [self.guaranteed_requests(names[i]) for i in self._holders]
        )

    @property
    def names(self) -> Tuple[str, ...]:
        return self.access.names

    def guaranteed_requests(self, principal: str) -> float:
        """Per-window request guarantee given the principal's profile."""
        i = self.access.index(principal)
        total = 0.0
        for k in range(self.access.n):
            total += bottleneck_rate(
                self._MIw[i, k], self.profiles[principal], self.access.resources
            )
        return total

    def schedule(self, queue_lengths: Mapping[str, float]) -> MultiResourceSchedule:
        names = self.names
        resources = self.access.resources
        q = np.array([float(queue_lengths.get(p, 0.0)) for p in names])
        if (q < 0).any():
            raise ValueError("queue lengths must be non-negative")

        self._write_queues(q, self._guaranteed)
        sol = self._solve(solve, "multi-resource LP")
        xmat, theta_v = self._matrix(sol, len(names))
        return MultiResourceSchedule(
            names=names, resources=resources, x=xmat,
            theta=theta_v, solution=sol,
        )
