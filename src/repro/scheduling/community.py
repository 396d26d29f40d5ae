"""Community scheduler: minimise the global maximum response time (§3.1.2).

Per window, with ``x_ik`` the number of requests from principal i's queue
scheduled onto principal k's server and ``theta`` the minimum served queue
fraction, the paper's LP is::

    maximize theta
    s.t.     sum_k x_ik >= theta * n_i                     (min fraction)
             sum_i x_ik <= V_k                             (server capacity)
             MI_ki <= x_ik <= MI_ki + OI_ki                (agreements)
             sum_k x_ik <= n_i                             (queue size)
             sum_i x_ik <= c_k                             (locality, optional)

The agreement lower bound is dropped for principals whose queue is too
small to absorb it (``n_i < MC_i``), exactly as the paper prescribes.

Two refinements over the paper's literal formulation (both reproduce the
*measured* behaviour of the prototypes better than the printed LP; the
literal form remains available via ``pairwise_lower_bounds=True``):

1. The mandatory guarantee is enforced on the principal's *total* service,
   ``sum_k x_ik >= min(n_i, MC_i)``, not per (principal, server) pair.  A
   per-pair lower bound turns an entitlement into an obligation — it forces
   requests onto a remote server even when the principal's own server has
   room, which mis-reproduces Fig 9 phase 3 (B would be held to ~187 req/s
   instead of the paper's 240).
2. Rather than dropping the lower bound entirely when ``n_i < MC_i``, it
   shrinks to the demand: a principal offering less than its mandatory
   level is served in full (Fig 6 phase 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.access import AccessLevels
from repro.lp import Model, Solution, solve
from repro.scheduling.compiled import CompiledWindowLP
from repro.scheduling.window import WindowConfig

__all__ = ["CommunityScheduler", "CommunitySchedule"]

QueueLengths = Union[Mapping[str, float], Sequence[float], np.ndarray]


def _as_vector(names: Tuple[str, ...], q: QueueLengths) -> np.ndarray:
    if isinstance(q, Mapping):
        return np.array([float(q.get(name, 0.0)) for name in names])
    arr = np.asarray(q, dtype=float)
    if arr.shape != (len(names),):
        raise ValueError(f"expected {len(names)} queue lengths, got shape {arr.shape}")
    return arr.copy()


@dataclass
class CommunitySchedule:
    """Result of one scheduling window."""

    names: Tuple[str, ...]
    x: np.ndarray        # x[i, k]: requests from queue i to server k
    theta: float
    solution: Solution

    def served(self, principal: str) -> float:
        """Total requests scheduled from this principal's queue."""
        return float(self.x[self.names.index(principal)].sum())

    def load(self, owner: str) -> float:
        """Total requests scheduled onto this principal's server."""
        return float(self.x[:, self.names.index(owner)].sum())

    def assignments(self, principal: str) -> Dict[str, float]:
        i = self.names.index(principal)
        return {
            k: float(self.x[i, j])
            for j, k in enumerate(self.names)
            if self.x[i, j] > 1e-9
        }

    def fractions(self, queue_lengths: QueueLengths) -> np.ndarray:
        """Per-(principal, server) fraction of the queue to forward.

        This is the quantity distributed redirectors apply to their *local*
        queues (paper §3.2): ``x_ik / n_i``.
        """
        n = _as_vector(self.names, queue_lengths)
        with np.errstate(divide="ignore", invalid="ignore"):
            f = np.where(n[:, None] > 0, self.x / np.maximum(n[:, None], 1e-300), 0.0)
        return np.clip(f, 0.0, 1.0)


class CommunityScheduler(CompiledWindowLP):
    """Compiles the community LP once and re-solves it each window.

    The program's structure — which ``x_ik`` exist, one (min-fraction,
    queue-size, guarantee) row triple per principal, one capacity row per
    server — depends on the access levels alone and is lowered at
    construction.  Per window only the ``n_i`` coefficient of theta, the
    queue right-hand sides, the ``min(n_i, MC_i)`` guarantees (or, in the
    literal pairwise form, the scaled lower bounds) and — with locality
    caps — the capacity right-hand sides are rewritten.

    Args:
        access: per-second access levels from
            :func:`repro.core.access.compute_access_levels`.
        window: scheduling window; access levels are scaled by its length.
        enforce_lower_bounds: when False, mandatory lower bounds become
            advisory (useful for ablations).
        warm_start: start each solve from the previous window's optimal
            basis (False: always the cold two-phase path).
    """

    def __init__(
        self,
        access: AccessLevels,
        window: WindowConfig = WindowConfig(),
        enforce_lower_bounds: bool = True,
        pairwise_lower_bounds: bool = False,
        warm_start: bool = True,
    ):
        self.access = access
        self.window = window
        self.enforce_lower_bounds = enforce_lower_bounds
        self.pairwise_lower_bounds = pairwise_lower_bounds
        w = access.per_window(window.length)
        names = access.names
        n_p = len(names)

        m = Model("community")
        theta = m.var("theta", lb=0.0, ub=1.0)
        xs = {
            (i, k): m.var(f"x_{names[i]}_{names[k]}", ub=w.MI[i, k] + w.OI[i, k])
            for i in range(n_p) for k in range(n_p)
            if w.MI[i, k] + w.OI[i, k] > 1e-12
        }
        # Aggregate mandatory guarantee: serve at least the smaller of the
        # demand and the mandatory access level.
        queue_rows = self._queue_constraints(
            m, theta, xs,
            guarantee=enforce_lower_bounds and not pairwise_lower_bounds,
        )
        self._owners = np.array(sorted({k for _, k in xs}), dtype=int)
        capacity = [
            m.add(sum(v for (_, o), v in xs.items() if o == k) <= float(w.V[k]))
            for k in self._owners
        ]
        m.maximize(theta)

        prog = self._compile(m, warm_start)
        self._bind(xs, queue_rows)
        self._capacity_rows = prog.rows(capacity)
        self._MC = w.MC[self._holders]
        self._V = w.V[self._owners]
        # Literal paper form (ablation only): per-pair lower bounds MI_ik,
        # scaled down when queue i cannot absorb its mandatory level MC_i.
        self._pairwise = (
            (w.MI[self._xi, self._xk], w.MC[self._xi])
            if pairwise_lower_bounds and enforce_lower_bounds else None
        )

    @property
    def names(self) -> Tuple[str, ...]:
        return self.access.names

    def schedule(
        self,
        queue_lengths: QueueLengths,
        locality_caps: Optional[QueueLengths] = None,
    ) -> CommunitySchedule:
        """Solve one window; ``queue_lengths`` are *global* per-principal
        queue sizes in requests (aggregated across redirectors)."""
        names = self.names
        q = _as_vector(names, queue_lengths)
        if (q < 0).any():
            raise ValueError("queue lengths must be non-negative")
        caps = _as_vector(names, locality_caps) if locality_caps is not None else None

        prog = self.program
        self._write_queues(q, self._MC)
        if self._pairwise is not None:
            MI, MC = self._pairwise
            with np.errstate(divide="ignore", invalid="ignore"):
                scale = np.where(MC > 1e-12, np.minimum(1.0, q[self._xi] / MC), 0.0)
            prog.set_bounds(self._xcols, lo=MI * scale)
        # A locality cap on a server is one more upper limit on its load
        # (fmin: a NaN cap is no cap).
        prog.set_rhs(
            self._capacity_rows,
            self._V if caps is None else np.fmin(self._V, caps[self._owners]),
        )

        sol = self._solve(
            solve, "community LP",
            "; agreement structure is inconsistent with the queue state",
        )
        xmat, theta_v = self._matrix(sol, len(names))
        return CommunitySchedule(
            names=names, x=xmat, theta=theta_v, solution=sol
        )
