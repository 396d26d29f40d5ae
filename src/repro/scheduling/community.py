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

:class:`CommunityPlan`, which every window runs, is the same optimum in
closed form.  The principal -> server network is bipartite (Bonald &
Comte's class-server structure): principal i's bound
``max(theta * n_i, min(n_i, MC_i))`` routes over edges ``[0, MI_ik + OI_ik]``
into servers of capacity ``V_k`` (``fmin(V_k, c_k)`` with locality caps).
The bounds grow with theta, so minimum cuts are nested and discrete Newton
over them (max-flow, minimum cut, solve its piecewise-linear equation)
takes at most one step per principal.  Service above the bounds, which the
LP leaves to its vertex, goes by progressive filling: a tight cut keeps its
bounds while theta rises for the rest.  ``x`` is the final max-flow (own
server first, then index order, then shortest augmenting paths), so the
plan is a function of the queue lengths alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.access import AccessLevels
from repro.lp import Model, Solution, solve
from repro.scheduling.compiled import CompiledWindowLP
from repro.scheduling.window import WindowConfig

__all__ = ["CommunityScheduler", "CommunitySchedule", "CommunityPlan"]

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
    """

    def __init__(
        self,
        access: AccessLevels,
        window: WindowConfig = WindowConfig(),
        enforce_lower_bounds: bool = True,
        pairwise_lower_bounds: bool = False,
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

        prog = self._compile(m)
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


class CommunityPlan:
    """The community LP's optimum in closed form (see the module docstring).

    Built once per access levels; calling it with one window's global queue
    lengths (requests, in ``names`` order) and optional per-principal
    locality caps returns ``(theta, served, flows)``: theta*, the requests
    served per principal (``names`` order) and, per principal in
    ``holders``, the requests it sends over each of its ``edges``.
    """

    def __init__(self, access: AccessLevels, window: WindowConfig = WindowConfig()):
        w = access.per_window(window.length)
        box = w.MI + w.OI
        self.names = access.names
        n = len(self.names)
        self.holders = [i for i in range(n) if (box[i] > 1e-12).any()]
        self.owners = [k for k in range(n) if (box[:, k] > 1e-12).any()]
        at = {k: j for j, k in enumerate(self.owners)}
        # Per holder, (owner position, box) of each server it may use: its
        # own first, the others in index order.
        self.edges = [
            [(at[k], float(box[i, k]))
             for k in sorted(self.owners, key=lambda k: (k != i, k))
             if box[i, k] > 1e-12]
            for i in self.holders
        ]
        self._into: List[List[Tuple[int, int]]] = [[] for _ in self.owners]
        for h, edges in enumerate(self.edges):
            for e, (k, _) in enumerate(edges):
                self._into[k].append((h, e))
        self._V = [float(w.V[k]) for k in self.owners]
        self._MC = [float(w.MC[i]) for i in self.holders]

    def __call__(
        self, queues: Sequence[float], locality_caps: Optional[Sequence[float]] = None
    ) -> Tuple[float, List[float], List[List[float]]]:
        V = self._V if locality_caps is None else [
            float(np.fmin(v, locality_caps[k])) for v, k in zip(self._V, self.owners)
        ]
        q, floor = [], []
        # A principal's served total once settled; idle ones at 0.
        fixed: List[Optional[float]] = []
        for i, mc in zip(self.holders, self._MC):
            n = float(queues[i])
            f = n if n < mc else mc
            q.append(n)
            floor.append(f if f > 1e-12 else 0.0)
            fixed.append(None if n > 1e-12 else 0.0)
        eps = 1e-12 * max(1.0, *V, *q)
        theta_star = None
        while True:
            theta, d, flows, load, cut = self._level(q, floor, fixed, V, eps)
            if theta_star is None:
                theta_star = theta
            free = [h for h, f in enumerate(fixed) if f is None]
            if theta >= 1.0 or not free:
                break
            # Progressive filling: who cannot grow any more keeps its bound
            # (all of the tight cut, and whoever else has no residual path
            # to a server with room).
            stuck = [h for h in cut if fixed[h] is None]
            if len(stuck) < len(free):
                stuck = [h for h in free
                         if self._path(h, flows, load, V, eps)[0] is None] or stuck
            for h in stuck:
                fixed[h] = d[h]
            if len(stuck) == len(free):
                break
        served = [0.0] * len(self.names)
        for h, i in enumerate(self.holders):
            served[i] = d[h]
        return theta_star, served, flows

    def _level(self, q, floor, fixed, V, eps):
        """Discrete Newton for the largest theta <= 1 at which the bounds
        route: ``(theta, bounds, flows, load, last cut)``.  The first step
        takes the cut of every principal with work."""
        cut = [h for h, f in enumerate(fixed) if f is None or f > 0.0]
        theta = self._root(cut, q, floor, fixed, V, 1.0, eps)
        while True:
            d = [f if f is not None else theta * n if theta * n > fl else fl
                 for n, fl, f in zip(q, floor, fixed)]
            flows, load, short_cut = self._route(d, V, eps)
            if not short_cut:
                return theta, d, flows, load, cut
            cut = short_cut
            t = self._root(cut, q, floor, fixed, V, theta, eps)
            if t >= theta:      # rounding: the cut is tight at theta already
                return theta, d, flows, load, cut
            theta = t

    def _route(self, d, V, eps):
        """Max-flow of the bounds ``d``: greedy over each principal's edges,
        then shortest augmenting paths.  Returns ``(flows, server load,
        cut)``; the cut is empty when every bound routes, else it holds the
        principals a residual path reaches from those left short, the
        source side of a minimum cut."""
        edges = self.edges
        load = [0.0] * len(V)
        flows, short = [], []
        for h, need in enumerate(d):
            row = [0.0] * len(edges[h])
            e = 0
            for k, u in edges[h]:
                if need <= 0.0:
                    break
                f = V[k] - load[k]
                f = need if need < f and need < u else u if u < f else f
                if f > 0.0:
                    row[e] = f
                    load[k] += f
                    need -= f
                e += 1
            flows.append(row)
            if need > eps:
                short.append((h, need))
        cut = set()
        for h, need in short:
            while need > eps:
                k_end, steps = self._path(h, flows, load, V, eps)
                if k_end is None:
                    cut.update(steps)
                    break
                b = min(need, V[k_end] - load[k_end],
                        *(edges[g][e][1] - flows[g][e] if fwd else flows[g][e]
                          for g, e, fwd in steps))
                for g, e, fwd in steps:
                    flows[g][e] += b if fwd else -b
                load[k_end] += b
                need -= b
        return flows, load, sorted(cut)

    def _path(self, h, flows, load, V, eps):
        """Shortest residual path from holder ``h`` to a server with room:
        ``(that server, [(holder, edge, forward?), ...])``, or ``(None, the
        holders it reaches)``."""
        edges, into = self.edges, self._into
        came_k: Dict[int, Tuple[int, int]] = {}     # server <- (holder, edge)
        came_h: Dict[int, Optional[Tuple[int, int]]] = {h: None}
        queue = [h]
        for g in queue:
            for e, (k, u) in enumerate(edges[g]):
                if k in came_k or u - flows[g][e] <= eps:
                    continue
                came_k[k] = (g, e)
                if V[k] - load[k] > eps:
                    steps, at = [], k
                    while True:
                        g2, e2 = came_k[at]
                        steps.append((g2, e2, True))
                        back = came_h[g2]
                        if back is None:
                            return k, steps
                        at, e3 = back
                        steps.append((g2, e3, False))
                for g2, e2 in into[k]:
                    if g2 not in came_h and flows[g2][e2] > eps:
                        came_h[g2] = (k, e2)
                        queue.append(g2)
        return None, queue

    def _root(self, cut, q, floor, fixed, V, theta, eps):
        """The largest theta' <= theta at which the cut's bounds fit its
        capacity ``sum_k min(V_k, sum_{i in cut} box_ik)``: Newton on the
        convex piecewise-linear sum of ``max(theta * n_i, floor_i)``."""
        into_cut = [0.0] * len(V)
        room, free = 0.0, []
        for h in cut:
            for k, u in self.edges[h]:
                into_cut[k] += u
            if fixed[h] is None:
                free.append(h)
            else:
                room -= fixed[h]
        for v, c in zip(V, into_cut):
            room += v if v < c else c
        t = theta
        while sum([t * q[h] if t * q[h] > floor[h] else floor[h]
                   for h in free]) > room + eps:
            slope = const = 0.0
            for h in free:
                if t * q[h] >= floor[h]:
                    slope += q[h]
                else:
                    const += floor[h]
            if slope <= 0.0 or t == 0.0:
                raise RuntimeError(
                    "community LP infeasible; agreement structure is "
                    "inconsistent with the queue state")
            t = max(0.0, (room - const) / slope)
        return t
