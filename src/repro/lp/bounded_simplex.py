"""Bounded-variable primal simplex — the repo's one LP solver.

The window-scheduling LPs are dominated by *box-bounded* variables (every
``x_ik`` carries ``0 <= x <= MI+OI``).  The classic bounded-variable revised
simplex keeps those bounds implicit instead of spending a row on each:

- nonbasic variables rest at their lower *or* upper bound;
- an entering variable may *flip* bound without a basis change when its own
  opposite bound is the tightest ratio;
- the ratio test limits basic variables against both of their bounds.

It iterates directly on the standard-form arrays of a
:class:`repro.lp.program.Program` (``[A | I]``, bounds and cost vectors are
built when the program is lowered, not per solve).  Phase 1 uses artificial
variables (minimise their sum) from a basis of artificials with structurals
at their nearest-zero finite bound.  Pivoting uses Bland's rule throughout,
so the method terminates.  Every solve starts from the same initial basis,
so its result is a function of the program alone.

Tolerances: reduced costs, pivots and ratio ties use the absolute ``_TOL``;
*feasibility* (phase-1 residuals) is judged
relative to the magnitude of the row or bound it is measured against, so a
row of 1e-7-sized coefficients is held to the same relative standard as a
row of ones, and the returned point is clipped into its box.

Cross-validated against scipy's HiGHS (the test oracle ``tests/lp/oracle.py``)
on random boxed LPs in ``tests/lp/``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.lp.model import Status
from repro.lp.program import Program

__all__ = ["bounded_simplex", "SimplexResult"]

_TOL = 1e-9     # reduced costs, pivot elements, ratio-test ties (absolute)
_FEAS = 1e-9    # primal feasibility, relative to row / bound magnitude
_INF = math.inf

# Nonbasic status codes
_AT_LO = 0
_AT_UP = 1
_FREE_ZERO = 2   # free variable resting at 0
_BASIC = 3
# d * sign > 0 means moving off the bound pays: up from LO, down from UP.
_GAIN_SIGN = np.array([-1.0, 1.0, 0.0, 0.0])


@dataclass
class SimplexResult:
    status: Status
    x: Optional[np.ndarray]
    objective: float
    iterations: int


def bounded_simplex(program: Program, max_iter: int = 20_000) -> SimplexResult:
    """Minimise ``program.cost @ z`` over the program's rows and box bounds."""
    A, b, lo, up = program.A, program.b, program.lo, program.up
    m, n = A.shape
    nv = program.nv

    # Initial nonbasic values: nearest-to-zero finite bound (0 for free).
    status = np.where(
        np.isneginf(lo), np.where(np.isposinf(up), _FREE_ZERO, _AT_UP), _AT_LO
    )
    x = _resting(status, lo, up)

    # Phase 1: artificials absorb the residual b - A x_N.  Each is priced by
    # its row's own magnitude (largest coefficient or right-hand side), so
    # what is minimised — and then judged — is *relative* infeasibility: a
    # residual of 1e-8 is noise on a row of ones and a gross violation of a
    # row of 1e-7s.
    resid = b - A @ x
    A1 = np.hstack([A, np.diag(np.where(resid >= 0, 1.0, -1.0))])
    lo1 = np.concatenate([lo, np.zeros(m)])
    up1 = np.concatenate([up, np.full(m, _INF)])
    x1 = np.concatenate([x, np.abs(resid)])
    status1 = np.concatenate([status, np.full(m, _BASIC, dtype=int)])
    row_scale = np.abs(b)
    if nv:
        row_scale = np.maximum(row_scale, np.abs(A[:, :nv]).max(axis=1))
    row_scale[row_scale < 1e-150] = 1.0     # a (numerically) all-zero row
    cost1 = np.zeros(n + m)
    cost1[n:] = 1.0 / row_scale

    state = _State(A1, b, lo1, up1, x1, status1, list(range(n, n + m)))
    total_iters, st = _optimize(state, cost1, allowed=n + m, max_iter=max_iter)
    if st is Status.ITERATION_LIMIT:
        return SimplexResult(st, None, math.nan, total_iters)
    if (state.x[n:] > _FEAS * row_scale).any():
        return SimplexResult(Status.INFEASIBLE, None, math.nan, total_iters)

    # Drive remaining artificials out of the basis where possible.
    for row in range(m):
        if state.basis[row] >= n:
            Binv_row = np.linalg.solve(state.B().T, _unit(m, row))
            coeffs = np.abs(Binv_row @ state.A[:, :n])
            candidates = np.nonzero(coeffs > 1e-7 * coeffs.max())[0]
            nonbasic = [j for j in candidates if state.status[j] != _BASIC]
            if nonbasic:
                state.pivot(row, int(nonbasic[0]))
            # else: redundant row; the artificial stays basic at value 0.

    cost2 = np.concatenate([program.cost, np.zeros(m)])
    iters2, st = _optimize(state, cost2, allowed=n, max_iter=max_iter - total_iters)
    total_iters += iters2
    if st is not Status.OPTIMAL:
        return SimplexResult(st, None, math.nan, total_iters)

    # Basic values carry round-off (and the phase-1 feasibility slack); the
    # point handed back is inside its box exactly.
    xr = np.minimum(np.maximum(state.x[:nv], lo[:nv]), up[:nv])
    return SimplexResult(
        Status.OPTIMAL, xr, float(program.cost[:nv] @ xr), total_iters
    )


def _resting(status: np.ndarray, lo: np.ndarray, up: np.ndarray) -> np.ndarray:
    """Where each variable rests by status: its lower bound, its upper bound,
    0 for a free one — and 0 for a basic one, whose value is solved for."""
    return np.choose(status, (lo, up, 0.0, 0.0))


def _unit(m: int, i: int) -> np.ndarray:
    e = np.zeros(m)
    e[i] = 1.0
    return e


class _State:
    """Mutable simplex state: basis, variable values and statuses."""

    __slots__ = ("A", "b", "lo", "up", "x", "status", "basis", "m")

    def __init__(self, A, b, lo, up, x, status, basis):
        self.A = A
        self.b = b
        self.lo = lo
        self.up = up
        self.x = x
        self.status = status
        self.basis = basis
        self.m = A.shape[0]

    def B(self) -> np.ndarray:
        return self.A[:, self.basis]

    def pivot(self, row: int, entering: int) -> None:
        """Swap basis[row] out for ``entering`` at a consistent point (the
        phase transition); the leaving variable rests at its nearer bound."""
        leaving = self.basis[row]
        if self.up[leaving] < _INF and abs(self.x[leaving] - self.up[leaving]) < abs(
            self.x[leaving] - self.lo[leaving]
        ):
            self.status[leaving] = _AT_UP
            self.x[leaving] = self.up[leaving]
        elif self.lo[leaving] > -_INF:
            self.status[leaving] = _AT_LO
            self.x[leaving] = self.lo[leaving]
        else:
            self.status[leaving] = _FREE_ZERO
            self.x[leaving] = 0.0
        self.status[entering] = _BASIC
        self.basis[row] = entering
        nonbasic = np.where(self.status == _BASIC, 0.0, self.x)
        self.x[self.basis] = np.linalg.solve(self.B(), self.b - self.A @ nonbasic)


def _optimize(state: _State, cost: np.ndarray, allowed: int, max_iter: int):
    """Bounded-variable primal simplex iterations (Bland's rule)."""
    m = state.m
    A, lo, up, x, status, basis = (
        state.A, state.lo, state.up, state.x, state.status, state.basis
    )
    iters = 0
    while True:
        if iters >= max_iter:
            return iters, Status.ITERATION_LIMIT
        B = A[:, basis]
        try:
            y = np.linalg.solve(B.T, cost[basis])
        except np.linalg.LinAlgError:  # pragma: no cover - defensive
            return iters, Status.INFEASIBLE
        if allowed == A.shape[1]:
            d, st = cost - y @ A, status
        else:
            d, st = cost[:allowed] - y @ A[:, :allowed], status[:allowed]

        # Bland: the first nonbasic column whose move improves the cost —
        # up from a lower bound (d < 0), down from an upper bound (d > 0),
        # either way for a free variable resting at 0.
        gain = d * _GAIN_SIGN[st]
        free = st == _FREE_ZERO
        if free.any():
            gain[free] = np.abs(d[free])
        eligible = np.flatnonzero(gain > _TOL)
        if eligible.size == 0:
            return iters, Status.OPTIMAL
        entering = int(eligible[0])
        direction = 1.0 if st[entering] == _AT_LO or (
            st[entering] == _FREE_ZERO and d[entering] < 0
        ) else -1.0

        # Direction of basic variables as entering moves by +direction.
        w = np.linalg.solve(B, A[:, entering]) * direction

        # Ratio test.  Candidates: each basic variable hitting one of its
        # bounds, and the entering variable flipping to its opposite bound.
        span = up[entering] - lo[entering]
        t_max = span if np.isfinite(span) else _INF
        leave_row = -1                           # -1 = bound flip
        for i in range(m):
            j = basis[i]
            if w[i] > _TOL and lo[j] > -_INF:
                t = max((x[j] - lo[j]) / w[i], 0.0)
            elif w[i] < -_TOL and up[j] < _INF:
                t = max((up[j] - x[j]) / (-w[i]), 0.0)
            else:
                continue
            if t < t_max - _TOL:
                t_max, leave_row = t, i
            elif t <= t_max + _TOL and (
                leave_row == -1 or basis[i] < basis[leave_row]
            ):
                # Tie: prefer a basis change (Bland: smallest leaving index).
                t_max, leave_row = min(t_max, t), i

        if not np.isfinite(t_max):
            return iters, Status.UNBOUNDED

        # Apply the step.
        x[entering] += direction * t_max
        x[basis] -= w * t_max

        if leave_row < 0:
            # Bound flip: entering moved across its box; stays nonbasic.
            status[entering] = _AT_UP if direction > 0 else _AT_LO
        else:
            leaving = basis[leave_row]
            # Leaving rests at the bound it reached.
            if w[leave_row] > 0:
                status[leaving] = _AT_LO if lo[leaving] > -_INF else _FREE_ZERO
                x[leaving] = lo[leaving] if lo[leaving] > -_INF else 0.0
            else:
                status[leaving] = _AT_UP
                x[leaving] = up[leaving]
            status[entering] = _BASIC
            basis[leave_row] = entering
        iters += 1
