"""A linear program lowered once to the arrays the bounded simplex iterates on.

The window schedulers solve the same LP *structure* every 100 ms — which
variables and rows exist is a function of the agreement graph alone — while
a handful of numbers (queue lengths on a right-hand side, the ``n_i``
coefficient of θ, a demand-clipped bound) move with the window.
:meth:`repro.lp.model.Model.lower` therefore builds the dense standard form

    minimise cost @ z   s.t.   A z = b,   lo <= z <= up,   z = [x | slacks]

exactly once, and a :class:`Program` hands out *handles* to the entries that
move: :meth:`rows` / :meth:`cols` resolve DSL constraints and variables to
array positions at construction time, and :meth:`set_rhs`, :meth:`set_coef`
and :meth:`set_bounds` write through them per window.  Values are given in
the sense of the DSL constraint they were resolved from (``expr <sense> 0``
after moving everything left, right-hand side on the right); the sign flip
that stores ``>=`` rows as ``<=`` stays in here.

A program answers ``name`` / ``to_arrays()`` / ``solution_from_x()`` like the
:class:`~repro.lp.model.Model` it was lowered from, so the
``InvariantChecker`` feasibility audit and the scipy oracle take either.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.lp.model import Constraint, Model, Sense, Solution, Status, Var

__all__ = ["Program", "Rows"]

# (row indices, +1/-1 per row): -1 where a ``>=`` constraint is stored negated.
Rows = Tuple[np.ndarray, np.ndarray]


class Program:
    """Standard-form arrays of one LP plus write handles into them.

    Built from the ``Model.to_arrays()`` tuple; ``model`` (optional) ties the
    arrays back to DSL names for :meth:`rows` and :meth:`solution_from_x`.
    The shape never changes after construction, so a basis returned by one
    solve always fits the next.
    """

    __slots__ = ("model", "nv", "m_ub", "A", "b", "lo", "up", "cost", "_where")

    def __init__(
        self,
        c: np.ndarray,
        A_ub: np.ndarray,
        b_ub: np.ndarray,
        A_eq: np.ndarray,
        b_eq: np.ndarray,
        bounds: Sequence[Tuple[float, float]],
        model: Optional[Model] = None,
    ):
        c = np.asarray(c, dtype=float)
        nv = c.size
        A_ub = np.asarray(A_ub, dtype=float).reshape(-1, nv)
        A_eq = np.asarray(A_eq, dtype=float).reshape(-1, nv)
        m_ub = A_ub.shape[0]
        n = nv + m_ub                      # structurals + one slack per <= row
        self.model = model
        self.nv, self.m_ub = nv, m_ub
        self.A = np.zeros((m_ub + A_eq.shape[0], n))
        self.A[:m_ub, :nv] = A_ub
        self.A[:m_ub, nv:] = np.eye(m_ub)
        self.A[m_ub:, :nv] = A_eq
        self.b = np.concatenate([np.asarray(b_ub, float), np.asarray(b_eq, float)])
        self.lo = np.zeros(n)              # slacks live in [0, inf)
        self.up = np.full(n, math.inf)
        box = np.asarray(bounds, dtype=float).reshape(nv, 2)
        self.lo[:nv], self.up[:nv] = box[:, 0], box[:, 1]
        self.cost = np.zeros(n)
        self.cost[:nv] = c
        # id(constraint) -> (row, sign); to_arrays() keeps <=/>= rows in
        # model order ahead of the == rows.
        self._where: Dict[int, Tuple[int, float]] = {}
        i_ub, i_eq = 0, m_ub
        for con in model.constraints if model is not None else ():
            if con.sense is Sense.EQ:
                self._where[id(con)] = (i_eq, 1.0)
                i_eq += 1
            else:
                self._where[id(con)] = (i_ub, -1.0 if con.sense is Sense.GE else 1.0)
                i_ub += 1

    # -- the Model protocol (audit hook, scipy oracle) ---------------------

    @property
    def name(self) -> str:
        return self.model.name if self.model is not None else "lp"

    def to_arrays(self):
        """``(c, A_ub, b_ub, A_eq, b_eq, bounds)`` as currently patched
        (array views, not copies: read them, don't write)."""
        nv, m_ub = self.nv, self.m_ub
        bounds = list(zip(self.lo[:nv].tolist(), self.up[:nv].tolist()))
        return (self.cost[:nv], self.A[:m_ub, :nv], self.b[:m_ub],
                self.A[m_ub:, :nv], self.b[m_ub:], bounds)

    def solution_from_x(self, x: Optional[np.ndarray], status: Status,
                        iterations: int = 0, backend: str = "") -> Solution:
        return self.model.solution_from_x(x, status, iterations, backend)

    # -- handles and per-window writes -------------------------------------

    def rows(self, constraints: Sequence[Constraint]) -> Rows:
        """Resolve DSL constraints of the lowered model to a row handle."""
        found = [self._where[id(con)] for con in constraints]
        return (np.array([r for r, _ in found], dtype=int),
                np.array([s for _, s in found], dtype=float))

    @staticmethod
    def cols(variables: Sequence[Var]) -> np.ndarray:
        """Column handle of DSL variables."""
        return np.array([v.index for v in variables], dtype=int)

    def set_rhs(self, rows: Rows, values) -> None:
        """Write the right-hand side of ``expr <sense> rhs`` rows."""
        self.b[rows[0]] = rows[1] * values

    def set_coef(self, rows: Rows, var: Var, values) -> None:
        """Write ``var``'s coefficient on the left of ``expr <sense> rhs``."""
        self.A[rows[0], var.index] = rows[1] * values

    def set_bounds(self, cols: np.ndarray, lo=None, up=None) -> None:
        if lo is not None:
            self.lo[cols] = lo
        if up is not None:
            self.up[cols] = up
