"""Algebraic LP model builder.

A small modelling layer so scheduler code reads like the paper's math::

    m = Model()
    x = [[m.var(f"x_{i}_{k}") for k in range(n)] for i in range(n)]
    theta = m.var("theta")
    for i in range(n):
        m.add(sum(x[i]) >= theta * n_i[i])
    m.maximize(theta)

Expressions are linear (``LinExpr``); comparisons (``<=``, ``>=``, ``==``)
against expressions or numbers produce :class:`Constraint` objects, which
:meth:`Model.add` registers.  :meth:`Model.to_arrays` gives the dense
``(c, A_ub, b_ub, A_eq, b_eq, bounds)`` form; :meth:`Model.lower` turns it
into the :class:`repro.lp.program.Program` the solver iterates on — once,
for callers that re-solve one structure with a few entries patched.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.lp.program import Program

__all__ = [
    "Var", "LinExpr", "Constraint", "Model", "Sense", "Status", "Solution",
    "ModelError",
]

Number = Union[int, float]


class ModelError(ValueError):
    """Raised for malformed models (duplicate names, non-linear use, ...)."""


class Sense(enum.Enum):
    LE = "<="
    GE = ">="
    EQ = "=="


class Status(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration_limit"


class LinExpr:
    """A linear expression: sum of coef * var plus a constant."""

    __slots__ = ("coeffs", "const")

    def __init__(self, coeffs: Optional[Dict["Var", float]] = None, const: float = 0.0):
        self.coeffs: Dict[Var, float] = dict(coeffs or {})
        self.const = float(const)

    @staticmethod
    def _as_expr(other: Union["LinExpr", "Var", Number]) -> "LinExpr":
        if isinstance(other, LinExpr):
            return other
        if isinstance(other, Var):
            return LinExpr({other: 1.0})
        if isinstance(other, (int, float)):
            return LinExpr(const=float(other))
        raise ModelError(f"cannot use {other!r} in a linear expression")

    def copy(self) -> "LinExpr":
        return LinExpr(self.coeffs, self.const)

    def __add__(self, other):
        rhs = self._as_expr(other)
        out = self.copy()
        for v, c in rhs.coeffs.items():
            out.coeffs[v] = out.coeffs.get(v, 0.0) + c
        out.const += rhs.const
        return out

    __radd__ = __add__

    def __sub__(self, other):
        return self + (self._as_expr(other) * -1.0)

    def __rsub__(self, other):
        return self._as_expr(other) + (self * -1.0)

    def __mul__(self, k):
        if not isinstance(k, (int, float)):
            raise ModelError("LP expressions must stay linear")
        return LinExpr({v: c * k for v, c in self.coeffs.items()}, self.const * k)

    __rmul__ = __mul__

    def __truediv__(self, k):
        return self * (1.0 / k)

    def __neg__(self):
        return self * -1.0

    def __le__(self, other):
        return Constraint(self - self._as_expr(other), Sense.LE)

    def __ge__(self, other):
        return Constraint(self - self._as_expr(other), Sense.GE)

    def __eq__(self, other):  # type: ignore[override]
        return Constraint(self - self._as_expr(other), Sense.EQ)

    def __hash__(self):  # constraints use identity; expressions aren't hashable keys
        raise TypeError("LinExpr is unhashable")

    def __repr__(self):
        terms = " + ".join(f"{c:g}*{v.name}" for v, c in self.coeffs.items())
        return f"LinExpr({terms or '0'} + {self.const:g})"


class Var:
    """A decision variable with box bounds."""

    __slots__ = ("name", "lb", "ub", "index")

    def __init__(self, name: str, lb: float = 0.0, ub: float = math.inf, index: int = -1):
        if lb > ub:
            raise ModelError(f"variable {name!r}: lb {lb} > ub {ub}")
        self.name = name
        self.lb = float(lb)
        self.ub = float(ub)
        self.index = index

    def _expr(self) -> LinExpr:
        return LinExpr({self: 1.0})

    def __add__(self, other):
        return self._expr() + other

    __radd__ = __add__

    def __sub__(self, other):
        return self._expr() - other

    def __rsub__(self, other):
        return LinExpr._as_expr(other) - self._expr()

    def __mul__(self, k):
        return self._expr() * k

    __rmul__ = __mul__

    def __truediv__(self, k):
        return self._expr() / k

    def __neg__(self):
        return self._expr() * -1.0

    def __le__(self, other):
        return self._expr() <= other

    def __ge__(self, other):
        return self._expr() >= other

    def __eq__(self, other):  # type: ignore[override]
        if isinstance(other, Var) and other is self:
            return True
        return self._expr() == other

    def __hash__(self):
        return id(self)

    def __repr__(self):
        return f"Var({self.name!r})"


@dataclass
class Constraint:
    """``expr (<=|>=|==) 0`` — the rhs constant is folded into the expr."""

    expr: LinExpr
    sense: Sense
    name: str = ""

    @property
    def rhs(self) -> float:
        return -self.expr.const


@dataclass
class Solution:
    status: Status
    objective: float = math.nan
    x: Optional[np.ndarray] = None
    # The solved model's variables; ``x`` is indexed by ``Var.index``.
    _vars: List["Var"] = field(default_factory=list)
    iterations: int = 0
    backend: str = ""   # "bounded" from repro.lp.solve, "scipy" from the oracle

    @property
    def optimal(self) -> bool:
        return self.status is Status.OPTIMAL

    def value(self, var: Union[Var, LinExpr]) -> float:
        if isinstance(var, Var):
            return float(self.x[var.index])
        if isinstance(var, LinExpr):
            return sum(c * float(self.x[v.index]) for v, c in var.coeffs.items()) + var.const
        raise ModelError(f"cannot evaluate {var!r}")

    def values(self) -> Dict[str, float]:
        return {v.name: float(self.x[v.index]) for v in self._vars}


class Model:
    """Container for variables, constraints and the objective."""

    def __init__(self, name: str = "lp"):
        self.name = name
        self.vars: List[Var] = []
        self._names: Dict[str, Var] = {}
        self.constraints: List[Constraint] = []
        self.objective: LinExpr = LinExpr()
        self.sense_max = True

    def var(self, name: str, lb: float = 0.0, ub: float = math.inf) -> Var:
        if name in self._names:
            raise ModelError(f"duplicate variable {name!r}")
        v = Var(name, lb, ub, index=len(self.vars))
        self.vars.append(v)
        self._names[name] = v
        return v

    def __getitem__(self, name: str) -> Var:
        return self._names[name]

    def add(self, constraint: Constraint, name: str = "") -> Constraint:
        if not isinstance(constraint, Constraint):
            raise ModelError(
                "add() expects a Constraint (did you compare a Var to itself?)"
            )
        if name:
            constraint.name = name
        self.constraints.append(constraint)
        return constraint

    def maximize(self, expr: Union[LinExpr, Var]) -> None:
        self.objective = LinExpr._as_expr(expr)
        self.sense_max = True

    def minimize(self, expr: Union[LinExpr, Var]) -> None:
        self.objective = LinExpr._as_expr(expr)
        self.sense_max = False

    # -- lowering ----------------------------------------------------------

    def to_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                 np.ndarray, np.ndarray, List[Tuple[float, float]]]:
        """Dense ``(c, A_ub, b_ub, A_eq, b_eq, bounds)`` for *minimisation*.

        The objective is negated when the model maximises, so solvers always
        minimise ``c @ x``.
        """
        nv = len(self.vars)
        c = np.zeros(nv)
        for v, coef in self.objective.coeffs.items():
            c[v.index] += coef
        if self.sense_max:
            c = -c

        ub_rows, ub_rhs, eq_rows, eq_rhs = [], [], [], []
        for con in self.constraints:
            row = np.zeros(nv)
            for v, coef in con.expr.coeffs.items():
                row[v.index] += coef
            rhs = con.rhs
            if con.sense is Sense.LE:
                ub_rows.append(row)
                ub_rhs.append(rhs)
            elif con.sense is Sense.GE:
                ub_rows.append(-row)
                ub_rhs.append(-rhs)
            else:
                eq_rows.append(row)
                eq_rhs.append(rhs)

        A_ub = np.array(ub_rows) if ub_rows else np.zeros((0, nv))
        b_ub = np.array(ub_rhs) if ub_rhs else np.zeros(0)
        A_eq = np.array(eq_rows) if eq_rows else np.zeros((0, nv))
        b_eq = np.array(eq_rhs) if eq_rhs else np.zeros(0)
        bounds = [(v.lb, v.ub) for v in self.vars]
        return c, A_ub, b_ub, A_eq, b_eq, bounds

    def lower(self) -> "Program":
        """Lower to a :class:`repro.lp.program.Program` (do this once per
        structure; patch the program, not the model, afterwards)."""
        from repro.lp.program import Program

        return Program(*self.to_arrays(), model=self)

    def solution_from_x(self, x: np.ndarray, status: Status,
                        iterations: int = 0, backend: str = "") -> Solution:
        """Package a raw solution vector, recomputing the model objective."""
        if status is not Status.OPTIMAL or x is None:
            return Solution(status=status, iterations=iterations, backend=backend)
        solution = Solution(
            status=status, x=np.asarray(x, dtype=float), _vars=self.vars,
            iterations=iterations, backend=backend,
        )
        solution.objective = float(solution.value(self.objective))
        return solution
