"""Test oracle: the same LP through :func:`scipy.optimize.linprog` (HiGHS).

Not on any runtime path — scipy is imported inside :func:`solve_scipy` only,
so the library runs with numpy alone.  Tests hold the bounded simplex to
this on random LPs and on the schedulers' compiled window programs.
"""

from __future__ import annotations

from importlib.util import find_spec
from typing import Union

import numpy as np

from repro.lp.model import Model, Solution, Status
from repro.lp.program import Program

__all__ = ["solve_scipy", "scipy_available"]


def scipy_available() -> bool:
    return find_spec("scipy") is not None


_STATUS_MAP = {
    0: Status.OPTIMAL,
    1: Status.ITERATION_LIMIT,
    2: Status.INFEASIBLE,
    3: Status.UNBOUNDED,
}


def solve_scipy(model: Union[Model, Program]) -> Solution:
    """Solve a model — or a compiled program as currently patched."""
    from scipy.optimize import linprog

    c, A_ub, b_ub, A_eq, b_eq, bounds = model.to_arrays()
    res = linprog(
        c,
        A_ub=A_ub if A_ub.size else None,
        b_ub=b_ub if b_ub.size else None,
        A_eq=A_eq if A_eq.size else None,
        b_eq=b_eq if b_eq.size else None,
        bounds=bounds,
        method="highs",
    )
    status = _STATUS_MAP.get(res.status, Status.INFEASIBLE)
    x = np.asarray(res.x) if res.x is not None else None
    iterations = int(getattr(res, "nit", 0) or 0)
    return model.solution_from_x(x, status, iterations=iterations, backend="scipy")
