"""The solve entry point: one solver, one path."""

from __future__ import annotations

from typing import Callable, Optional, Tuple, Union

from repro.lp.bounded_simplex import bounded_simplex
from repro.lp.model import Model, Solution
from repro.lp.program import Program

__all__ = ["solve", "set_feasibility_check"]

# Optional post-solve audit (repro.analysis.invariants wires the
# InvariantChecker's primal-feasibility check here under --check-invariants
# / REPRO_CHECK=1).  None — the default — costs one identity test per solve.
_feasibility_check: Optional[Callable[[Program, Solution], None]] = None


def set_feasibility_check(
    hook: Optional[Callable[[Program, Solution], None]]
) -> None:
    """Install (or with ``None`` remove) a post-solve solution audit."""
    global _feasibility_check
    _feasibility_check = hook


def solve(
    program: Union[Program, Model],
    warm_start: Optional[Tuple] = None,
    max_iter: int = 20_000,
) -> Solution:
    """Solve a lowered :class:`Program` with the bounded simplex.

    A :class:`Model` is lowered first (fine for a one-off; callers that
    re-solve one structure lower once and patch the program).  ``warm_start``
    is a previous ``Solution.basis`` of the same program; a basis that no
    longer fits is ignored, so callers can always thread the last one through.
    """
    if isinstance(program, Model):
        program = program.lower()
    res = bounded_simplex(program, warm_start=warm_start, max_iter=max_iter)
    solution = program.solution_from_x(
        res.x, res.status, iterations=res.iterations, backend="bounded"
    )
    solution.basis = res.basis
    solution.warm_started = res.warm_started
    if _feasibility_check is not None:
        _feasibility_check(program, solution)
    return solution
