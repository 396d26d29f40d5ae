"""The patch → solve → unpack bookkeeping every window scheduler shares.

A scheduler writes its LP once, at construction, in the
:class:`repro.lp.Model` DSL; :meth:`CompiledWindowLP._compile` lowers it to a
:class:`repro.lp.Program` whose *shape never changes* — a principal with an
empty queue keeps its rows as ``0 <= 0`` instead of dropping them.  Per
window the scheduler writes the few entries that moved through the
program's handles and calls :meth:`_solve`, which solves from scratch and
keeps the solve counters.  The window loop itself runs the closed-form
plans (:class:`repro.scheduling.community.CommunityPlan`,
:class:`repro.scheduling.provider.ProviderPlan`); these programs are their
oracle, and the only form of the pairwise-bound and multi-resource variants.

``schedule`` itself stays on each scheduler class, and each passes its own
module's ``solve`` binding into :meth:`_solve`: ``benchmarks/e2e`` times the
layers by patching exactly those names from outside.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.lp import Constraint, Model, Program, Solution, Var

__all__ = ["CompiledWindowLP"]


class CompiledWindowLP:
    """Mixin: one compiled program and its counters."""

    program: Program

    def _compile(self, model: Model) -> Program:
        self.program = model.lower()
        self.lp_solves = 0
        return self.program

    def _solve(
        self, solve: Callable[..., Solution], what: str, hint: str = ""
    ) -> Solution:
        """Solve the program as patched."""
        sol = solve(self.program)
        self.lp_solves += 1
        if not sol.optimal:
            raise RuntimeError(f"{what} {sol.status.value}{hint}")
        return sol

    # -- the max-min-theta programs (community, multi-resource) ------------

    def _queue_constraints(
        self, m: Model, theta: Var, xs: Dict[Tuple[int, int], Var], guarantee: bool
    ) -> Tuple[List[Constraint], List[Constraint], List[Constraint]]:
        """Add, per principal that holds any ``x[i, k]``, the min-fraction
        row ``total >= theta * n_i``, the queue row ``total <= n_i`` and
        (``guarantee``) the aggregate floor ``total >= min(n_i, floor_i)``.

        The queue-dependent numbers are placeholders; :meth:`_write_queues`
        fills them each window once :meth:`_bind` has resolved the rows.
        """
        self._theta = theta
        self._holders = np.array(sorted({i for i, _ in xs}), dtype=int)
        fraction, queue, floor = [], [], []
        for i in self._holders:
            total = sum(v for (h, _), v in xs.items() if h == i)
            fraction.append(m.add(total - theta >= 0.0))
            queue.append(m.add(total <= 0.0))
            if guarantee:
                floor.append(m.add(total >= 0.0))
        return fraction, queue, floor

    def _bind(self, xs: Dict[Tuple[int, int], Var], queue_constraints) -> None:
        """Resolve variables and queue rows to positions in the program."""
        prog = self.program
        self._xi = np.array([i for i, _ in xs], dtype=int)
        self._xk = np.array([k for _, k in xs], dtype=int)
        self._xcols = prog.cols(list(xs.values()))
        self._fraction_rows, self._queue_rows, self._floor_rows = (
            prog.rows(group) for group in queue_constraints
        )

    def _write_queues(self, q: np.ndarray, floor: np.ndarray) -> None:
        """One window's queue lengths into the program.  An idle principal
        keeps its rows: theta drops out of ``total >= theta * 0``, the queue
        row pins its total to 0 and the floor reads ``total >= 0``."""
        prog = self.program
        n = q[self._holders]
        prog.set_coef(self._fraction_rows, self._theta, np.where(n > 1e-12, -n, 0.0))
        prog.set_rhs(self._queue_rows, n)
        if self._floor_rows[0].size:
            floor = np.minimum(n, floor)
            prog.set_rhs(self._floor_rows, np.where(floor > 1e-12, floor, 0.0))

    def _matrix(self, sol: Solution, n: int) -> Tuple[np.ndarray, float]:
        """``(x[i, k] matrix, theta)`` of an optimal solution."""
        xmat = np.zeros((n, n))
        xmat[self._xi, self._xk] = sol.x[self._xcols]
        return xmat, float(sol.x[self._theta.index])
