"""Linear programming: the optimisation substrate for the window schedulers.

The paper formulates both admission-control policies (community max-min
response time, provider income) as small linear programs solved every time
window (§3.1.2).  One solver runs them:

- :mod:`repro.lp.model` — the algebraic DSL the programs are written in;
- :mod:`repro.lp.program` — a model lowered *once* to standard-form arrays,
  with handles to the few entries a scheduler rewrites per window;
- :mod:`repro.lp.bounded_simplex` — a from-scratch bounded-variable revised
  simplex with Bland's rule and warm starts (numpy only, deterministic);
- :func:`repro.lp.solve` — lower if needed, solve, audit.

:mod:`repro.lp.oracle` (:func:`scipy.optimize.linprog`, imported lazily) is
the test oracle the simplex is cross-validated against; nothing at run time
imports scipy.
"""

from repro.lp.cache import SolveCache
from repro.lp.model import Constraint, LinExpr, Model, Sense, Status, Solution, Var
from repro.lp.program import Program
from repro.lp.solver import solve

__all__ = [
    "Model",
    "Var",
    "LinExpr",
    "Constraint",
    "Sense",
    "Status",
    "Solution",
    "Program",
    "SolveCache",
    "solve",
]
