"""Experiment harness reproducing every figure in the paper's §5.

- :mod:`repro.experiments.harness` — :class:`Scenario`, a declarative
  builder that wires graph, servers, redirectors (L7 or L4), combining
  tree and phased clients into one simulation.
- :mod:`repro.experiments.figures` — one entry point per paper artifact
  (``run_fig1`` ... ``run_fig10``), each returning a
  :class:`FigureResult` with measured phase rates and the paper's
  expected values.
- :mod:`repro.experiments.report` — text rendering for results
  (the tables recorded in ``EXPERIMENTS.md``).
- :mod:`repro.experiments.parallel` — deterministic multi-process
  execution of figure/sweep batches (results independent of job count).
"""

from repro.experiments.harness import FigureResult, PhaseExpectation, Scenario
from repro.experiments.figures import (
    run_fig1,
    run_fig3,
    run_fig6,
    run_fig7,
    run_fig8,
    run_fig9,
    run_fig10,
    ALL_FIGURES,
)
from repro.experiments.baselines import (
    BaselineComparison,
    PassthroughRedirector,
    run_enforcement_comparison,
)
from repro.experiments.parallel import (
    default_jobs,
    parallel_map,
    run_figures_parallel,
)
from repro.experiments.report import render_result, render_all

__all__ = [
    "BaselineComparison",
    "PassthroughRedirector",
    "run_enforcement_comparison",
    "Scenario",
    "FigureResult",
    "PhaseExpectation",
    "run_fig1",
    "run_fig3",
    "run_fig6",
    "run_fig7",
    "run_fig8",
    "run_fig9",
    "run_fig10",
    "ALL_FIGURES",
    "render_result",
    "render_all",
    "default_jobs",
    "parallel_map",
    "run_figures_parallel",
]
