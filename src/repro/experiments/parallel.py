"""Deterministic parallel execution of experiment batches.

Simulations are single-threaded and independent across scenarios, so
sweeps, scaling studies and figure reruns parallelise trivially across
processes.  The contract this module enforces is *determinism under
parallelism*: results are a pure function of each task's own arguments
(scenario name, seed, knob value), never of the worker count or the order
workers finish in.  Running with ``jobs=1`` and ``jobs=8`` must produce
bit-identical outputs: every task carries its own seed, and
:func:`parallel_map` preserves input order (``Pool.map``) and falls back
to a plain serial loop when one job is requested or only one item exists.
"""

from __future__ import annotations

import multiprocessing as mp
import os
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "default_jobs",
    "parallel_map",
    "run_figures_parallel",
]


def default_jobs() -> int:
    """Worker count when the caller does not specify one.

    Resolution order:

    1. ``REPRO_JOBS`` environment override (must be a positive integer) —
       the explicit knob for CI runners and batch schedulers.
    2. ``os.sched_getaffinity(0)`` — the CPUs this process may actually
       run on.  ``os.cpu_count()`` reports the *machine's* cores and so
       oversubscribes inside containers with cgroup limits and under
       ``taskset``/slurm CPU masks.
    3. ``os.cpu_count()`` where affinity is unsupported (macOS, Windows).
    """
    env = os.environ.get("REPRO_JOBS")
    if env is not None:
        try:
            jobs = int(env)
        except ValueError:
            raise ValueError(
                f"REPRO_JOBS must be a positive integer, got {env!r}"
            ) from None
        if jobs < 1:
            raise ValueError(f"REPRO_JOBS must be >= 1, got {jobs}")
        return jobs
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return max(1, len(getaffinity(0)))
        except OSError:
            pass
    return max(1, os.cpu_count() or 1)


def parallel_map(
    fn: Callable[[Any], Any],
    items: Iterable[Any],
    jobs: Optional[int] = None,
) -> List[Any]:
    """Order-preserving map over ``items``, optionally across processes.

    ``fn`` must be a module-level (picklable) callable and each item must
    carry everything the task needs — including its seed — so the result is
    independent of ``jobs``.  ``jobs=None`` uses :func:`default_jobs`;
    ``jobs=1`` runs serially in-process (no pool, easier debugging).
    """
    tasks = list(items)
    n = default_jobs() if jobs is None else max(1, int(jobs))
    n = min(n, len(tasks))
    if n <= 1:
        return [fn(t) for t in tasks]
    # fork is cheapest and inherits the imported modules; fall back to
    # spawn where fork is unavailable (the tasks are self-contained either
    # way, so the start method cannot change results).
    method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
    with mp.get_context(method).Pool(processes=n) as pool:
        return pool.map(fn, tasks, chunksize=1)


# -- figure batches ----------------------------------------------------------


def _figure_task(task: Tuple[str, float, int]) -> Tuple[str, Any]:
    from repro.experiments.figures import ALL_FIGURES

    name, scale, seed = task
    return name, ALL_FIGURES[name](scale, seed)


def run_figures_parallel(
    names: Optional[Sequence[str]] = None,
    scale: float = 0.3,
    seed: int = 0,
    jobs: Optional[int] = None,
) -> List[Tuple[str, Any]]:
    """Run paper figures across worker processes.

    Returns ``(name, result)`` pairs in the order requested, bit-identical
    to the serial path for any ``jobs``.
    """
    from repro.experiments.figures import ALL_FIGURES

    wanted = list(names) if names is not None else list(ALL_FIGURES)
    unknown = [n for n in wanted if n not in ALL_FIGURES]
    if unknown:
        raise KeyError(f"unknown figures {unknown}; have {list(ALL_FIGURES)}")
    return parallel_map(_figure_task, [(n, scale, seed) for n in wanted],
                        jobs=jobs)
