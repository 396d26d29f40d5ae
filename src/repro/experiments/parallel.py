"""Deterministic parallel execution of experiment batches.

Simulations are single-threaded and independent across scenarios, so
sweeps, scaling studies and figure reruns parallelise trivially across
processes.  The contract this module enforces is *determinism under
parallelism*: results are a pure function of each task's own arguments
(scenario name, seed, knob value), never of the worker count or the order
workers finish in.  Running with ``jobs=1`` and ``jobs=8`` must produce
bit-identical outputs.

Two pieces make that hold:

- :func:`scenario_seed` derives a per-scenario seed from a base seed and
  the scenario's *name* with :func:`zlib.crc32` — stable across processes
  and interpreter runs (unlike salted ``hash()``), so a scenario's random
  stream does not depend on which worker picks it up.
- :func:`parallel_map` preserves input order (``Pool.map``) and falls back
  to a plain serial loop when one job is requested or only one item exists.
"""

from __future__ import annotations

import inspect
import multiprocessing as mp
import os
import zlib
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "scenario_seed",
    "default_jobs",
    "parallel_map",
    "figure_kwargs",
    "run_figures_parallel",
]


def scenario_seed(base: int, name: str) -> int:
    """Deterministic per-scenario seed partition.

    ``crc32`` (not ``hash``) so the value is identical in every process and
    interpreter invocation; masked to 31 bits to stay a valid numpy seed.
    """
    return (int(base) ^ zlib.crc32(name.encode("utf-8"))) & 0x7FFFFFFF


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


def figure_kwargs(
    name: str,
    scale: float,
    seed: int,
    partition_seeds: bool = False,
    shards: Optional[int] = None,
) -> Dict[str, Any]:
    """Keyword arguments for one ``ALL_FIGURES`` entry point: those of
    ``duration_scale``, ``duration`` (fig1d's, ``max(20, 100 × scale)``),
    ``seed`` and — when given — ``shards`` its signature takes.

    ``partition_seeds=True`` gives every figure its own
    :func:`scenario_seed`-derived stream; the default reuses ``seed``
    verbatim, matching a serial ``for name: run_figN(seed=seed)`` loop.
    """
    from repro.experiments.figures import ALL_FIGURES

    offered: Dict[str, Any] = {
        "duration_scale": scale,
        "duration": max(20.0, 100.0 * scale),
        "seed": scenario_seed(seed, name) if partition_seeds else seed,
    }
    if shards is not None:
        offered["shards"] = shards
    takes = inspect.signature(ALL_FIGURES[name]).parameters
    return {k: v for k, v in offered.items() if k in takes}


def _figure_task(task: Tuple[str, Dict[str, Any]]) -> Tuple[str, Any]:
    from repro.experiments.figures import ALL_FIGURES

    name, kwargs = task
    return name, ALL_FIGURES[name](**kwargs)


def run_figures_parallel(
    names: Optional[Sequence[str]] = None,
    scale: float = 0.3,
    seed: int = 0,
    jobs: Optional[int] = None,
    partition_seeds: bool = False,
    shards: Optional[int] = None,
) -> List[Tuple[str, Any]]:
    """Run paper figures across worker processes.

    Returns ``(name, result)`` pairs in the order requested.  Results are
    bit-identical to the serial path for any ``jobs`` (and, on the
    sharded lane, for any ``shards``).  Figures bound for the sharded lane
    run here in the parent: they bring their own worker processes, which
    the pool's daemonic workers may not have.
    """
    from repro.experiments.figures import ALL_FIGURES

    wanted = list(names) if names is not None else list(ALL_FIGURES)
    unknown = [n for n in wanted if n not in ALL_FIGURES]
    if unknown:
        raise KeyError(f"unknown figures {unknown}; have {list(ALL_FIGURES)}")
    tasks = [
        (n, figure_kwargs(n, scale, seed, partition_seeds, shards))
        for n in wanted
    ]
    pooled = iter(parallel_map(
        _figure_task, [t for t in tasks if "shards" not in t[1]], jobs=jobs,
    ))
    return [
        _figure_task(t) if "shards" in t[1] else next(pooled) for t in tasks
    ]
