"""simlint — whole-program static analysis for simulation determinism.

A stray ``time.time()``, an unseeded RNG, a ``for`` loop over a ``set``
feeding the event heap, or two components sharing one RNG substream
silently break the bit-identical-replay contract the whole benchmark
ledger rests on.  This package parses Python source with :mod:`ast` —
no imports, no execution — builds a project IR (module index, import
graph, symbol table, bounded call graph; see :mod:`.ir`) and applies:

========  ==============================================================
SIM001    wall-clock read (``time.time``/``datetime.now``/``perf_counter``
          et al.) outside ``benchmarks/`` — simulations must use ``sim.now``
SIM002    global ``random`` module or unseeded ``np.random.default_rng()``
          — draws must thread :class:`repro.sim.rng.RngStreams` generators
SIM003    iteration over a ``set``/``frozenset`` (unordered) — wrap in
          ``sorted(...)`` so downstream heap/RNG/LP row order is stable
SIM004    ``heapq.heappush`` of a bare ``(time, payload)`` 2-tuple — heap
          entries need a total-order tie-breaker: ``(time, seq, payload)``
SIM005    ``threading`` or ``global`` mutable state in parallel job
          payloads (``experiments/`` workers must be share-nothing)
SIM006    legacy ``np.random.*`` module-level RandomState use
          (``np.random.rand``, ``np.random.seed``, …) — one hidden global
          stream breaks substream isolation even when seeded
SIM007    shard-unsafe patterns: ``os.cpu_count()`` outside
          ``default_jobs()``, and module-level mutable state read
          *directly* inside worker functions (``*_task``/``*_worker``/
          ``*_main``)
SIM008    [project] RNG substream label collisions across modules
          (f-string labels unified by shape: ``f"client:{name}"`` ->
          ``client:{}``) and labels too dynamic to audit statically
SIM009    [project] *transitive* impurity in worker functions: the call
          graph's bounded closure reaches a function (any module) that
          reads module-level mutable state
SIM010    float reductions (``sum``/``min``/``max``) over unordered
          collections — sets anywhere; ``dict.values()``/``.items()`` in
          digest/stat sink modules where accumulation order becomes
          recorded bits
SIM011    key-based ordering without a deterministic tie-breaker: keyed
          ``sorted``/``nsmallest``/``nlargest`` over a set (ties keep the
          set's arbitrary order), or heap entries violating the engine's
          ``(time, seq, payload)`` convention in the second slot
========  ==============================================================

Suppression: append ``# simlint: disable=SIM001`` (comma-separated codes,
or bare ``# simlint: disable`` for all) to the flagged line, with a
nearby rationale comment.

Run from the repository root with the standard library alone::

    PYTHONPATH=tools python -m simlint [paths...]    # default: src/repro

Exit status: 0 clean, 1 findings, 2 usage error (a missing path or a
file that does not parse).
"""

from __future__ import annotations

import argparse
from typing import Iterable, Optional

from simlint.engine import lint_paths, run
from simlint.local import RULES, Violation, lint_source
from simlint.output import format_text

__all__ = [
    "RULES",
    "Violation",
    "format_text",
    "lint_paths",
    "lint_source",
    "run",
    "main",
]


def main(argv: Optional[Iterable[str]] = None) -> int:
    """``python -m simlint [paths...]`` entry point."""
    parser = argparse.ArgumentParser(
        prog="simlint",
        description="simulation determinism lint (SIM001-SIM011)",
    )
    parser.add_argument("paths", nargs="*", default=["src/repro"],
                        help="files or directories to lint")
    args = parser.parse_args(list(argv) if argv is not None else None)
    try:
        return run(args.paths)
    except ValueError as exc:
        print(f"simlint: error: {exc}")
        return 2
