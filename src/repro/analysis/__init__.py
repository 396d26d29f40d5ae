"""Runtime determinism and conservation tooling.

The reproduction's headline claim — bit-identical figures across
``--jobs``, ``--shards`` and the slotted and columnar lanes — rests on
two contracts:

- **Determinism**: no wall-clock reads, no unseeded randomness, no
  iteration order drawn from unordered collections, total-order heap
  entries, no shared mutable state across parallel workers.
- **Conservation**: tickets allocated never exceed the issuing currency,
  window quotas never exceed capacity, servers never complete more work
  than their rate allows, NAT rewrite entries match open conntrack flows,
  LP solutions are feasible.

This package checks both at run time:

- :mod:`repro.analysis.invariants` — an :class:`InvariantChecker` runtime
  layer enabled via ``Scenario(check_invariants=True)`` or ``REPRO_CHECK=1``
  (a no-op costing one ``is None`` test per completion when off);
- :mod:`repro.analysis.replay` — a replay-determinism harness that runs a
  scenario twice (optionally a third time with invariants on) and compares
  trace digests, run as ``repro check`` and in CI.

The static side, the determinism lint (rules SIM001–SIM011), is the
stand-alone ``tools/simlint`` package, run as ``PYTHONPATH=tools python
-m simlint``; the simulator never imports it.  See ``docs/DETERMINISM.md``
for the full rule catalogue and rationale.
"""

from repro.analysis.invariants import (
    InvariantChecker,
    InvariantViolation,
    check_enabled,
)
from repro.analysis.replay import ReplayReport, figure_replay, scenario_digest

__all__ = [
    "InvariantChecker",
    "InvariantViolation",
    "check_enabled",
    "ReplayReport",
    "figure_replay",
    "scenario_digest",
]
