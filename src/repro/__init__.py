"""repro — reproduction of Zhao & Karamcheti, "Enforcing Resource Sharing
Agreements among Distributed Server Clusters" (IPDPS 2002).

The package is organised bottom-up:

- :mod:`repro.sim` — discrete-event simulation kernel (the testbed substrate).
- :mod:`repro.core` — the ticket/currency agreement calculus (paper §2).
- :mod:`repro.lp` — LP modelling DSL, compiled programs and the bounded simplex.
- :mod:`repro.scheduling` — window schedulers and baselines (paper §3.1).
- :mod:`repro.coordination` — combining-tree aggregation protocol (paper §3.2).
- :mod:`repro.cluster` — WebBench-like clients, capacity servers, workloads.
- :mod:`repro.l7` — Layer-7 HTTP redirector (simulated + real asyncio).
- :mod:`repro.l4` — Layer-4 NAT packet redirector (paper §4.2).
- :mod:`repro.experiments` — per-figure experiment harness (paper §5).

Quickstart::

    from repro import AgreementGraph, Agreement, compute_access_levels

    g = AgreementGraph()
    g.add_principal("A", capacity=1000.0)
    g.add_principal("B", capacity=1500.0)
    g.add_principal("C", capacity=0.0)
    g.add_agreement(Agreement("A", "B", 0.4, 0.6))
    g.add_agreement(Agreement("B", "C", 0.6, 1.0))
    levels = compute_access_levels(g)
    levels.mandatory("C")   # -> 1140.0
"""

from repro.core.agreements import Agreement, AgreementGraph
from repro.core.access import AccessLevels, compute_access_levels
from repro.core.valuation import CurrencyValuation, value_currencies

__all__ = [
    "Agreement",
    "AgreementGraph",
    "AccessLevels",
    "compute_access_levels",
    "CurrencyValuation",
    "value_currencies",
    "__version__",
]

__version__ = "1.0.0"
