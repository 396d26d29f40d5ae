"""Shared fixtures: the paper's canonical agreement graphs.

Also the hypothesis profiles.  Tier-1 runs ``tier1``: derandomised (the
examples are a function of each test's source, not of the clock) and without
the local example database, so the gate cannot flake or remember.  The
non-gating CI job explores with ``--hypothesis-profile=random`` (add
``--hypothesis-seed=N`` to reproduce one of its runs).
"""

import pytest
from hypothesis import settings

from repro.core.agreements import Agreement, AgreementGraph

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("random", database=None)
settings.load_profile("tier1")


@pytest.fixture
def fig3_graph() -> AgreementGraph:
    """The worked example of paper Fig 3."""
    g = AgreementGraph()
    g.add_principal("A", capacity=1000.0)
    g.add_principal("B", capacity=1500.0)
    g.add_principal("C", capacity=0.0)
    g.add_agreement(Agreement("A", "B", 0.4, 0.6))
    g.add_agreement(Agreement("B", "C", 0.6, 1.0))
    return g


@pytest.fixture
def fig6_graph() -> AgreementGraph:
    """Single 320 req/s server, A [0.2,1], B [0.8,1] (paper Fig 6)."""
    g = AgreementGraph()
    g.add_principal("S", capacity=320.0)
    g.add_principal("A")
    g.add_principal("B")
    g.add_agreement(Agreement("S", "A", 0.2, 1.0))
    g.add_agreement(Agreement("S", "B", 0.8, 1.0))
    return g


@pytest.fixture
def fig9_graph() -> AgreementGraph:
    """A and B each own 320 req/s; B grants A [0.5,0.5] (paper Fig 9)."""
    g = AgreementGraph()
    g.add_principal("A", capacity=320.0)
    g.add_principal("B", capacity=320.0)
    g.add_agreement(Agreement("B", "A", 0.5, 0.5))
    return g
