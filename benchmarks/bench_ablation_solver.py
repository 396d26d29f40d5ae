"""Ablation — the window solve: cold two-phase vs warm-started, and against
the scipy oracle.

The paper argues per-window LP solving is cheap because "the complexity of
this strategy only depends on the number of principals involved".  This
benchmark times one compiled community-scheduler window for growing
principal counts (the LP has ~n^2 variables), from scratch and from the
previous basis, and verifies the schedule against scipy's HiGHS.
"""

import numpy as np
import pytest

from repro.core.access import compute_access_levels
from repro.core.agreements import Agreement, AgreementGraph
from repro.lp.oracle import solve_scipy
from repro.scheduling.community import CommunityScheduler
from repro.scheduling.window import WindowConfig


def _ring_graph(n: int) -> AgreementGraph:
    """n principals in a sharing ring, each granting [0.3, 0.6] onward."""
    g = AgreementGraph()
    for i in range(n):
        g.add_principal(f"P{i}", capacity=100.0 * (1 + i % 3))
    for i in range(n):
        g.add_agreement(Agreement(f"P{i}", f"P{(i + 1) % n}", 0.3, 0.6))
    return g


def _demands(n: int) -> dict:
    rng = np.random.default_rng(0)
    return {f"P{i}": float(rng.uniform(0, 40)) for i in range(n)}


@pytest.mark.parametrize("n", [3, 6, 10])
@pytest.mark.parametrize("warm_start", [False, True], ids=["cold", "warm"])
def test_window_solve_time(benchmark, n, warm_start):
    sched = CommunityScheduler(
        compute_access_levels(_ring_graph(n)), WindowConfig(0.1),
        lp_cache=False, warm_start=warm_start,
    )
    q = _demands(n)
    result = benchmark(sched.schedule, q)
    assert result.theta >= 0.0


@pytest.mark.parametrize("n", [3, 6, 10])
def test_backends_agree(benchmark, n):
    sched = CommunityScheduler(compute_access_levels(_ring_graph(n)), WindowConfig(0.1))
    q = _demands(n)

    def both():
        plan = sched.schedule(q)
        return plan, solve_scipy(sched.program)

    plan, oracle = benchmark.pedantic(both, rounds=1, iterations=1)
    assert plan.theta == pytest.approx(oracle.objective, abs=1e-6)
