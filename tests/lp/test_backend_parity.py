"""Property test: the bounded simplex agrees with the scipy oracle on the
schedulers' compiled programs, including warm-started re-solves.

The solver and the oracle (HiGHS) may pick different vertices under
degeneracy, but the *objective* of the community window LP must agree to
tight tolerance on any feasible instance — and a warm-started re-solve must
match its cold-started twin exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.access import compute_access_levels
from repro.experiments.scaling import random_community
from repro.lp.oracle import scipy_available, solve_scipy
from repro.scheduling.community import CommunityScheduler
from repro.scheduling.window import WindowConfig


def _instance(seed: int):
    """A random feasible community LP: graph + demand vector."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 9))
    g = random_community(n, seed=seed, servers=int(rng.integers(2, 4)))
    access = compute_access_levels(g)
    demand = {
        name: float(rng.uniform(0.0, 60.0))
        for name in g.names
        if g.principal(name).capacity == 0.0
    }
    return access, demand


@pytest.mark.skipif(not scipy_available(), reason="scipy missing")
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_backends_agree_on_community_lp(seed):
    access, demand = _instance(seed)
    sched = CommunityScheduler(
        access, WindowConfig(0.1), warm_start=False
    )
    theta = sched.schedule(demand).theta
    # The oracle solves the very program the scheduler patched and solved.
    assert solve_scipy(sched.program).objective == pytest.approx(theta, abs=1e-6)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_warm_started_resolves_match_cold(seed):
    """Warm start is an accelerator, never a result changer."""
    access, demand = _instance(seed)
    rng = np.random.default_rng(seed + 1)
    # A drift sequence: the first solve seeds the basis, later solves may
    # start from it (or silently fall back when it has gone infeasible).
    seq = [
        {p: max(0.0, d * float(rng.uniform(0.8, 1.2))) for p, d in demand.items()}
        for _ in range(5)
    ]
    warm = CommunityScheduler(access, WindowConfig(0.1),
                              warm_start=True)
    cold = CommunityScheduler(access, WindowConfig(0.1),
                              warm_start=False)
    for q in seq:
        tw = warm.schedule(q).theta
        tc = cold.schedule(q).theta
        assert tw == pytest.approx(tc, abs=1e-9)
    assert warm.lp_solves == cold.lp_solves == len(seq)
    # The warm path must be at least as cheap in simplex iterations.
    assert warm.lp_iterations <= cold.lp_iterations


def test_warm_start_engages_on_steady_drift():
    """On a gently shifted RHS the previous basis is actually reused."""
    access, demand = _instance(7)
    sched = CommunityScheduler(access, WindowConfig(0.1),
                               warm_start=True)
    sched.schedule(demand)
    bumped = {p: d * 1.01 for p, d in demand.items()}
    plan = sched.schedule(bumped)
    assert plan.solution.warm_started
