"""Property test: the bounded simplex agrees with the scipy oracle on the
schedulers' compiled programs.

The solver and the oracle (HiGHS) may pick different vertices under
degeneracy, but the *objective* of the community window LP must agree to
tight tolerance on any feasible instance.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.access import compute_access_levels
from repro.experiments.scaling import random_community
from repro.scheduling.community import CommunityScheduler
from repro.scheduling.window import WindowConfig
from tests.lp.oracle import scipy_available, solve_scipy


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
    sched = CommunityScheduler(access, WindowConfig(0.1))
    theta = sched.schedule(demand).theta
    # The oracle solves the very program the scheduler patched and solved.
    assert solve_scipy(sched.program).objective == pytest.approx(theta, abs=1e-6)
