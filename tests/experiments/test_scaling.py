"""Scaling-study helpers (short runs)."""

import pytest

from repro.core.access import compute_access_levels
from repro.experiments.scaling import (
    random_community,
    run_scaling_point,
    run_scaling_sweep,
)


class TestRandomCommunity:
    def test_structure(self):
        g = random_community(12, seed=3)
        assert len(g) == 12
        owners = [n for n in g.names if g.principal(n).capacity > 0]
        assert len(owners) == 4
        assert g.agreements()          # some sharing exists
        g.validate()

    @pytest.mark.parametrize("seed", range(5))
    def test_always_valid_and_solvable(self, seed):
        g = random_community(20, seed=seed)
        access = compute_access_levels(g)
        # Conservation: total mandatory == total capacity.
        assert access.MC.sum() == pytest.approx(access.V.sum(), abs=1e-6)

    def test_reproducible(self):
        a = random_community(10, seed=1)
        b = random_community(10, seed=1)
        assert [str(x) for x in a.agreements()] == [str(x) for x in b.agreements()]


class TestScalingPoint:
    def test_metrics_populated(self):
        p = run_scaling_point(8, seed=0, duration=6.0)
        assert p.n_principals == 8
        assert p.plans > 0
        assert p.plan_ms_mean > 0.0
        assert 0.0 <= p.guarantee_satisfaction <= 1.0
        assert p.throughput <= p.capacity * 1.05

    @pytest.mark.parametrize("n", [6, 10, 18])
    def test_guarantees_hold(self, n):
        point = run_scaling_point(n, seed=0, duration=10.0)
        assert point.guarantee_satisfaction >= 0.99

    def test_guarantees_hold_across_a_sweep(self):
        points = run_scaling_sweep(sizes=(6, 14, 30), duration=8.0)
        assert all(p.guarantee_satisfaction >= 0.99 for p in points)
