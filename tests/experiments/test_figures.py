"""Every paper figure reproduces its shape (reduced-scale runs).

These are the repository's headline integration tests: each one executes
the full stack (agreement calculus -> LP scheduler -> combining tree ->
redirector -> clients -> servers) on the paper's exact scenario and checks
the measured phase rates against the figure.
"""

import pytest

from repro.experiments.figures import (
    run_fig1,
    run_fig1_distributed,
    run_fig3,
    run_fig6,
    run_fig7,
    run_fig8,
    run_fig9,
    run_fig10,
)

SCALE = 0.2  # 20 s phases instead of 100 s; steady states settle well before


class TestFig1:
    def test_endpoint_violates_and_coordination_restores(self):
        r = run_fig1()
        assert r.endpoint["A"] == pytest.approx(30.0, abs=0.5)
        assert r.endpoint["B"] == pytest.approx(70.0, abs=0.5)
        assert r.coordinated["A"] == pytest.approx(20.0, abs=0.5)
        assert r.coordinated["B"] == pytest.approx(80.0, abs=0.5)
        assert r.ok


@pytest.mark.slow
class TestFig1Distributed:
    def test_full_simulation_shows_violation_and_fix(self):
        r = run_fig1_distributed(duration=30.0, seed=0)
        # End-point: B falls visibly short of its 80 req/s entitlement.
        assert r.endpoint["B"] == pytest.approx(70.0, abs=4.0)
        assert r.endpoint["A"] == pytest.approx(30.0, abs=4.0)
        # Coordinated: the SLA split is restored.
        assert r.coordinated["B"] == pytest.approx(80.0, abs=4.0)
        assert r.coordinated["A"] == pytest.approx(20.0, abs=4.0)


class TestFig3:
    def test_exact_currency_values(self):
        r = run_fig3()
        assert r.ok
        assert r.finals["B"] == pytest.approx((760.0, 1340.0))
        assert r.tickets["O-Ticket4"] == pytest.approx(960.0)


@pytest.mark.slow
class TestTimelineFigures:
    def test_fig6(self):
        r = run_fig6(duration_scale=SCALE, seed=0)
        assert r.ok, r.deviations()

    def test_fig7(self):
        r = run_fig7(duration_scale=SCALE, seed=0)
        assert r.ok, r.deviations()
        # Each rate's 15 % band alone would admit 1.6x-2.4x.
        steady = r.phase("steady")
        assert 1.8 <= steady.rate("A") / steady.rate("B") <= 2.2

    def test_fig8(self):
        # Scale down the lag with the duration to keep phases meaningful.
        r = run_fig8(duration_scale=SCALE, seed=0, lag=4.0)
        assert r.ok, r.deviations()

    def test_fig9(self):
        r = run_fig9(duration_scale=SCALE, seed=0)
        assert r.ok, r.deviations()

    def test_fig10(self):
        r = run_fig10(duration_scale=SCALE, seed=0)
        assert r.ok, r.deviations()

    def test_fig6_seed_insensitive(self):
        r = run_fig6(duration_scale=SCALE, seed=99)
        assert r.ok, r.deviations()

    def test_fig8_rejects_lag_without_steady_phase(self):
        with pytest.raises(ValueError, match="steady phase"):
            run_fig8(duration_scale=0.05, lag=10.0)

    def test_fig8_default_lag_clamps(self):
        # With no explicit lag, scaled-down runs pick a feasible one.
        r = run_fig8(duration_scale=0.1, seed=0)
        assert r.ok, r.deviations()
