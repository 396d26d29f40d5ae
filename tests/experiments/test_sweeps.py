"""Parameter-sweep helpers (short runs)."""

import pytest

from repro.experiments.sweeps import (
    sweep_delay,
    sweep_redirectors,
    sweep_window,
)


class TestSweeps:
    def test_window_sweep_shape(self):
        points = sweep_window(lengths=(0.1, 0.2), duration=10.0)
        assert [p.knob for p in points] == [0.1, 0.2]
        for p in points:
            assert p.enforcement_error < 0.15
            assert p.a_rate + p.b_rate == pytest.approx(320.0, rel=0.08)

    def test_redirector_sweep_messages(self):
        points = sweep_redirectors(counts=(1, 4), duration=10.0)
        assert points[0].extra["messages_per_round"] == pytest.approx(0.0, abs=0.1)
        assert points[1].extra["messages_per_round"] == pytest.approx(6.0, rel=0.3)


class TestSweepConclusions:
    """Enforcement stays within 10 % of B's guarantee across each knob the
    paper fixes."""

    def test_window(self):
        points = sweep_window(lengths=(0.05, 0.1, 0.25), duration=20.0)
        assert all(p.enforcement_error < 0.1 for p in points)

    def test_delay(self):
        points = sweep_delay(delays=(0.005, 0.5, 2.0), duration=30.0)
        assert all(p.enforcement_error < 0.1 for p in points)
        # The conservative fallback lasts until the first broadcast, so
        # the start-up ramp can only get worse with delay.
        assert points[-1].extra["ramp_b"] <= points[0].extra["ramp_b"] + 5.0

    def test_redirectors(self):
        points = sweep_redirectors(counts=(1, 2, 4), duration=25.0)
        assert all(p.enforcement_error < 0.1 for p in points)
