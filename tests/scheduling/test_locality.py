import math

import pytest

from repro.core.access import compute_access_levels
from repro.core.agreements import Agreement, AgreementGraph
from repro.scheduling.community import CommunityScheduler
from repro.scheduling.locality import locality_caps_from_bias, normalize_bias
from repro.scheduling.window import WindowConfig


class TestNormalizeBias:
    def test_normalizes(self):
        assert normalize_bias({"S1": 3, "S2": 1}) == {
            "S1": pytest.approx(0.75),
            "S2": pytest.approx(0.25),
        }

    def test_zero_sum_rejected(self):
        with pytest.raises(ValueError):
            normalize_bias({"S1": 0.0})

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            normalize_bias({"S1": -1.0, "S2": 2.0})


class TestLocalityCaps:
    def test_fig1_bias(self):
        caps = locality_caps_from_bias(40.0, {"S1": 3, "S2": 1})
        assert caps["S1"] == pytest.approx(30.0)
        assert caps["S2"] == pytest.approx(10.0)

    def test_slack_loosens(self):
        caps = locality_caps_from_bias(40.0, {"S1": 1, "S2": 1}, slack=1.5)
        assert caps["S1"] == pytest.approx(30.0)

    def test_bad_slack(self):
        with pytest.raises(ValueError):
            locality_caps_from_bias(10.0, {"S1": 1}, slack=0.5)

    def test_negative_load(self):
        with pytest.raises(ValueError):
            locality_caps_from_bias(-1.0, {"S1": 1})


class TestFig1LocalityTradeoff:
    """The c_i extension of §3.1.2 on Fig 1's topology: per-server push
    caps from the redirectors' 75/25 biases never cost a guarantee."""

    @pytest.mark.parametrize("slack", [1.2, 1.5, 2.0])
    def test_guarantees_hold_at_every_slack(self, slack):
        g = AgreementGraph()
        g.add_principal("S1", capacity=50.0)
        g.add_principal("S2", capacity=50.0)
        g.add_principal("A")
        g.add_principal("B")
        for server in ("S1", "S2"):
            g.add_agreement(Agreement(server, "A", 0.2, 1.0))
            g.add_agreement(Agreement(server, "B", 0.8, 1.0))
        sched = CommunityScheduler(compute_access_levels(g), WindowConfig(1.0))
        # R1 (load 40) biases 75/25, R2 (load 80) biases 25/75.
        r1 = locality_caps_from_bias(40.0, {"S1": 3, "S2": 1}, slack=slack)
        r2 = locality_caps_from_bias(80.0, {"S1": 1, "S2": 3}, slack=slack)
        caps = {k: r1[k] + r2[k] for k in ("S1", "S2")}
        caps.update({"A": math.inf, "B": math.inf})
        plan = sched.schedule({"A": 40.0, "B": 80.0}, locality_caps=caps)
        assert plan.served("B") >= 80.0 - 1e-6
        assert plan.served("A") >= 20.0 - 1e-6
