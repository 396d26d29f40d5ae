"""Acceptance A/B: the L4 flow-record fast lane is bit-identical.

The L4 switch draws no randomness of its own — both lanes run the same
quota arithmetic at the same event times — so the contract is strict:
per-phase rates and the full per-window admitted-rate series must be
*bit-identical* between the flow-record lane (``lane="slotted"``, the
default) and the per-packet reference lane (``lane="scalar"``).  ``repro
check --scenario fig9|fig10`` enforces the same property via SHA-256 trace
digests in CI.
"""

import numpy as np
import pytest

from repro.analysis.replay import l4_replay
from repro.experiments.figures import run_fig9, run_fig10

SCALE = 0.05


@pytest.mark.parametrize("run_fig", [run_fig9, run_fig10],
                         ids=["fig9", "fig10"])
def test_l4_lanes_bit_identical(run_fig):
    fast = run_fig(duration_scale=SCALE, lane="slotted")
    scalar = run_fig(duration_scale=SCALE, lane="scalar")
    assert fast.phases == scalar.phases
    assert set(fast.series) == set(scalar.series)
    for key in fast.series:
        ft, fv = fast.series[key]
        st, sv = scalar.series[key]
        assert np.array_equal(ft, st)
        assert np.array_equal(fv, sv)


def test_l4_replay_digests_identical():
    """The CLI harness criterion itself: combined scenario + admission
    digests match across slotted / scalar / slotted-with-invariants runs."""
    report = l4_replay(figure="fig9", duration_scale=SCALE, seed=0,
                       runs=2, with_invariants=True)
    assert report.identical, report.render()
    assert report.ok, report.render()
