"""Acceptance A/B: the L4 flow path is bit-identical to the per-packet oracle.

The L4 switch draws no randomness of its own — the production flow path
(:class:`~repro.l4.switch.L4Switch`) and the per-packet oracle
(:class:`tests.l4.packet_oracle.PacketL4Switch`) run the same quota
arithmetic at the same event times — so the contract is strict: per-phase
rates, the full per-window series and the combined scenario + admission
digests must be *bit-identical* when the oracle replaces the switch the
slotted lane builds.
"""

import numpy as np
import pytest

import repro.experiments.figures as figures
import repro.experiments.harness as harness
from repro.analysis.replay import combined_digest, figure_replay
from tests.l4.packet_oracle import PacketL4Switch

SCALE = 0.05


def _run_slotted(figure, monkeypatch, oracle):
    """Run ``figure`` on the slotted lane, on the oracle switch if asked;
    returns (its Scenario, its result)."""
    world = figures.WORLDS[figure](SCALE)
    with monkeypatch.context() as m:
        if oracle:
            m.setattr(harness, "L4Switch", PacketL4Switch)
        sc = world.scenario("slotted")
    result = world.measure(sc)
    switch_cls = PacketL4Switch if oracle else harness.L4Switch
    assert [type(sw) for sw in sc.l4_switches.values()] == [switch_cls]
    return sc, result


@pytest.mark.parametrize("figure", ["fig9", "fig10"])
def test_l4_lanes_bit_identical(figure, monkeypatch):
    sc, fast = _run_slotted(figure, monkeypatch, oracle=False)
    oracle_sc, oracle = _run_slotted(figure, monkeypatch, oracle=True)
    assert fast.phases == oracle.phases
    assert set(fast.series) == set(oracle.series)
    for key in fast.series:
        ft, fv = fast.series[key]
        st, sv = oracle.series[key]
        assert np.array_equal(ft, st)
        assert np.array_equal(fv, sv)
    assert combined_digest(sc) == combined_digest(oracle_sc)


def test_l4_replay_digests_identical(monkeypatch):
    """The CLI harness criterion itself: ``figure_replay`` digests match
    across plain and invariant-checked runs, and the oracle lands on the
    same digest with the invariant checker on."""
    report = figure_replay(figure="fig9", duration_scale=SCALE, seed=0,
                           runs=2, with_invariants=True)
    assert report.identical, report.render()
    assert report.ok, report.render()
    monkeypatch.setattr(harness, "L4Switch", PacketL4Switch)
    oracle = figure_replay(figure="fig9", duration_scale=SCALE, seed=0,
                           runs=1, with_invariants=True)
    assert oracle.ok, oracle.render()
    assert set(oracle.digests) == set(report.digests)
