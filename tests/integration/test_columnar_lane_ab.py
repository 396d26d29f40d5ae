"""Acceptance A/B: the columnar lane is bit-identical to both event lanes.

The columnar lane advances whole open-loop phases as numpy columns with
one engine event per window, so the contract is the strictest in the
repo: on a figure's own world (retry pools on, refusals parked at the
redirector), per-window admitted/refused/served series, every
client/server counter and the combined SHA-256 digests must be
*bit-identical* across three runs — the slotted lane (per-request
events), the slotted lane with the L4 switch replaced by the per-packet
oracle (the slotted run again where there is no L4 switch), and the
columnar lane, which ``run_fig6`` / ``run_fig9`` / ``run_fig10`` use by
default.  ``repro check --scenario fig6 --scenario fig9`` enforces the
columnar/slotted half in CI via
:func:`repro.analysis.replay.columnar_replay`.

The batch-size invariance tests pin the structural argument: the gap
chain is a seeded cumsum restarted from the last emitted tick, so the
refill granularity (1k, 64k, or one whole phase per block) is
unobservable.
"""

from dataclasses import replace

import numpy as np
import pytest

import repro.experiments.harness as harness
from repro.analysis.replay import columnar_replay, combined_digest, scenario_digest
from repro.experiments.figures import WORLDS, fig1_world, fig6_world, fig9_world
from repro.experiments.scaling import scaling_world
from repro.experiments.sweeps import contended_world
from repro.scheduling.window import WindowConfig
from tests.l4.packet_oracle import PacketL4Switch

SCALE = 0.05


def _series_equal(a, b):
    assert set(a) == set(b)
    for key in a:
        at, av = a[key]
        bt, bv = b[key]
        assert np.array_equal(at, bt), key
        assert np.array_equal(av, bv), key


@pytest.mark.parametrize("build", [fig6_world, fig9_world],
                         ids=["fig6", "fig9"])
def test_three_lanes_bit_identical(build, monkeypatch):
    runs = {
        lane: build(SCALE, 0).scenario(lane) for lane in ("slotted", "columnar")
    }
    monkeypatch.setattr(harness, "L4Switch", PacketL4Switch)
    runs["packet"] = build(SCALE, 0).scenario("slotted")
    col = runs["columnar"]
    assert col.lane == "columnar" and col.lane_fallback is None
    assert col.columnar is not None and col.columnar.requests > 0
    for other in ("packet", "slotted"):
        ref = runs[other]
        _series_equal(
            {k: col.meter.series(k) for k in col.meter.keys},
            {k: ref.meter.series(k) for k in ref.meter.keys},
        )
        for name, cli in col.clients.items():
            peer = ref.clients[name]
            assert (cli.issued, cli.admitted, cli.completed,
                    cli.deferred, cli.dropped, cli.parked) == \
                   (peer.issued, peer.admitted, peer.completed,
                    peer.deferred, peer.dropped, peer.parked), (other, name)
        for name, srv in col.servers.items():
            peer = ref.servers[name]
            assert srv.completed == peer.completed, (other, name)
            assert srv.busy_time == peer.busy_time, (other, name)
        assert scenario_digest(col) == scenario_digest(ref), other


@pytest.mark.parametrize("figure", list(WORLDS))
def test_columnar_replay_digests_identical(figure):
    """The CLI harness criterion itself: combined scenario + admission
    digests match across slotted / columnar runs."""
    report = columnar_replay(figure=figure, duration_scale=SCALE, seed=0)
    assert report.labels == ["slotted", "columnar"]
    assert report.meta["columnar_fallback"] is None
    assert report.meta["columnar_requests"] > 0
    assert report.identical, report.render()
    assert report.ok, report.render()


@pytest.mark.parametrize("world", [
    *(pytest.param(replace(contended_world(20.0, 5.0), window=WindowConfig(w)),
                   id=f"contended-{w}") for w in (0.05, 0.1, 0.5)),
    pytest.param(scaling_world(6), id="scaling-6"),
    pytest.param(fig1_world(10.0), id="fig1d"),
])
def test_derived_records_run_columnar_bit_for_bit(world):
    """The records beside fig6-fig10 that default to columnar: the sweeps'
    contended world, the scaling study and the coordinated fig1, which
    ``repro check`` does not reach."""
    col = world.scenario()
    assert (col.lane, col.lane_fallback) == ("columnar", None)
    assert combined_digest(col) == combined_digest(world.scenario("slotted"))


@pytest.mark.parametrize("batch", [1024, 65536, 1 << 22],
                         ids=["1k", "64k", "whole-phase"])
def test_batch_size_invariance(batch):
    """The refill block size must be unobservable: every batch reproduces
    the default's (one second of arrivals, here 1,024) digest bit-for-bit
    (1<<22 covers any phase whole)."""
    def run(b):
        return fig6_world(SCALE, 0).scenario("columnar")

    def run_with_batch(b):
        from repro.experiments.harness import Scenario

        T = 100.0 * SCALE
        sc = Scenario(fig6_world(SCALE).graph(), seed=0, lane="columnar")
        server = sc.server("S", "S", 320.0)
        r1 = sc.l7("R1", {"S": server}, n_redirectors=2)
        r2 = sc.l7("R2", {"S": server}, n_redirectors=2)
        sc.connect_tree(link_delay=0.005)
        sc.client("C1", "A", r1, rate=135.0, windows=[(0.0, 3 * T)], batch=b)
        sc.client("C2", "A", r1, rate=135.0, windows=[(0.0, 3 * T)], batch=b)
        sc.client("C3", "B", r2, rate=135.0,
                  windows=[(0.0, T), (2 * T, 3 * T)], batch=b)
        sc.run(3 * T)
        return sc

    reference = scenario_digest(run(None))
    assert scenario_digest(run_with_batch(batch)) == reference


def _one_instant_world(shape, seed, lane):
    """C1 and C2 (A) open together at t = 6 s; C3 (B) runs throughout.

    ``shape`` picks the columnar path that merges them: ``sole`` -- two
    sole-server L7 redirectors (one principal's clients at a time);
    ``pooled`` -- the same redirectors over a two-server pool (one
    per-event walk over all clients); ``l4`` -- two L4 switches, whose
    reinjection releases reach the shared server beside arrivals."""
    from repro.experiments.harness import Scenario

    sc = Scenario(fig6_world().graph(), seed=seed, lane=lane)
    if shape == "pooled":
        pool = [sc.server("S1", "S", 160.0), sc.server("S2", "S", 160.0)]
        r1 = sc.l7("R1", {"S": pool}, n_redirectors=2)
        r2 = sc.l7("R2", {"S": pool}, n_redirectors=2)
    else:
        server = sc.server("S", "S", 320.0)
        make = sc.l4 if shape == "l4" else sc.l7
        r1 = make("R1", {"S": server}, n_redirectors=2)
        r2 = make("R2", {"S": server}, n_redirectors=2)
    sc.connect_tree(link_delay=0.005)
    sc.client("C1", "A", r1, rate=135.0, windows=[(6.0, 12.0)])
    sc.client("C2", "A", r1, rate=135.0, windows=[(6.0, 12.0)])
    sc.client("C3", "B", r2, rate=135.0, windows=[(0.0, 12.0)])
    sc.run(12.0)
    return sc


@pytest.mark.parametrize("shape,seed", [
    # Today's world keeps its plain seed ids.
    pytest.param(shape, seed, id=str(seed) if shape == "sole" else f"{shape}-{seed}")
    for shape in ("sole", "pooled", "l4") for seed in range(4)
])
def test_clients_opening_at_one_instant_fire_in_engine_order(shape, seed):
    """Every arrival of C1 ties with an arrival of C2.  The event lanes
    fire equal-time ticks in scheduling order: each tick is scheduled by
    the client's previous one, back to the idle ticks that re-armed both
    clients for t = 6 s, whose order is their start skews' -- not creation
    order.  The columnar lane must merge them the same way on every path
    that gathers arrivals."""
    col = _one_instant_world(shape, seed, "columnar")
    assert (col.lane, col.lane_fallback) == ("columnar", None)
    assert scenario_digest(col) == \
        scenario_digest(_one_instant_world(shape, seed, "slotted"))
