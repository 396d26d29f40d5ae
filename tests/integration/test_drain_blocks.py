"""The columnar server lanes' drain block is unobservable.

Every pump merges a window's submissions into firing order and queues
them; the lanes serve the queue and commit its completions together, once
``_DRAIN_BLOCK`` requests are queued over all lanes and at the run's end.
Whatever the block, a run must end in the same state bit for bit: the
digests, the meters' prorated totals, each server's busy time, every
client counter and each client's response-time stats (count, moments and
reservoir), which depend on the order completions are folded in.
Blocks of 1 request drain every window with submissions, 10**9 only at
the run's end.
"""

import pytest
from hypothesis import given, settings, strategies as st

import repro.cluster.columnar as columnar
from repro.analysis.replay import combined_digest
from repro.experiments.figures import WORLDS as FIGURES
from tests.integration.test_columnar_parking import WORLDS as PARKING
from tests.integration.test_lane_fuzz import worlds as random_worlds
from tests.integration.test_pinned_digests import _columnar_load_world

BLOCKS = (1, 7, 64, 10**9)


def _observed(sc):
    """Everything the commit side writes, at exact float bits."""
    assert (sc.lane, sc.lane_fallback) == ("columnar", None)
    # The run's last pump and the flush served every queued request.
    for lane in sc.columnar._lanes.values():
        assert lane.backlog == 0 and not lane._queue, lane.server.name
    return (
        combined_digest(sc),
        # Phase totals prorate their edge bins (RateMeter.total).
        {key: sc.meter.total(key, 0.35, 0.77 * sc.sim.now).hex()
         for key in sc.meter.keys},
        {name: srv.busy_time.hex() for name, srv in sc.servers.items()},
        {name: (c.issued, c.admitted, c.completed, c.deferred, c.dropped,
                c.parked, c.response_stats.count,
                c.response_stats.mean.hex(), c.response_stats.variance.hex(),
                c.response_stats.samples, c.response_stats._sample_seq)
         for name, c in sc.clients.items()},
    )


def _drains(monkeypatch):
    """Count ``_ServerLane._drain`` calls."""
    calls = [0]
    drain = columnar._ServerLane._drain

    def counted(self, *args):
        calls[0] += 1
        return drain(self, *args)

    monkeypatch.setattr(columnar._ServerLane, "_drain", counted)
    return calls


def _figure(name):
    return lambda: FIGURES[name](0.05, 0).scenario(
        "columnar", check_invariants=False)


BUILDERS = {
    **{f"parking-{w}": (lambda w=w: PARKING[w]("columnar", 0, 0.05))
       for w in sorted(PARKING)},
    **{name: _figure(name) for name in ("fig6", "fig9", "fig10")},
    "columnar-load": lambda: _columnar_load_world(0, "columnar"),
}


@pytest.mark.parametrize("world", sorted(BUILDERS))
def test_drain_block_is_unobservable(world, monkeypatch):
    monkeypatch.delenv("REPRO_CHECK", raising=False)
    calls = _drains(monkeypatch)
    reference = _observed(BUILDERS[world]())
    drains = {}
    for block in BLOCKS:
        monkeypatch.setattr(columnar, "_DRAIN_BLOCK", block)
        calls[0] = 0
        assert _observed(BUILDERS[world]()) == reference, block
        drains[block] = calls[0]
    # The blocks did group the work differently.
    assert drains[1] > drains[10**9] > 0, drains


@settings(max_examples=10, deadline=None)
@given(world=random_worlds(), block=st.integers(1, 4096))
def test_random_world_is_block_invariant(world, block):
    reference = _observed(world.scenario("columnar", check_invariants=False))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(columnar, "_DRAIN_BLOCK", block)
        assert _observed(
            world.scenario("columnar", check_invariants=False)) == reference
