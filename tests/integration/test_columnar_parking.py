"""Parking on the columnar lane, branch by branch, against the slotted lane.

A refused request waits in its redirector's ``ParkedRequests`` on every
lane.  The columnar groups park a window's refusals in bulk
(``ColumnarEngine.refuse``) and the redirector's ``install`` re-offers them
one at a time through ``ColumnarClient._offer``.  The worlds below are
small and overloaded, so that every branch of that path fires:

- a client's pool is full, so its refusal is dropped;
- the re-offered head is refused again, which ends the re-offer;
- the head's client has gone inactive, so the re-offer drops it;
- (L4) the SYN queue is full, so the arrival parks;
- (L4) a re-offer is admitted at a boundary whose reinjection drain also
  scheduled releases, so both land on the server at the same instant.

For each world, scale and seed, every client counter, every redirector's
parked count, every meter series and the digests must equal the slotted
lane's.
"""

import numpy as np
import pytest

from repro.analysis.replay import admission_digest, scenario_digest
from repro.cluster.columnar import ColumnarClient, ColumnarEngine
from repro.cluster.workload import RequestMix
from repro.core.agreements import Agreement, AgreementGraph
from repro.experiments.harness import Scenario
from repro.l4.columnar import ColumnarL4Switch

SCALES = (0.05, 0.2)
SEEDS = range(5)


def _l7_world(lane, seed, scale, pooled):
    """fig6 in miniature, oversubscribed 2:1.  One server makes the group
    take its vectorised path, a two-server pool its per-request loop; C2
    sends size-proportional costs and leaves early, and B leaves at T."""
    T = 100.0 * scale
    g = AgreementGraph()
    g.add_principal("S", capacity=100.0)
    g.add_principal("A")
    g.add_principal("B")
    g.add_agreement(Agreement("S", "A", 0.2, 1.0))
    g.add_agreement(Agreement("S", "B", 0.8, 1.0))
    sc = Scenario(g, seed=seed, lane=lane)
    if pooled:
        pool = [sc.server("S1", "S", 60.0), sc.server("S2", "S", 40.0)]
    else:
        pool = sc.server("S1", "S", 100.0)
    r1 = sc.l7("R1", {"S": pool}, n_redirectors=2)
    r2 = sc.l7("R2", {"S": pool}, n_redirectors=2)
    sc.connect_tree(link_delay=0.005)
    sc.client("C1", "A", r1, rate=70.0, windows=[(0.0, 3 * T)])
    sc.client("C2", "A", r1, rate=50.0, windows=[(0.0, 2.5 * T)],
              jitter=0.4, mix=RequestMix(size_cost=True))
    sc.client("C3", "B", r2, rate=90.0, windows=[(0.0, T), (2 * T, 3 * T)],
              arrivals="poisson")
    sc.run(3 * T)
    return sc


def _l4_world(lane, seed, scale):
    """fig9 in miniature with an 8-entry SYN queue: the queue overflows
    within a window, and each boundary's quota outlasts its reinjection
    drain, so re-offers are admitted beside the boundary's releases."""
    T = 100.0 * scale
    g = AgreementGraph()
    g.add_principal("A", capacity=100.0)
    g.add_principal("B", capacity=100.0)
    g.add_agreement(Agreement("B", "A", 0.5, 0.5))
    sc = Scenario(g, seed=seed, lane=lane)
    sa = sc.server("SA", "A", 100.0)
    sb = sc.server("SB", "B", 100.0)
    switch = sc.l4("SW", {"A": sa, "B": sb}, max_syn_queue=8)
    sc.client("C1", "A", switch, rate=120.0, windows=[(0, T), (2 * T, 3 * T)])
    sc.client("C2", "A", switch, rate=60.0, windows=[(0, 1.5 * T)], jitter=0.4)
    sc.client("C3", "B", switch, rate=130.0, windows=[(0, 4 * T)],
              arrivals="poisson")
    sc.run(4 * T)
    return sc


WORLDS = {
    "l7-vectorised": lambda lane, seed, scale: _l7_world(lane, seed, scale, False),
    "l7-loop": lambda lane, seed, scale: _l7_world(lane, seed, scale, True),
    "l4": _l4_world,
}


@pytest.fixture
def branches(monkeypatch):
    """Count, on the columnar lane, how often each parking branch fires."""
    seen = dict.fromkeys(
        ("overflow", "refused_again", "inactive", "queue_full",
         "admitted_beside_releases"), 0)

    refuse = ColumnarEngine.refuse

    def spy_refuse(self, ts, cl, costs):
        counts = np.bincount(cl)
        for code in np.flatnonzero(counts).tolist():
            cli = self.clients_by_code[code]
            if counts[code] > cli.max_retry_pool - cli.parked:
                seen["overflow"] += 1
            red = cli.redirector
            if (isinstance(red, ColumnarL4Switch)
                    and len(red._syn_queues[cli.principal]) >= red.max_syn_queue):
                seen["queue_full"] += 1
        return refuse(self, ts, cl, costs)

    offer = ColumnarClient._offer

    def spy_offer(self, request, done=None):
        out = offer(self, request, done)
        seen["refused_again"] += out is None
        return out

    is_active = ColumnarClient.is_active

    def spy_is_active(self, t):
        out = is_active(self, t)
        # Only re-offers ask after t = 0 (construction asks at the skew).
        seen["inactive"] += (not out) and self.sim.now > 0
        return out

    l4_handle_flow = ColumnarL4Switch._handle_flow

    def spy_l4_handle_flow(self, flow, done=None):
        before = self.admitted[flow.principal]
        out = l4_handle_flow(self, flow, done)
        now = self.sim.now
        if self.admitted[flow.principal] > before and any(
            at_boundary and t == now
            for t, _, at_boundary in self._columnar_releases
        ):
            seen["admitted_beside_releases"] += 1
        return out

    monkeypatch.setattr(ColumnarEngine, "refuse", spy_refuse)
    monkeypatch.setattr(ColumnarClient, "_offer", spy_offer)
    monkeypatch.setattr(ColumnarClient, "is_active", spy_is_active)
    monkeypatch.setattr(ColumnarL4Switch, "_handle_flow", spy_l4_handle_flow)
    return seen


def _counters(sc):
    return (
        {name: (c.issued, c.admitted, c.completed, c.deferred, c.dropped,
                c.parked)
         for name, c in sc.clients.items()},
        {name: len(red.parked)
         for name, red in {**sc.l7_redirectors, **sc.l4_switches}.items()},
    )


def _digests(sc):
    return (
        scenario_digest(sc),
        {n: admission_digest(r) for n, r in sc.l7_redirectors.items()},
        {n: admission_digest(d) for n, d in sc.l4_daemons.items()},
    )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("world", sorted(WORLDS))
def test_parking_branches_match_slotted(world, scale, seed, branches):
    ref = WORLDS[world]("slotted", seed, scale)
    col = WORLDS[world]("columnar", seed, scale)
    assert col.lane == "columnar" and col.lane_fallback is None

    assert _counters(col) == _counters(ref)
    for client in col.clients.values():
        assert client.issued == client.admitted + client.dropped + client.parked
    assert set(col.meter.keys) == set(ref.meter.keys)
    for key in col.meter.keys:
        for a, b in zip(col.meter.series(key), ref.meter.series(key)):
            assert np.array_equal(a, b), key
    assert _digests(col) == _digests(ref)

    expected = ["overflow", "refused_again", "inactive"]
    if world == "l4":
        expected += ["queue_full", "admitted_beside_releases"]
    assert all(branches[name] > 0 for name in expected), branches
