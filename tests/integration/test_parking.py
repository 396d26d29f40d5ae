"""Refused requests wait in one FIFO per principal at the redirector.

World-level consequences of parking (``repro.cluster.client.ParkedRequests``)
on the paper's figures at 1/20 scale: co-located clients of one principal
are served alike, the community's 2:1 split holds, and — now that no retry
jitter is drawn — the seed still reaches every event-lane figure's digest.
"""

import pytest

from repro.analysis.replay import scenario_digest
from repro.cluster.client import START_SKEW
from tests.integration.test_pinned_digests import _run_recorded


def test_fig7_two_clients_of_one_principal_are_admitted_alike(monkeypatch):
    sc, result = _run_recorded("fig7", monkeypatch)
    c1, c2 = sc.clients["C1"], sc.clients["C2"]
    # A per-client re-offer starved one of them 5:1; a shared FIFO cannot:
    # equal within 1 % beyond the head start the start skew gives one of them.
    head_start = c1.rate * START_SKEW
    assert abs(c1.admitted - c2.admitted) <= (
        0.01 * max(c1.admitted, c2.admitted) + head_start)
    assert abs(c1.issued - c2.issued) <= head_start + 1
    assert result.ok
    steady = result.phase("steady")
    assert steady.rate("A") / steady.rate("B") == pytest.approx(2.0, rel=0.05)
    for client in sc.clients.values():
        assert client.issued == client.admitted + client.dropped + client.parked
    for red in sc.l7_redirectors.values():
        assert len(red.parked) == sum(
            c.parked for c in sc.clients.values() if c.redirector is red)


@pytest.mark.parametrize("figure", ["fig7", "fig9", "fig10"])
def test_seed_changes_digest(figure, monkeypatch):
    # fig6's twin is tests/analysis/test_replay.py::test_seed_changes_digest.
    a, _ = _run_recorded(figure, monkeypatch, seed=0)
    b, _ = _run_recorded(figure, monkeypatch, seed=1)
    assert scenario_digest(a) != scenario_digest(b)
