"""User-space daemon driving the L4 switch."""

import numpy as np
import pytest

from repro.cluster.client import ClientMachine
from repro.cluster.server import Server
from repro.core.access import compute_access_levels
from repro.l4.daemon import L4Daemon
from repro.l4.switch import L4Switch
from repro.l7.redirector import L7Redirector
from repro.scheduling.window import WindowConfig
from repro.sim.engine import Simulator

W = WindowConfig(0.1)


def _world(fig9_graph, **daemon_kw):
    sim = Simulator()
    acc = compute_access_levels(fig9_graph)
    completions = {"A": 0, "B": 0}

    def on_c(r, s):
        completions[r.principal] += 1

    sa = Server(sim, "SA", 320.0, owner="A", on_complete=on_c)
    sb = Server(sim, "SB", 320.0, owner="B", on_complete=on_c)
    switch = L4Switch(sim, "SW", acc.names, {"A": sa, "B": sb}, window=W)
    daemon = L4Daemon(sim, "D", switch, acc, window=W, **daemon_kw)
    return sim, switch, daemon, completions


class TestDaemon:
    def test_installs_allocations_every_window(self, fig9_graph):
        sim, switch, daemon, _ = _world(fig9_graph)
        sim.run(until=1.05)
        assert daemon.windows == 10
        assert daemon.last_allocation is not None

    def test_end_to_end_rates(self, fig9_graph):
        sim, switch, daemon, completions = _world(fig9_graph)
        ClientMachine(sim, "C1", "A", switch, rate=400.0, rng=np.random.default_rng(1))
        ClientMachine(sim, "C2", "A", switch, rate=400.0, rng=np.random.default_rng(2))
        ClientMachine(sim, "C3", "B", switch, rate=400.0, rng=np.random.default_rng(3))
        sim.run(until=20.0)
        # Fig 9 phase 1 arithmetic: A 480, B 160 (steady state).
        assert completions["A"] / 20.0 == pytest.approx(480.0, rel=0.08)
        assert completions["B"] / 20.0 == pytest.approx(160.0, rel=0.12)

    def test_conntrack_sweep_runs(self, fig9_graph):
        sim, switch, daemon, _ = _world(fig9_graph, conntrack_sweep=1.0)
        # Open a connection that never completes by bypassing the server:
        switch.conntrack.open_slot(("X", 1, "10.0.0.1", 80), "SA", "A", now=0.0)
        sim.run(until=120.0)
        assert ("X", 1, "10.0.0.1", 80) not in switch.conntrack.live

    def test_switch_survives_daemon_death(self, fig9_graph):
        """If the user-space daemon dies, the kernel switch keeps running
        on its last installed allocation — degraded (stale quotas) but
        never stalled, like the real LVS module would."""
        sim, switch, daemon, completions = _world(fig9_graph)
        ClientMachine(sim, "C1", "A", switch, rate=400.0, rng=np.random.default_rng(4))
        ClientMachine(sim, "C3", "B", switch, rate=400.0, rng=np.random.default_rng(5))
        sim.run(until=10.0)
        before = dict(completions)
        # Emulate daemon death: from now on every "install" just replays
        # the last computed allocation (the kernel module's stale state).
        daemon.allocator.compute = lambda local, **kw: daemon.last_allocation  # type: ignore[assignment]
        sim.run(until=20.0)
        after = {p: completions[p] - before[p] for p in completions}
        # Service continues near the pre-death rates (the frozen quota is a
        # single window's estimate, so some degradation is expected — the
        # property is "no stall", not "no drift").
        assert after["A"] / 10.0 >= 0.75 * 480.0
        assert after["B"] / 10.0 >= 0.75 * 160.0
        assert (after["A"] + after["B"]) / 10.0 <= 640.0 * 1.02

    def test_local_demand_passthrough(self, fig9_graph):
        sim, switch, daemon, _ = _world(fig9_graph)
        assert daemon.local_demand() == switch.local_demand()


class TestAdmissionAccounting:
    """Per-window admitted/refused streams recorded by the enforcement node
    via RateMeter bins, one sample per window, for both front ends: the L4
    daemon over its switch and the L7 redirector."""

    @pytest.fixture(params=["l4", "l7"])
    def ran(self, request, fig9_graph):
        """(node, its live admitted and refused counters) after 2.05 s."""
        if request.param == "l4":
            sim, front, node, _ = _world(fig9_graph)
            counters = (front.admitted, front.dropped)
        else:
            sim = Simulator()
            servers = {"A": Server(sim, "SA", 320.0, owner="A"),
                       "B": Server(sim, "SB", 320.0, owner="B")}
            front = node = L7Redirector(
                sim, "R", compute_access_levels(fig9_graph), servers, window=W)
            counters = (front.admitted, front.self_redirects)
        ClientMachine(sim, "C1", "A", front, rate=400.0, rng=np.random.default_rng(6))
        ClientMachine(sim, "C3", "B", front, rate=200.0, rng=np.random.default_rng(7))
        sim.run(until=2.05)
        return node, counters

    def test_meter_totals_match_switch_counters(self, ran):
        node, (admitted, refused) = ran
        for p in ("A", "B"):
            # The meter accumulates exactly the deltas the accounting
            # snapshots consumed, so its total equals the last snapshot;
            # the live counter may only be ahead by the part-window of
            # traffic not yet accounted.
            assert node.admission_meter.total(f"admitted:{p}") == (
                pytest.approx(node._last_admitted[p])
            )
            assert node.admission_meter.total(f"refused:{p}") == (
                pytest.approx(node._last_refused[p])
            )
            assert node._last_admitted[p] <= admitted[p]
            assert node._last_refused[p] <= refused[p]

    def test_one_sample_per_window(self, ran):
        node, _ = ran
        assert node.windows == 20
        for p in ("A", "B"):
            times, rates = node.admitted_series(p)
            # Zero-weight windows still land a bin, so the series has one
            # point per elapsed window even when a principal was idle.
            assert len(times) == len(rates) == node.windows
            rt, rr = node.refused_series(p)
            assert len(rt) == len(rr) == node.windows
