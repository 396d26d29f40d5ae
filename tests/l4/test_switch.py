"""L4 switch: flow path, kernel queues, reinjection, affinity, and its
parity with the per-packet oracle."""

import pytest

from repro.cluster.client import Defer, Drop, Held
from repro.cluster.request import Request
from repro.cluster.server import Server
from repro.core.access import compute_access_levels
from repro.experiments.harness import Scenario
from repro.l4.switch import L4Switch, PortSpaceExhausted
from tests.l4.packet_oracle import PacketL4Switch, TcpFlags, TcpPacket
from repro.scheduling.allocator import Allocation
from repro.scheduling.window import WindowConfig
from repro.sim.engine import Simulator

W = WindowConfig(0.1)


def _world(fig9_graph, cls=L4Switch, **kw):
    sim = Simulator()
    acc = compute_access_levels(fig9_graph)
    sa = Server(sim, "SA", 320.0, owner="A")
    sb = Server(sim, "SB", 320.0, owner="B")
    switch = cls(sim, "SW", acc.names, {"A": sa, "B": sb}, window=W, **kw)
    return sim, acc, sa, sb, switch


def _alloc(quotas, weights):
    return Allocation(
        quotas=quotas, weights=weights, global_estimate={}, used_fallback=False
    )


def _req(principal="A", client="C1"):
    return Request(principal=principal, client_id=client, created_at=0.0)


class TestAdmission:
    def test_admit_with_quota(self, fig9_graph):
        sim, _, sa, sb, switch = _world(fig9_graph)
        switch.install(_alloc({"A": 10.0}, {"A": {"A": 32.0, "B": 16.0}}))
        done = []
        d = switch.handle(_req("A"), done=lambda r: done.append(r))
        assert isinstance(d, Held)
        sim.run(until=1.0)
        assert len(done) == 1
        assert done[0].served_by in ("SA", "SB")
        assert switch.admitted["A"] == 1

    def test_queue_when_no_quota(self, fig9_graph):
        sim, _, _, _, switch = _world(fig9_graph)
        switch.install(_alloc({"A": 0.0}, {"A": {"A": 32.0}}))
        d = switch.handle(_req("A"))
        assert isinstance(d, Held)
        assert switch.queue_lengths()["A"] == 1

    def test_unknown_principal_dropped(self, fig9_graph):
        _, _, _, _, switch = _world(fig9_graph)
        assert isinstance(switch.handle(_req("nobody")), Drop)

    def test_syn_queue_overflow_defers(self, fig9_graph):
        sim, _, _, _, switch = _world(fig9_graph, max_syn_queue=2)
        switch.install(_alloc({"A": 0.0}, {"A": {"A": 32.0}}))
        decisions = [switch.handle(_req("A")) for _ in range(4)]
        assert [type(d) for d in decisions] == [Held, Held, Defer, Defer]
        assert switch.dropped["A"] == 2

    def test_reinjection_in_next_window(self, fig9_graph):
        sim, _, _, _, switch = _world(fig9_graph)
        switch.install(_alloc({"A": 0.0}, {"A": {"A": 32.0}}))
        done = []
        switch.handle(_req("A"), done=lambda r: done.append(sim.now))
        assert switch.queue_lengths()["A"] == 1
        # Next window has budget: queued SYN reinjected and served.
        switch.install(_alloc({"A": 5.0}, {"A": {"A": 32.0}}))
        sim.run(until=1.0)
        assert done
        assert switch.reinjected["A"] == 1
        assert switch.queue_lengths()["A"] == 0

    def test_reinjection_fifo(self, fig9_graph):
        sim, _, _, _, switch = _world(fig9_graph)
        switch.install(_alloc({"A": 0.0}, {"A": {"A": 32.0}}))
        order = []
        for tag in range(5):
            switch.handle(
                Request(principal="A", client_id=f"c{tag}", created_at=0.0),
                done=lambda r: order.append(r.client_id),
            )
        switch.install(_alloc({"A": 3.0}, {"A": {"A": 32.0}}))
        sim.run(until=0.5)
        assert order == ["c0", "c1", "c2"]


class TestNatAndConntrack:
    def test_connection_state_created_and_torn_down(self, fig9_graph):
        sim, _, _, _, switch = _world(fig9_graph)
        switch.install(_alloc({"A": 10.0}, {"A": {"A": 32.0}}))
        switch.handle(_req("A"))
        assert len(switch.nat) == 1
        assert len(switch.conntrack) == 1
        sim.run(until=1.0)   # response tears down the flow
        assert len(switch.nat) == 0
        assert len(switch.conntrack) == 0

    def test_data_packet_follows_connection(self, fig9_graph):
        sim, _, _, _, switch = _world(fig9_graph, cls=PacketL4Switch)
        switch.install(_alloc({"A": 10.0}, {"A": {"A": 32.0}}))
        req = _req("A")
        switch.handle(req)
        tup = next(iter(switch.conntrack.live))
        data = TcpPacket(*tup, flags=TcpFlags.ACK, payload_bytes=100)
        assert switch.on_packet(data)
        assert switch.conntrack.lookup(tup).packets == 2

    def test_data_packet_without_state_rejected(self, fig9_graph):
        _, _, _, _, switch = _world(fig9_graph, cls=PacketL4Switch)
        stray = TcpPacket("C9", 1111, "10.0.0.1", 80, flags=TcpFlags.ACK)
        assert not switch.on_packet(stray)

    def test_fin_tears_down(self, fig9_graph):
        sim, _, _, _, switch = _world(fig9_graph, cls=PacketL4Switch)
        switch.install(_alloc({"A": 10.0}, {"A": {"A": 32.0}}))
        switch.handle(_req("A"))
        tup = next(iter(switch.conntrack.live))
        fin = TcpPacket(*tup, flags=TcpFlags.FIN)
        assert switch.on_packet(fin)
        assert switch.conntrack.lookup(tup) is None
        assert len(switch.nat) == 0

    def test_sweep_idle_removes_nat_with_conntrack(self, fig9_graph):
        # Regression: expiring conntrack alone leaked the NAT entry, so
        # NAT entries != open flows after an idle sweep.
        sim, _, _, _, switch = _world(fig9_graph)
        switch.install(_alloc({"A": 10.0}, {"A": {"A": 32.0}}))
        switch.handle(_req("A"))  # admitted, response still in flight
        assert len(switch.nat) == len(switch.conntrack) == 1
        idle = switch.conntrack.idle_timeout
        assert switch.sweep_idle(now=idle + 1.0) == 1
        assert len(switch.conntrack) == 0
        assert len(switch.nat) == 0  # the entry the old sweep leaked

    def test_sweep_idle_keeps_fresh_flows(self, fig9_graph):
        sim, _, _, _, switch = _world(fig9_graph)
        switch.install(_alloc({"A": 10.0}, {"A": {"A": 32.0}}))
        switch.handle(_req("A"))
        assert switch.sweep_idle(now=1.0) == 0
        assert len(switch.nat) == len(switch.conntrack) == 1


class TestAffinityAndBudgets:
    def test_affinity_reuses_server_within_budget(self, fig9_graph):
        sim, _, _, _, switch = _world(fig9_graph)
        switch.install(_alloc({"A": 20.0}, {"A": {"A": 16.0, "B": 4.0}}))
        for _ in range(5):
            switch.handle(_req("A", client="C1"))
        assert switch.affinity_hits >= 3

    def test_budget_limits_per_server_share(self, fig9_graph):
        sim, _, sa, sb, switch = _world(fig9_graph)
        # 3:1 weights: out of 20 admitted, SB gets at most ~6.
        switch.install(_alloc({"A": 20.0}, {"A": {"A": 15.0, "B": 5.0}}))
        for i in range(20):
            switch.handle(_req("A", client=f"C{i}"))
        sim.run(until=1.0)
        assert sb.total_completed() <= 7
        assert sa.total_completed() >= 13

    def test_affinity_denied_when_budget_spent(self, fig9_graph):
        sim, _, sa, sb, switch = _world(fig9_graph)
        switch.install(_alloc({"A": 4.0}, {"A": {"A": 2.0, "B": 2.0}}))
        # Pin C1 to one server, then exhaust that server's budget: the
        # next request must go to the other server despite affinity.
        switch.handle(_req("A", client="C1"))
        first = switch.conntrack.preferred_server("C1", "A")
        for _ in range(3):
            switch.handle(_req("A", client="C1"))
        sim.run(until=1.0)
        servers_used = {sa.total_completed() > 0, sb.total_completed() > 0}
        assert servers_used == {True}  # both servers saw traffic

    def test_affinity_disabled(self, fig9_graph):
        sim, _, _, _, switch = _world(fig9_graph, affinity=False)
        switch.install(_alloc({"A": 10.0}, {"A": {"A": 5.0, "B": 5.0}}))
        for _ in range(6):
            switch.handle(_req("A", client="C1"))
        assert switch.affinity_hits == 0

    def test_affinity_survives_idle_sweep(self, fig9_graph):
        # Satellite: client affinity is SSL-session-style state, held per
        # (client, principal) — expiring an idle *connection* must not
        # erase it, so the next SYN from the same client still lands on
        # the server the client previously bonded to.
        sim, _, _, _, switch = _world(fig9_graph)
        switch.install(_alloc({"A": 10.0}, {"A": {"A": 8.0, "B": 8.0}}))
        switch.handle(_req("A", client="C1"))
        pinned = switch.conntrack.preferred_server("C1", "A")
        assert pinned is not None
        idle = switch.conntrack.idle_timeout
        assert switch.sweep_idle(now=idle + 1.0) == 1
        assert len(switch.conntrack) == 0
        hits_before = switch.affinity_hits
        switch.handle(_req("A", client="C1"))
        assert switch.affinity_hits == hits_before + 1
        ct = switch.conntrack
        assert [ct._servers[slot] for slot in ct.live.values()] == [pinned]


class TestLaneParity:
    """The flow path must be observationally identical to the per-packet
    oracle: same counters, same completion order, same server picks."""

    def _drive(self, fig9_graph, cls):
        sim, _, sa, sb, switch = _world(fig9_graph, cls=cls)
        done = []
        switch.install(_alloc({"A": 3.0, "B": 2.0},
                              {"A": {"A": 8.0, "B": 4.0},
                               "B": {"A": 2.0, "B": 6.0}}))
        for i in range(8):
            p = "A" if i % 3 else "B"
            switch.handle(
                Request(principal=p, client_id=f"c{i % 4}", created_at=0.0),
                done=lambda r: done.append((sim.now, r.client_id, r.served_by)),
            )
        sim.run(until=0.1)
        # Second window drains part of the queue through reinjection.
        switch.install(_alloc({"A": 2.0, "B": 2.0},
                              {"A": {"A": 8.0, "B": 4.0},
                               "B": {"A": 2.0, "B": 6.0}}))
        sim.run(until=1.0)
        counters = dict(
            admitted=dict(switch.admitted), dropped=dict(switch.dropped),
            queued=dict(switch.queued), reinjected=dict(switch.reinjected),
            affinity_hits=switch.affinity_hits,
            rewrites_out=switch.nat.rewrites_out,
            queue_lengths=switch.queue_lengths(),
            completed={"SA": sa.total_completed(), "SB": sb.total_completed()},
        )
        return counters, done

    def test_counters_and_trace_match_scalar(self, fig9_graph):
        fast, fast_done = self._drive(fig9_graph, L4Switch)
        scalar, scalar_done = self._drive(fig9_graph, PacketL4Switch)
        assert fast["rewrites_out"] > 0
        assert fast == scalar
        assert fast_done == scalar_done

    def test_pick_server_heap_matches_scalar_scan(self, fig9_graph):
        # The best-slack heap must reproduce the oracle's linear scan
        # choice-for-choice, including the spill once every budget is
        # exhausted.
        _, _, _, _, fast = _world(fig9_graph, affinity=False)
        _, _, _, _, scalar = _world(fig9_graph, cls=PacketL4Switch,
                                    affinity=False)
        alloc = _alloc({"A": 6.0}, {"A": {"A": 5.0, "B": 3.0}})
        fast.install(alloc)
        scalar.install(alloc)
        picks = [
            (fast._pick_server("A", "C1"), scalar._pick_server("A", "C1"))
            for _ in range(20)  # runs well past budget exhaustion -> spill
        ]
        assert [a for a, _ in picks] == [b for _, b in picks]


class TestCoalescedReinjection:
    def _queue_then_fund(self, fig9_graph, cls, n=6):
        sim, _, _, _, switch = _world(
            fig9_graph, cls=cls, spread_reinjection=False
        )
        switch.install(_alloc({"A": 0.0}, {"A": {"A": 32.0}}))
        for i in range(n):
            switch.handle(Request(principal="A", client_id=f"c{i}", created_at=0.0))
        assert switch.queue_lengths()["A"] == n
        switch.install(_alloc({"A": float(n)}, {"A": {"A": 32.0}}))
        return sim, switch

    def test_fast_lane_drains_batch_through_one_event(self, fig9_graph):
        sim, switch = self._queue_then_fund(fig9_graph, L4Switch)
        assert sim.pending == 1  # one pump event for the whole batch
        sim.run(until=1.0)
        assert switch.reinjected["A"] == 6
        assert switch.admitted["A"] == 6

    def test_scalar_lane_schedules_one_event_per_syn(self, fig9_graph):
        # The per-packet oracle releases each SYN as its own event.
        sim, switch = self._queue_then_fund(fig9_graph, PacketL4Switch)
        assert sim.pending == 6
        sim.run(until=1.0)
        assert switch.reinjected["A"] == 6
        assert switch.admitted["A"] == 6


class TestReinjectionSpread:
    """Releasing a window's queued SYNs in one burst recreates the L7
    bunching problem; spreading them across the window keeps server queues
    flat at identical enforcement."""

    def _run(self, fig9_graph, spread):
        sc = Scenario(fig9_graph.copy(), seed=7)
        sa = sc.server("SA", "A", 320.0)
        sb = sc.server("SB", "B", 320.0)
        switch = sc.l4("SW", {"A": sa, "B": sb}, spread_reinjection=spread)
        sc.client("CA", "A", switch, rate=800.0)
        sc.client("CB", "B", switch, rate=400.0)
        peaks = []
        sc.sim.every(0.01, lambda: peaks.append(sa.queue_length + sb.queue_length))
        sc.run(15.0)
        return (max(peaks), sc.meter.mean_rate("A", 5.0, 15.0),
                sc.meter.mean_rate("B", 5.0, 15.0))

    def test_burst_builds_deeper_queues_at_equal_rates(self, fig9_graph):
        spread = self._run(fig9_graph, True)
        burst = self._run(fig9_graph, False)
        for _, a_rate, b_rate in (spread, burst):
            assert a_rate == pytest.approx(480.0, rel=0.08)
            assert b_rate == pytest.approx(160.0, rel=0.12)
        assert burst[0] >= spread[0]


class TestPortSpace:
    VIP = ("10.0.0.1", 80)

    def test_exhaustion_raises_typed_error(self, fig9_graph):
        # Regression: the old fixed-probe search failed with an untyped
        # RuntimeError long before the range was actually full.  Now the
        # cursor wraps the whole span and only then raises.
        from repro.l4.switch import _PORT_LO, _PORT_SPAN

        _, _, _, _, switch = _world(fig9_graph)
        switch._pending_tuples.update(
            ("C1", _PORT_LO + off, *self.VIP) for off in range(_PORT_SPAN)
        )
        with pytest.raises(PortSpaceExhausted):
            switch._claim_tuple("C1")
        # Another client's port space is untouched.
        assert switch._claim_tuple("C2")[0] == "C2"
        # Freeing one tuple makes the claim succeed again.
        freed = ("C1", _PORT_LO + 7, *self.VIP)
        switch._pending_tuples.discard(freed)
        assert switch._claim_tuple("C1") == freed

    def test_free_list_reuses_released_port(self, fig9_graph):
        _, _, _, _, switch = _world(fig9_graph)
        tup = switch._claim_tuple("C1")
        switch._pending_tuples.add(tup)   # tuple goes live
        switch._pending_tuples.discard(tup)
        switch._release_port(tup[0], tup[1])
        # LIFO free list: the released port comes straight back.
        assert switch._claim_tuple("C1") == tup

    def test_stray_double_release_is_harmless(self, fig9_graph):
        # A port released while its tuple is still live must not be
        # handed out: every free-list candidate is re-checked against
        # NAT/conntrack/pending state.
        _, _, _, _, switch = _world(fig9_graph)
        tup = switch._claim_tuple("C1")
        switch.nat.install_slot(tup, "SA", 80)       # tuple is live
        switch._release_port(tup[0], tup[1])         # stray release
        assert switch._claim_tuple("C1") != tup


class TestParkedRequests:
    """SYN-queue overflow parks at the switch; ``install`` re-offers after
    the kernel thread has spent quota on the kernel queue."""

    @pytest.mark.parametrize("flow_path", [True, False])
    def test_reinjection_then_parked(self, fig9_graph, flow_path):
        import numpy as np
        from repro.cluster.client import START_SKEW, ClientMachine

        sim, _, _, _, switch = _world(
            fig9_graph, cls=L4Switch if flow_path else PacketL4Switch,
            max_syn_queue=2, spread_reinjection=False,
        )
        weights = {"A": {"A": 32.0}}
        switch.install(_alloc({"A": 0.0}, weights))
        t0 = np.random.default_rng(0).uniform(0.0, START_SKEW)  # first SYN
        c = ClientMachine(sim, "C1", "A", switch, 100.0,
                          rng=np.random.default_rng(0), max_retry_pool=3,
                          active_windows=[(0.0, t0 + 0.0599)])
        sim.run(until=t0 + 0.07)
        # Six SYNs: two in the kernel queue, three parked, one dropped.
        assert (c.issued, c.admitted, c.parked, c.dropped) == (6, 2, 3, 1)
        assert switch.queue_lengths()["A"] == 2 and len(switch.parked) == 3
        c._win_ends[0] = 1.0  # keep the client active across the boundary
        switch.install(_alloc({"A": 3.0}, weights))
        # Quota 3: the two queued SYNs reinject first, the oldest parked one
        # is admitted on what is left, the next two refill the kernel queue.
        assert switch.reinjected["A"] == 2
        assert (c.admitted, c.parked, c.dropped) == (5, 0, 1)
        assert switch.queue_lengths()["A"] == 2 and len(switch.parked) == 0
        sim.run(until=1.0)
        assert switch.admitted["A"] == 3 and c.completed == 3
