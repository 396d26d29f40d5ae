"""Resource containers (long-lived request support)."""

import pytest

from repro.cluster.containers import ContainerServer
from repro.cluster.request import Request
from repro.sim.engine import Simulator


def _req(principal, cost=1.0):
    return Request(principal=principal, client_id="C", created_at=0.0, cost=cost)


def _server(sim, shares=None, capacity=100.0, **kw):
    return ContainerServer(
        sim, "CS", capacity, shares or {"A": 0.5, "B": 0.5}, **kw
    )


class TestDeficitRoundRobin:
    def test_proportional_under_saturation(self):
        sim = Simulator()
        srv = _server(sim, {"A": 0.75, "B": 0.25})

        def offer(p):
            while sim.now < 10.0:
                srv.submit(_req(p))
                yield 0.005          # 200/s each >> capacity 100/s
        sim.process(offer("A"))
        sim.process(offer("B"))
        sim.run(until=10.0)
        ratio = srv.served("A") / max(srv.served("B"), 1)
        assert ratio == pytest.approx(3.0, rel=0.1)

    def test_work_conserving_when_one_idle(self):
        sim = Simulator()
        srv = _server(sim, {"A": 0.5, "B": 0.5})

        def offer():
            while sim.now < 10.0:
                srv.submit(_req("A"))
                yield 0.005
        sim.process(offer())
        sim.run(until=10.0)
        # A alone gets the whole 100/s despite a 50% share.
        assert srv.served("A") == pytest.approx(1000, rel=0.05)

    def test_fifo_within_container(self):
        sim = Simulator()
        srv = _server(sim)
        order = []
        for i in range(4):
            srv.submit(
                Request(principal="A", client_id=f"c{i}", created_at=0.0),
                done=lambda r: order.append(r.client_id),
            )
        sim.run(until=1.0)
        assert order == ["c0", "c1", "c2", "c3"]

    def test_eight_containers_serve_every_request(self):
        sim = Simulator()
        shares = {f"P{i}": 1.0 / 8 for i in range(8)}
        srv = _server(sim, shares, capacity=1e6)
        for i in range(5_000):
            srv.submit(_req(f"P{i % 8}"))
        sim.run()
        assert sum(srv.served(p) for p in shares) == 5_000

    def test_unknown_principal_dropped(self):
        sim = Simulator()
        srv = _server(sim)
        assert not srv.submit(_req("Z"))
        assert srv.dropped == 1

    def test_cost_weighted_service(self):
        sim = Simulator()
        srv = _server(sim)
        done = []
        srv.submit(_req("A", cost=50.0), done=lambda r: done.append(sim.now))
        sim.run()
        assert done == [pytest.approx(0.5)]  # 50 units at 100/s


class TestStreams:
    def test_admission_within_guarantee(self):
        sim = Simulator()
        srv = _server(sim)       # A guaranteed 50 units/s
        h = srv.open_stream("A", rate=40.0, duration=10.0)
        assert h is not None
        assert srv.container_usage("A") == (pytest.approx(40.0), pytest.approx(50.0))

    def test_rejection_beyond_guarantee(self):
        sim = Simulator()
        srv = _server(sim)
        assert srv.open_stream("A", rate=60.0, duration=10.0) is None
        assert srv.rejected_streams == 1

    def test_borrowing_headroom(self):
        sim = Simulator()
        srv = _server(sim, borrow_limit=1.5)
        assert srv.open_stream("A", rate=70.0, duration=10.0) is not None

    def test_total_capacity_respected_even_with_borrowing(self):
        sim = Simulator()
        srv = _server(sim, borrow_limit=2.0)
        assert srv.open_stream("A", rate=90.0, duration=10.0) is not None
        # B's guarantee alone would admit 50, but only 10 units remain.
        assert srv.open_stream("B", rate=20.0, duration=10.0) is None

    def test_stream_expires(self):
        sim = Simulator()
        srv = _server(sim)
        h = srv.open_stream("A", rate=40.0, duration=2.0)
        sim.run(until=3.0)
        assert not h.active
        assert srv.reserved_rate == pytest.approx(0.0)
        assert srv.open_stream("A", rate=40.0, duration=1.0) is not None

    def test_early_close(self):
        sim = Simulator()
        srv = _server(sim)
        h = srv.open_stream("A", rate=40.0, duration=100.0)
        srv.close_stream(h)
        assert srv.reserved_rate == pytest.approx(0.0)

    def test_streams_slow_request_service(self):
        sim = Simulator()
        srv = _server(sim)
        srv.open_stream("A", rate=50.0, duration=100.0)  # half the server
        done = []
        for _ in range(50):
            srv.submit(_req("B"), done=lambda r: done.append(sim.now))
        sim.run(until=10.0)
        # 50 requests at the residual 50/s rate: last completes ~1 s.
        assert done[-1] == pytest.approx(1.0, rel=0.05)

    def test_streams_charge_their_own_container(self):
        """Isolation: B's streams shrink B's short-request share, never
        A's — the Cluster Reserves property."""
        sim = Simulator()
        srv = _server(sim, {"A": 0.5, "B": 0.5}, capacity=100.0)
        srv.open_stream("B", rate=40.0, duration=100.0)

        def offer(p):
            while sim.now < 10.0:
                srv.submit(_req(p))
                yield 0.005
        sim.process(offer("A"))
        sim.process(offer("B"))
        sim.run(until=10.0)
        # Residual 60 units/s split 50:10 by net weights.
        assert srv.served("A") / 10.0 == pytest.approx(50.0, rel=0.1)
        assert srv.served("B") / 10.0 == pytest.approx(10.0, rel=0.2)

    def test_fully_reserved_server_stalls_then_recovers(self):
        sim = Simulator()
        srv = _server(sim, borrow_limit=2.0)
        srv.open_stream("A", rate=100.0, duration=2.0)   # 100% reserved
        done = []
        srv.submit(_req("B"), done=lambda r: done.append(sim.now))
        sim.run(until=5.0)
        assert done and done[0] >= 2.0   # served only after the stream ends

    def test_bad_stream_params(self):
        sim = Simulator()
        srv = _server(sim)
        with pytest.raises(ValueError):
            srv.open_stream("A", rate=0.0, duration=1.0)

    def test_unknown_principal_stream(self):
        sim = Simulator()
        assert _server(sim).open_stream("Z", 1.0, 1.0) is None


class TestValidation:
    def test_over_promised_shares(self):
        with pytest.raises(ValueError):
            _server(Simulator(), {"A": 0.6, "B": 0.6})

    def test_negative_share(self):
        with pytest.raises(ValueError):
            _server(Simulator(), {"A": -0.1})

    def test_bad_borrow_limit(self):
        with pytest.raises(ValueError):
            _server(Simulator(), borrow_limit=0.5)
