import numpy as np
import pytest

from repro.cluster.client import ClientMachine, Defer, Drop, Held, Redirect
from repro.cluster.server import Server
from repro.sim.engine import Simulator


class ScriptedRedirector:
    """Redirector double returning a scripted sequence of decisions."""

    def __init__(self, decisions):
        self.decisions = decisions
        self.seen = []
        self.dones = []

    def handle(self, request, done=None):
        self.seen.append(request)
        self.dones.append(done)
        if callable(self.decisions):
            return self.decisions(request)
        return self.decisions


def _client(sim, red, **kw):
    kw.setdefault("rate", 100.0)
    return ClientMachine(
        sim, "C1", "A", red, rng=np.random.default_rng(0), **kw
    )


class TestOpenLoop:
    def test_generation_rate(self):
        sim = Simulator()
        srv = Server(sim, "S", capacity=10_000.0)
        red = ScriptedRedirector(Redirect(srv))
        c = _client(sim, red, rate=100.0)
        sim.run(until=10.0)
        assert c.issued == pytest.approx(1000, abs=2)
        assert c.admitted == c.issued

    def test_active_windows(self):
        sim = Simulator()
        srv = Server(sim, "S", capacity=10_000.0)
        red = ScriptedRedirector(Redirect(srv))
        c = _client(sim, red, rate=100.0, active_windows=[(2.0, 4.0)])
        sim.run(until=10.0)
        assert c.issued == pytest.approx(200, abs=2)

    def test_defer_then_retry(self):
        sim = Simulator()
        srv = Server(sim, "S", capacity=10_000.0)
        calls = {"n": 0}

        def flaky(request):
            calls["n"] += 1
            return Defer() if request.attempts == 1 else Redirect(srv)

        red = ScriptedRedirector(flaky)
        c = _client(sim, red, rate=10.0, retry_delay=0.1)
        sim.run(until=5.0)
        assert c.deferred > 0
        assert c.admitted > 0
        # every admitted request needed exactly two attempts
        assert all(r.attempts == 2 for r in red.seen if r.served_by or r.attempts == 2)

    def test_retry_pool_overflow_drops(self):
        sim = Simulator()
        red = ScriptedRedirector(Defer())
        c = _client(sim, red, rate=100.0, max_retry_pool=5, retry_delay=10.0)
        sim.run(until=2.0)
        assert c._retry_pool == 5
        assert c.dropped > 0

    def test_drop_decision_counted(self):
        sim = Simulator()
        red = ScriptedRedirector(Drop())
        c = _client(sim, red, rate=50.0)
        sim.run(until=1.0)
        assert c.dropped == c.issued
        assert c.admitted == 0

    def test_held_counts_admitted(self):
        sim = Simulator()
        red = ScriptedRedirector(Held())
        c = _client(sim, red, rate=50.0)
        sim.run(until=1.0)
        assert c.admitted == c.issued
        assert all(d is not None for d in red.dones)  # done callback passed

    def test_response_times_recorded(self):
        sim = Simulator()
        srv = Server(sim, "S", capacity=100.0)
        red = ScriptedRedirector(Redirect(srv))
        c = _client(sim, red, rate=10.0)
        sim.run(until=2.0)
        assert c.completed > 0
        assert all(rt >= 0.0 for rt in c.response_times)

    def test_stops_when_no_future_activity(self):
        sim = Simulator()
        red = ScriptedRedirector(Drop())
        c = _client(sim, red, rate=100.0, active_windows=[(0.0, 1.0)])
        sim.run(until=50.0)
        issued_at_1s = c.issued
        assert issued_at_1s == pytest.approx(100, abs=2)

    def test_poisson_arrivals(self):
        sim = Simulator()
        srv = Server(sim, "S", capacity=100_000.0)
        red = ScriptedRedirector(Redirect(srv))
        c = _client(sim, red, rate=200.0, arrivals="poisson")
        sim.run(until=30.0)
        # Mean rate matches; inter-arrival CoV near 1 (exponential).
        assert c.issued == pytest.approx(6000, rel=0.08)

    def test_unknown_arrival_process(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            _client(sim, ScriptedRedirector(Drop()), arrivals="bursty")

    def test_bad_rate_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            _client(sim, ScriptedRedirector(Drop()), rate=0.0)

    def test_bad_mode_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            _client(sim, ScriptedRedirector(Drop()), mode="weird")


class TestClosedLoop:
    def test_closed_loop_completes(self):
        sim = Simulator()
        srv = Server(sim, "S", capacity=50.0)
        red = ScriptedRedirector(Redirect(srv))
        c = _client(sim, red, rate=100.0, mode="closed", users=4)
        sim.run(until=5.0)
        assert c.completed > 0
        # closed loop: outstanding <= users
        assert c.issued - c.completed <= 4

    def test_closed_loop_throttled_by_server(self):
        sim = Simulator()
        srv = Server(sim, "S", capacity=10.0)
        red = ScriptedRedirector(Redirect(srv))
        c = _client(sim, red, rate=1000.0, mode="closed", users=2)
        sim.run(until=10.0)
        # completion rate bounded by server capacity, not offered rate
        assert c.completed <= 110

    def test_closed_loop_defer_retries(self):
        sim = Simulator()
        srv = Server(sim, "S", capacity=100.0)
        state = {"denied": 0}

        def gate(request):
            if state["denied"] < 3:
                state["denied"] += 1
                return Defer()
            return Redirect(srv)

        red = ScriptedRedirector(gate)
        c = _client(sim, red, rate=10.0, mode="closed", users=1, retry_delay=0.05)
        sim.run(until=2.0)
        assert c.completed > 0
        assert c.deferred == 3

    def test_closed_loop_server_overflow_deferred(self):
        """Regression: a bounded server queue returning False from submit
        must defer the virtual user, not leave it waiting on a response
        event that will never fire."""
        sim = Simulator()
        srv = Server(sim, "S", capacity=100.0, max_queue=1)
        red = ScriptedRedirector(Redirect(srv))
        c = _client(sim, red, rate=1000.0, mode="closed", users=4,
                    retry_delay=0.01)
        sim.run(until=5.0)
        # max_queue=1 means any submit while busy overflows; with four
        # users hammering one slot, overflow is guaranteed.
        assert srv.dropped > 0
        assert c.deferred > 0
        # pre-fix, every user hung on its first overflow: completions
        # stalled at ~users.  Post-fix the loop keeps making progress at
        # roughly the server's service rate.
        assert c.completed > 100

    def test_closed_loop_overflow_counts_not_admitted(self):
        sim = Simulator()
        srv = Server(sim, "S", capacity=100.0, max_queue=1)
        red = ScriptedRedirector(Redirect(srv))
        c = _client(sim, red, rate=1000.0, mode="closed", users=4,
                    retry_delay=0.01)
        sim.run(until=2.0)
        # admitted counts only successful submits: every handle() attempt
        # either admitted or deferred, never both.
        assert c.admitted + c.deferred == len(red.seen)


class TestFastLane:
    def test_fast_lane_respects_windows(self):
        sim = Simulator()
        srv = Server(sim, "S", capacity=1e9)
        red = ScriptedRedirector(Redirect(srv))
        c = _client(sim, red, rate=100.0,
                    active_windows=[(1.0, 2.0), (4.0, 5.0)])
        sim.run(until=10.0)
        assert c.issued == pytest.approx(200, abs=4)

    def test_overlapping_windows_merged(self):
        sim = Simulator()
        red = ScriptedRedirector(Drop())
        c = _client(sim, red, rate=100.0,
                    active_windows=[(0.0, 2.0), (1.0, 3.0)])
        assert c.is_active(2.5)
        assert not c.is_active(3.5)
        assert c._next_activity_start(-1.0) == 0.0
        assert c._next_activity_start(3.0) is None

    def test_response_stats_streaming(self):
        sim = Simulator()
        srv = Server(sim, "S", capacity=100.0)
        red = ScriptedRedirector(Redirect(srv))
        c = _client(sim, red, rate=50.0)
        sim.run(until=4.0)
        assert c.response_stats.count == c.completed
        assert len(c.response_times) == c.completed  # under reservoir cap
        assert c.response_stats.mean > 0.0

    def test_reservoir_bounds_memory(self):
        sim = Simulator()
        srv = Server(sim, "S", capacity=1e9)
        red = ScriptedRedirector(Redirect(srv))
        c = _client(sim, red, rate=2000.0, rt_reservoir=128)
        sim.run(until=2.0)
        assert c.completed > 1000
        assert len(c.response_times) == 128
        assert c.response_stats.count == c.completed

    def test_closed_loop_uses_stream_fields(self):
        sim = Simulator()
        srv = Server(sim, "S", capacity=1e6)
        red = ScriptedRedirector(Redirect(srv))
        c = _client(sim, red, rate=100.0, mode="closed", users=2)
        sim.run(until=2.0)
        assert c.completed > 0
        assert all(r.size_bytes >= 200 for r in red.seen)
