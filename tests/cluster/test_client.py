import numpy as np
import pytest

from repro.analysis.invariants import InvariantChecker
from repro.cluster.client import (
    START_SKEW, ClientMachine, Defer, Drop, Held, ParkedRequests, Redirect,
)
from repro.cluster.server import Server
from repro.cluster.workload import RequestMix
from repro.sim.engine import Simulator
from repro.sim.monitor import RateMeter
from repro.sim.rng import RngStreams


class ScriptedRedirector:
    """Redirector double returning a scripted sequence of decisions.

    Refused requests wait in a real :class:`ParkedRequests`; a test that
    wants a window boundary calls ``red.parked.reoffer(now)`` itself.
    """

    def __init__(self, decisions):
        self.decisions = decisions
        self.seen = []
        self.dones = []
        self.arrivals = {"A": 0.0}
        self.parked = ParkedRequests(["A"], self.arrivals)
        self.park = self.parked.park

    def handle(self, request, done=None):
        self.seen.append(request)
        self.dones.append(done)
        if callable(self.decisions):
            return self.decisions(request)
        return self.decisions


# When `_client`'s evenly spaced machine issues its first request: the one
# draw it makes from its generator (see START_SKEW).
SKEW = np.random.default_rng(0).uniform(0.0, START_SKEW)


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
        assert 0.0 <= SKEW < START_SKEW and red.seen[0].created_at == SKEW
        assert c.issued == pytest.approx(100.0 * (10.0 - SKEW), abs=2)
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

        second = []

        def flaky(request):
            if request.attempts == 1:
                return Defer()
            second.append(request)
            return Redirect(srv)

        red = ScriptedRedirector(flaky)
        c = _client(sim, red, rate=10.0)
        sim.every(0.5, lambda: red.parked.reoffer(sim.now), start=0.5)
        sim.run(until=5.0)
        assert c.deferred == c.issued > 0
        # Every request is refused once, waits parked (5 per boundary, never
        # asked in between) and is admitted on its second attempt, in order.
        assert len(red.seen) == c.issued + c.admitted
        assert c.admitted == c.issued - c.parked > 0
        assert len(second) == c.admitted and all(r.attempts == 2 for r in second)
        assert [r.created_at for r in second] == sorted(r.created_at for r in second)

    def test_retry_pool_overflow_drops(self):
        sim = Simulator()
        red = ScriptedRedirector(Defer())
        c = _client(sim, red, rate=100.0, max_retry_pool=5)
        sim.run(until=2.0)
        assert c.parked == len(red.parked) == 5
        assert c.dropped == c.issued - 5 > 0
        # Re-offered and refused again: the head stays, nobody moves up, and
        # what waits behind the head is counted as the window's demand.
        red.parked.reoffer(sim.now)
        assert c.parked == len(red.parked) == 5
        assert red.arrivals == {"A": 4.0}
        assert c.issued == c.admitted + c.dropped + c.parked

    def test_parked_request_of_an_inactive_client_is_dropped(self):
        sim = Simulator()
        red = ScriptedRedirector(Defer())
        c = _client(sim, red, rate=100.0, max_retry_pool=5,
                    active_windows=[(0.0, 1.0)])
        sim.run(until=2.0)
        asked = len(red.seen)
        red.parked.reoffer(sim.now)
        assert len(red.seen) == asked            # dropped without asking
        assert c.parked == len(red.parked) == 0
        assert c.admitted == 0 and c.dropped == c.issued

    def test_fifo_is_shared_by_the_clients_of_a_principal(self):
        sim = Simulator()
        srv = Server(sim, "S", capacity=10_000.0)
        budget = {"n": 0}
        served = []

        def gate(request):
            if budget["n"] > 0:
                budget["n"] -= 1
                served.append(request)
                return Redirect(srv)
            return Defer()

        red = ScriptedRedirector(gate)
        c1 = _client(sim, red, rate=10.0, max_retry_pool=50)
        c2 = ClientMachine(sim, "C2", "A", red, 10.0,
                           rng=np.random.default_rng(1), max_retry_pool=50)
        sim.run(until=2.0)
        budget["n"] = 10
        red.parked.reoffer(sim.now)
        assert len(served) == 10 and c1.admitted == c2.admitted == 5
        assert max(r.created_at for r in served) < 0.6   # the ten oldest

    def test_server_rejection_parks_at_the_redirector(self):
        sim = Simulator()
        srv = Server(sim, "S", capacity=1.0, max_queue=1)
        red = ScriptedRedirector(Redirect(srv))
        c = _client(sim, red, rate=100.0, max_retry_pool=3)
        sim.run(until=1.0)
        assert srv.dropped > 0 and c.parked == len(red.parked) == 3
        assert c.issued == c.admitted + c.dropped + c.parked

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
        assert issued_at_1s == pytest.approx(100.0 * (1.0 - SKEW), abs=2)

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


class _AlwaysRedirect:
    """Sends every request to one server and keeps nothing, so 100k-request
    runs exercise the request path itself, not a policy or a log."""

    def __init__(self, server):
        self._decision = Redirect(server)

    def handle(self, request, done=None):
        return self._decision


class TestRequestPathAtScale:
    """100k requests through generation, dispatch, service and completion.
    The open loop counts from the first request, issued at the seed-drawn
    start skew."""

    REQUESTS = 100_000
    RATE = 1000.0
    HORIZON = REQUESTS / RATE + START_SKEW

    def _open(self, capacity=1e9, **kw):
        sim = Simulator()
        server = Server(sim, "srv", capacity=capacity)
        client = ClientMachine(
            sim, "c0", "A", _AlwaysRedirect(server), rate=self.RATE,
            rng=RngStreams(7).get("client:c0"), **kw,
        )
        return sim, server, client

    def test_open_loop_completes_every_request_once(self):
        times = []
        sim, _, client = self._open(
            on_response=lambda req: times.append(req.completed_at))
        sim.run(until=self.HORIZON)
        meter = RateMeter(bin_width=1.0)
        meter.record_many("A", times)
        assert client.completed >= self.REQUESTS
        assert meter.total("A") == client.completed

    def test_invariant_checker_changes_nothing(self):
        sim, _, plain = self._open()
        sim.run(until=self.HORIZON)
        sim, server, checked = self._open()
        checker = InvariantChecker()
        checker.watch_server(sim, server, window=0.1)
        sim.run(until=self.HORIZON)
        assert checker.checks_run > 0
        assert checker.violations == []
        assert checked.completed == plain.completed >= self.REQUESTS

    def test_closed_loop_saturates_the_server(self):
        sim, _, client = self._open(capacity=10_000.0, mode="closed",
                                    users=64, think=0.0)
        sim.run(until=self.REQUESTS / 10_000.0 + 1.0)
        assert client.completed >= self.REQUESTS

    def test_size_proportional_costs(self):
        sim, _, client = self._open(mix=RequestMix(size_cost=True))
        sim.run(until=self.HORIZON)
        assert client.completed >= self.REQUESTS
