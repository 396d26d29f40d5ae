import pytest

from repro.sim.engine import (
    Event, Interrupt, PeriodicTimer, Simulator, SimulationError, Timer,
)


def generator_every(sim, period, fn, *args, start=0.0):
    """``Simulator.every`` as a generator process — the oracle the
    PeriodicTimer must match event for event (also patched over
    ``Simulator.every`` by tests/integration/test_lp_cache_ab.py)."""
    def ticker():
        if start > 0:
            yield start
        while True:
            fn(*args)
            yield period
    return sim.process(ticker())


class TestScheduling:
    def test_callbacks_in_time_order(self):
        sim = Simulator()
        out = []
        sim.schedule(2.0, out.append, "b")
        sim.schedule(1.0, out.append, "a")
        sim.schedule(3.0, out.append, "c")
        sim.run()
        assert out == ["a", "b", "c"]

    def test_fifo_tie_break(self):
        sim = Simulator()
        out = []
        for tag in "abc":
            sim.schedule(1.0, out.append, tag)
        sim.run()
        assert out == ["a", "b", "c"]

    def test_equal_time_events_pop_in_push_order_bulk(self):
        # SIM004 regression: with many same-timestamp entries, pop order
        # must be exactly push order — the heap's seq tie-breaker is the
        # only thing standing between this and comparing callbacks.
        sim = Simulator()
        out = []
        order = [7, 3, 11, 0, 5, 2, 9, 1, 8, 4, 10, 6] * 25
        for i, tag in enumerate(order):
            sim.schedule(1.0 if i % 2 else 1.0 + 0.0, out.append, (tag, i))
        sim.run()
        assert out == [(tag, i) for i, tag in enumerate(order)]

    def test_schedule_at_ties_interleave_with_schedule(self):
        sim = Simulator()
        out = []
        sim.schedule(2.0, out.append, "rel")
        sim.schedule_at(2.0, out.append, "abs")
        sim.schedule(2.0, out.append, "rel2")
        sim.run()
        assert out == ["rel", "abs", "rel2"]

    def test_run_until_stops_clock(self):
        sim = Simulator()
        out = []
        sim.schedule(5.0, out.append, "late")
        sim.run(until=2.0)
        assert out == []
        assert sim.now == 2.0
        sim.run(until=10.0)
        assert out == ["late"]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_at(self):
        sim = Simulator()
        hits = []
        sim.schedule_at(4.0, lambda: hits.append(sim.now))
        sim.run()
        assert hits == [4.0]

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_run_not_reentrant(self):
        sim = Simulator()

        def nested():
            sim.run()

        sim.schedule(0.0, nested)
        with pytest.raises(SimulationError, match="reentrant"):
            sim.run()

    def test_peek(self):
        sim = Simulator()
        assert sim.peek() is None
        sim.schedule(3.0, lambda: None)
        assert sim.peek() == 3.0


class TestProcesses:
    def test_delay_yield(self):
        sim = Simulator()
        marks = []

        def proc():
            yield 1.0
            marks.append(sim.now)
            yield 2.5
            marks.append(sim.now)

        sim.process(proc())
        sim.run()
        assert marks == [1.0, 3.5]

    def test_process_return_value(self):
        sim = Simulator()

        def proc():
            yield 1.0
            return 42

        p = sim.process(proc())
        sim.run()
        assert not p.alive
        assert p.value == 42

    def test_wait_on_event(self):
        sim = Simulator()
        ev = sim.event("go")
        got = []

        def waiter():
            value = yield ev
            got.append((sim.now, value))

        sim.process(waiter())
        sim.schedule(2.0, ev.succeed, "payload")
        sim.run()
        assert got == [(2.0, "payload")]

    def test_wait_on_already_triggered_event(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed("early")
        got = []

        def waiter():
            got.append((yield ev))

        sim.process(waiter())
        sim.run()
        assert got == ["early"]

    def test_wait_on_process(self):
        sim = Simulator()
        order = []

        def child():
            yield 3.0
            order.append("child")
            return "done"

        def parent():
            result = yield sim.process(child())
            order.append(f"parent:{result}")

        sim.process(parent())
        sim.run()
        assert order == ["child", "parent:done"]

    def test_interrupt(self):
        sim = Simulator()
        caught = []

        def sleeper():
            try:
                yield 100.0
            except Interrupt as e:
                caught.append((sim.now, e.cause))

        p = sim.process(sleeper())
        sim.schedule(1.0, p.interrupt, "wake")
        sim.run()
        assert caught == [(1.0, "wake")]

    def test_interrupt_cancels_timeout(self):
        sim = Simulator()
        trace = []

        def sleeper():
            try:
                yield 10.0
            except Interrupt:
                pass
            trace.append(sim.now)

        p = sim.process(sleeper())
        sim.schedule(1.0, p.interrupt)
        sim.run()
        # Resumed exactly once, at interrupt time — the armed timeout must
        # not fire a second resume at t=10 (its tombstone is discarded).
        assert trace == [1.0]

    def test_event_double_trigger_rejected(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)

    def test_event_value_before_trigger_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            _ = sim.event().value

    def test_event_fail_raises_in_waiter(self):
        sim = Simulator()
        ev = sim.event()
        seen = []

        def waiter():
            try:
                yield ev
            except RuntimeError as e:
                seen.append(str(e))

        sim.process(waiter())
        sim.schedule(1.0, ev.fail, RuntimeError("boom"))
        sim.run()
        assert seen == ["boom"]

    def test_yield_garbage_raises(self):
        sim = Simulator()

        def bad():
            yield "nope"

        sim.process(bad())
        with pytest.raises(SimulationError):
            sim.run()

    def test_every_helper(self):
        sim = Simulator()
        ticks = []
        sim.every(1.0, lambda: ticks.append(sim.now))
        sim.run(until=3.5)
        assert ticks == [0.0, 1.0, 2.0, 3.0]


class TestCombinators:
    def test_all_of(self):
        sim = Simulator()
        evs = [sim.event(str(i)) for i in range(3)]
        done = []

        def waiter():
            vals = yield sim.all_of(evs)
            done.append((sim.now, vals))

        sim.process(waiter())
        for i, ev in enumerate(evs):
            sim.schedule(float(i + 1), ev.succeed, i)
        sim.run()
        assert done == [(3.0, [0, 1, 2])]

    def test_all_of_empty(self):
        sim = Simulator()
        done = []

        def waiter():
            vals = yield sim.all_of([])
            done.append(vals)

        sim.process(waiter())
        sim.run()
        assert done == [[]]

    def test_any_of(self):
        sim = Simulator()
        evs = [sim.event(str(i)) for i in range(3)]
        done = []

        def waiter():
            val = yield sim.any_of(evs)
            done.append((sim.now, val))

        sim.process(waiter())
        sim.schedule(2.0, evs[1].succeed, "winner")
        sim.schedule(5.0, evs[0].succeed, "late")
        sim.run()
        assert done == [(2.0, "winner")]

    def test_determinism_across_runs(self):
        def run_once():
            sim = Simulator()
            trace = []

            def worker(tag, delay):
                yield delay
                trace.append((tag, sim.now))
                yield delay
                trace.append((tag, sim.now))

            for i in range(5):
                sim.process(worker(i, 0.1 * (i + 1)))
            sim.run()
            return trace

        assert run_once() == run_once()


class TestTimers:
    def test_call_later_fires_and_cancel_suppresses(self):
        sim = Simulator()
        out = []
        sim.call_later(1.0, out.append, "a")
        t = sim.call_later(2.0, out.append, "b")
        t.cancel()
        sim.run()
        assert out == ["a"]

    def test_every_returns_cancellable_handle(self):
        sim = Simulator()
        ticks = []
        timer = sim.every(1.0, lambda: ticks.append(sim.now))
        sim.schedule(2.5, timer.cancel)
        sim.run(until=6.0)
        assert ticks == [0.0, 1.0, 2.0]

    def test_every_with_start_offset(self):
        sim = Simulator()
        ticks = []
        sim.every(1.0, lambda: ticks.append(sim.now), start=0.5)
        sim.run(until=3.0)
        assert ticks == [0.5, 1.5, 2.5]

    def test_heap_stays_bounded_under_cancel_churn(self):
        """Regression: cancelled timers must not accumulate as tombstones.

        The pre-compaction kernel kept every cancelled entry until its
        deadline; with long timeouts and heavy churn the heap grew without
        bound.  Compaction keeps live+dead entries within a constant factor
        of the live count.
        """
        sim = Simulator()
        peak = [0]

        def churn():
            for _ in range(10_000):
                t = sim.call_later(1000.0, lambda: None)
                t.cancel()
                peak[0] = max(peak[0], len(sim._heap))

        sim.schedule(0.0, churn)
        sim.run()
        # 10k cancelled long-deadline timers; compaction must keep the
        # heap within a constant factor of the live entry count.
        assert peak[0] < 200
        assert sim.pending == 0 and len(sim._heap) == 0

    def test_compaction_preserves_dispatch_order(self):
        sim = Simulator()
        out = []
        live = [sim.call_later(float(i + 1), out.append, i) for i in range(10)]
        dead = [sim.call_later(500.0, out.append, "dead") for _ in range(300)]
        for t in dead:
            t.cancel()            # crosses the tombstone threshold mid-run
        sim.run()
        assert out == list(range(10))

    def test_fast_periodic_matches_generator_path(self):
        """The PeriodicTimer is bit-identical to a generator process that
        calls and yields: same tick times, same interleaving with other
        processes, same seq-number tie-breaks."""
        def run_once(every):
            sim = Simulator()
            trace = []
            every(sim, 0.1, lambda: trace.append(("tick", sim.now)))
            every(sim, 0.25, lambda: trace.append(("slow", sim.now)), start=0.25)

            def proc():
                while sim.now < 0.9:
                    yield 0.1
                    trace.append(("proc", sim.now))

            sim.process(proc())
            sim.run(until=1.0)
            return trace

        assert run_once(Simulator.every) == run_once(generator_every)

    def test_timer_classes_exported(self):
        sim = Simulator()
        assert isinstance(sim.call_later(1.0, lambda: None), Timer)
        assert isinstance(sim.every(1.0, lambda: None), PeriodicTimer)
