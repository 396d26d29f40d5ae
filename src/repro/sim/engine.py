"""Event-driven simulation kernel.

A deliberately small simpy-like core: a :class:`Simulator` owns a binary
heap of timestamped events; :class:`Process` wraps a Python generator that
yields either a float delay, an :class:`Event` to wait on, or another
process.  The kernel is single-threaded and deterministic — ties are broken
by a monotonically increasing sequence number, so two runs with the same
seeds produce identical traces.

Design notes (HPC idioms): the hot loop avoids attribute lookups by binding
locals, events are plain ``__slots__`` objects, and cancelled events are
lazily discarded instead of being removed from the heap (the standard
"tombstone" trick, O(log n) amortised).  Two additions keep the heap lean
on long runs:

- *Tombstone compaction*: cancellations (process timeouts invalidated by an
  interrupt or event resume, :meth:`Timer.cancel`) are counted, and when
  dead entries exceed half the heap it is rebuilt without them — one O(n)
  ``heapify`` that preserves the ``(time, seq)`` dispatch order exactly, so
  long runs with churning timers keep bounded memory.
- *Periodic-event fast path*: :meth:`Simulator.every` timers (the
  per-window ticks that dominate heap traffic) self-reschedule as plain
  heap entries instead of driving a generator process.  They consume
  exactly the same sequence numbers at the same timestamps as a generator
  process that calls ``fn`` and yields ``period`` would
  (``tests/sim/test_engine.py`` holds that ticker as the oracle).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Simulator", "Event", "Process", "Interrupt", "SimulationError",
    "Timer", "PeriodicTimer",
]

# Compaction floor: below this many tombstones a rebuild is not worth it.
_COMPACT_MIN = 64


def _fire(timer: "_TimerBase") -> None:
    """Heap trampoline for timers; module-level so dead entries are cheap
    to recognise (``entry[2] is _fire and entry[3][0].cancelled``)."""
    timer._fire()


class _TimerBase:
    """Shared cancellation bookkeeping for heap-scheduled timers."""

    __slots__ = ("sim", "cancelled")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.cancelled = False

    def cancel(self) -> None:
        """Cancel the timer; its heap entry becomes a counted tombstone."""
        if self.cancelled:
            return
        self.cancelled = True
        sim = self.sim
        sim._dead += 1
        if sim._dead >= _COMPACT_MIN and sim._dead * 2 > len(sim._heap):
            sim._compact()


class Timer(_TimerBase):
    """A cancellable one-shot callback (see :meth:`Simulator.call_later`)."""

    __slots__ = ("fn", "args")

    def __init__(self, sim: "Simulator", fn: Callable, args: tuple) -> None:
        super().__init__(sim)
        self.fn = fn
        self.args = args

    def _fire(self) -> None:
        if self.cancelled:
            self.sim._dead -= 1
            return
        self.cancelled = True   # fired: a later cancel() must be a no-op
        self.fn(*self.args)


class PeriodicTimer(_TimerBase):
    """A self-rescheduling periodic callback (see :meth:`Simulator.every`).

    ``start`` (when not None) is a one-shot initial delay consumed by the
    first firing, mirroring the generator path's ``yield start`` tick —
    same sequence-number consumption, same timestamps.
    """

    __slots__ = ("fn", "args", "period", "start")

    def __init__(self, sim: "Simulator", fn: Callable, args: tuple,
                 period: float, start: Optional[float] = None):
        super().__init__(sim)
        self.fn = fn
        self.args = args
        self.period = period
        self.start = start

    def _fire(self) -> None:
        sim = self.sim
        if self.cancelled:
            sim._dead -= 1
            return
        if self.start is not None:
            delay, self.start = self.start, None
            sim.schedule(delay, _fire, self)
            return
        self.fn(*self.args)
        sim.schedule(self.period, _fire, self)


class SimulationError(RuntimeError):
    """Raised for kernel-level misuse (e.g. scheduling into the past)."""


class Interrupt(Exception):
    """Thrown into a process generator when it is interrupted.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence processes can wait on.

    An event starts *pending*; calling :meth:`succeed` (or :meth:`fail`)
    triggers it, resuming every waiting process with the event's value.
    Events may be triggered at most once.
    """

    __slots__ = ("sim", "_value", "_exc", "triggered", "_waiters", "name")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self.triggered = False
        self._waiters: list[Process] = []

    @property
    def value(self) -> Any:
        if not self.triggered:
            raise SimulationError(f"event {self.name!r} not yet triggered")
        return self._value

    @property
    def ok(self) -> bool:
        return self.triggered and self._exc is None

    def succeed(self, value: Any = None) -> "Event":
        if self.triggered:
            raise SimulationError(f"event {self.name!r} already triggered")
        self.triggered = True
        self._value = value
        for proc in self._waiters:
            self.sim._resume(proc, value, None)
        self._waiters.clear()
        return self

    def fail(self, exc: BaseException) -> "Event":
        if self.triggered:
            raise SimulationError(f"event {self.name!r} already triggered")
        self.triggered = True
        self._exc = exc
        for proc in self._waiters:
            self.sim._resume(proc, None, exc)
        self._waiters.clear()
        return self

    def _add_waiter(self, proc: "Process") -> None:
        if self.triggered:
            self.sim._resume(proc, self._value, self._exc)
        else:
            self._waiters.append(proc)


class Process:
    """A generator-driven simulation process.

    The wrapped generator may yield:

    - ``float``/``int`` — sleep for that many simulated seconds;
    - :class:`Event` — suspend until the event triggers;
    - :class:`Process` — suspend until that process terminates.

    A process is itself an event-like object: other processes can wait for
    its completion, and :meth:`interrupt` throws :class:`Interrupt` into it.
    """

    __slots__ = ("sim", "gen", "name", "alive", "value", "_done_event", "_timer")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = "") -> None:
        self.sim = sim
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self.alive = True
        self.value: Any = None
        self._done_event = Event(sim, name=f"{self.name}.done")
        # The currently armed wake-up timer; cancelled (leaving a counted
        # tombstone) when the process is resumed some other way.
        self._timer: Optional[Timer] = None

    @property
    def done(self) -> Event:
        return self._done_event

    def interrupt(self, cause: Any = None) -> None:
        if not self.alive:
            return
        self.sim._resume(self, None, Interrupt(cause))

    # -- kernel interface -------------------------------------------------

    def _step(self, value: Any, exc: Optional[BaseException]) -> None:
        try:
            if exc is not None:
                target = self.gen.throw(exc)
            else:
                target = self.gen.send(value)
        except StopIteration as stop:
            self.alive = False
            self.value = stop.value
            self._done_event.succeed(stop.value)
            return
        except Interrupt:
            # Interrupt escaped the generator: treat as termination.
            self.alive = False
            self._done_event.succeed(None)
            return
        self._wait_on(target)

    def _wait_on(self, target: Any) -> None:
        sim = self.sim
        if isinstance(target, (int, float)):
            timer = Timer(sim, self._timeout_fired, ())
            self._timer = timer
            sim.schedule(float(target), _fire, timer)
        elif isinstance(target, Process):
            target._done_event._add_waiter(self)
        elif isinstance(target, Event):
            target._add_waiter(self)
        else:
            self.gen.throw(
                SimulationError(f"process {self.name!r} yielded {target!r}")
            )

    def _timeout_fired(self) -> None:
        self._timer = None
        if self.alive:
            self._step(None, None)


class Simulator:
    """Deterministic discrete-event simulator.

    >>> sim = Simulator()
    >>> out = []
    >>> def worker():
    ...     yield 1.5
    ...     out.append(sim.now)
    >>> _ = sim.process(worker())
    >>> sim.run(until=10)
    >>> out
    [1.5]
    """

    __slots__ = ("_now", "_heap", "_seq", "_running", "_dead")

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: list[tuple[float, int, Callable, tuple]] = []
        self._seq = 0
        self._running = False
        self._dead = 0          # cancelled-timer tombstones still in the heap

    @property
    def now(self) -> float:
        return self._now

    @property
    def pending(self) -> int:
        """Live (non-tombstoned) events still queued."""
        return len(self._heap) - self._dead

    def schedule(self, delay: float, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        # SIM004 contract: `_seq` gives every entry a total order, so
        # equal-time events pop in push order (fn/args never compared).
        self._seq += 1
        heapq.heappush(self._heap, (self._now + delay, self._seq, fn, args))

    def schedule_at(self, when: float, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` at absolute simulated time ``when``.

        Pushes ``when`` exactly (no now-relative round trip, which could
        lose a ULP and reorder same-time events).
        """
        if when < self._now:
            raise SimulationError(f"cannot schedule into the past (t={when})")
        self._seq += 1
        heapq.heappush(self._heap, (when, self._seq, fn, args))

    def event(self, name: str = "") -> Event:
        return Event(self, name)

    def process(self, gen: Generator, name: str = "") -> Process:
        """Register a generator as a process; it starts at the current time."""
        proc = Process(self, gen, name)
        self.schedule(0.0, proc._step, None, None)
        return proc

    def call_later(self, delay: float, fn: Callable, *args: Any) -> Timer:
        """Like :meth:`schedule`, but returns a cancellable :class:`Timer`.

        A cancelled timer's heap entry becomes a tombstone, counted toward
        the compaction threshold (see module docstring).
        """
        timer = Timer(self, fn, args)
        self.schedule(delay, _fire, timer)
        return timer

    def every(self, period: float, fn: Callable, *args: Any,
              start: float = 0.0) -> PeriodicTimer:
        """Call ``fn(*args)`` every ``period`` seconds forever.

        A self-rescheduling heap entry — no generator, no process
        bookkeeping — returned as a cancellable :class:`PeriodicTimer`.
        """
        timer = PeriodicTimer(
            self, fn, args, period, start=start if start > 0 else None
        )
        self.schedule(0.0, _fire, timer)
        return timer

    def _compact(self) -> None:
        """Rebuild the heap without cancelled-timer tombstones.

        ``heapify`` re-establishes the invariant over the surviving
        ``(time, seq)`` tuples, so dispatch order is unchanged.  In-place
        (slice assignment) because :meth:`run` holds a local binding to the
        heap list while dispatching."""
        survivors = [
            entry for entry in self._heap
            if not (entry[2] is _fire and entry[3][0].cancelled)
        ]
        self._heap[:] = survivors
        heapq.heapify(self._heap)
        self._dead = 0

    def _resume(self, proc: Process, value: Any, exc: Optional[BaseException]) -> None:
        if proc.alive:
            timer = proc._timer
            if timer is not None:     # invalidate armed timeout, if any
                timer.cancel()
                proc._timer = None
            self.schedule(0.0, proc._step, value, exc)

    def run(self, until: Optional[float] = None) -> None:
        """Process events in timestamp order until the horizon (or drain)."""
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        heap = self._heap
        pop = heapq.heappop
        try:
            while heap:
                when, _seq, fn, args = heap[0]
                if until is not None and when > until:
                    break
                pop(heap)
                self._now = when
                fn(*args)
            if until is not None and (not heap or self._now < until):
                self._now = until
        finally:
            self._running = False

    def peek(self) -> Optional[float]:
        """Timestamp of the next pending event, or None if drained."""
        return self._heap[0][0] if self._heap else None

    def all_of(self, events: Iterable[Event]) -> Event:
        """An event that triggers once every input event has triggered."""
        events = list(events)
        done = self.event("all_of")
        remaining = [len(events)]
        if remaining[0] == 0:
            done.succeed([])
            return done
        values: list[Any] = [None] * len(events)

        def _arm(i: int, ev: Event) -> None:
            def waiter() -> Generator[Event, Any, None]:
                values[i] = yield ev
                remaining[0] -= 1
                if remaining[0] == 0:
                    done.succeed(list(values))
            self.process(waiter(), name=f"all_of[{i}]")

        for i, ev in enumerate(events):
            _arm(i, ev)
        return done

    def any_of(self, events: Iterable[Event]) -> Event:
        """An event that triggers when the first input event triggers."""
        done = self.event("any_of")

        def _arm(ev: Event) -> None:
            def waiter() -> Generator[Event, Any, None]:
                val = yield ev
                if not done.triggered:
                    done.succeed(val)
            self.process(waiter(), name="any_of")

        for ev in events:
            _arm(ev)
        return done
