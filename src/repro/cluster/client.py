"""WebBench-like client machines.

A client machine generates requests for one principal at a bounded rate —
the paper's clients top out at 400 req/s natively, or 135 req/s when
fronted by the proxy the L7 experiments needed.  Clients obey the
redirector's decision: a *redirect* sends the request to the assigned
server; a *defer* (the L7 self-redirect / L4 queueing) makes the client
retry after a delay; requests whose retry pool overflows are dropped, so
offered load stays bounded under sustained overload.

Two generation modes:

- ``open`` (default) — fixed-spacing arrivals at ``rate`` while the phase
  schedule says the client is active; this is what the paper's figures
  measure against.
- ``closed`` — ``users`` virtual users in issue/response/think loops,
  useful for response-time experiments.

The request path:

- workload fields and arrival gaps come pre-drawn in numpy blocks from a
  :class:`repro.cluster.workload.WorkloadStream` (spawned child RNG
  streams);
- the open loop is a self-rescheduling heap callback instead of a
  generator process — no per-request ``Timer`` allocation or generator
  resume;
- activity lookups bisect a precomputed sorted window-boundary array
  (O(log n) instead of scanning every window per request);
- response times feed bounded :class:`repro.sim.stats.StreamingStats`
  (count/mean/M2 + reservoir) instead of an unbounded list.
"""

from __future__ import annotations

import zlib
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, List, Optional, Protocol, Tuple, Union

import numpy as np

from repro.cluster.request import Request
from repro.cluster.server import Server
from repro.cluster.workload import RequestMix, WorkloadStream
from repro.sim.engine import Simulator
from repro.sim.stats import StreamingStats

__all__ = ["ClientMachine", "Redirect", "Defer", "Drop", "Held", "RedirectorAPI"]


@dataclass(frozen=True)
class Redirect:
    """Forward the request to this server (HTTP 302 / NAT rewrite)."""

    server: Server


@dataclass(frozen=True)
class Defer:
    """Not admitted this window; client should retry (self-redirect)."""

    delay: float = 0.0


@dataclass(frozen=True)
class Drop:
    """Reject outright (used by bounded-queue configurations)."""


@dataclass(frozen=True)
class Held:
    """The redirector holds the request and will forward it itself at a
    later window boundary (explicit queuing)."""


Decision = Union[Redirect, Defer, Drop, Held]


class RedirectorAPI(Protocol):
    """What clients need from any redirector implementation."""

    def handle(self, request: Request, done=None) -> Decision:  # pragma: no cover
        ...


def _merge_windows(
    windows: List[Tuple[float, float]],
) -> Tuple[List[float], List[float]]:
    """Sorted, overlap-merged window boundaries for bisect lookups."""
    starts: List[float] = []
    ends: List[float] = []
    for t0, t1 in sorted(windows):
        if starts and t0 <= ends[-1]:
            if t1 > ends[-1]:
                ends[-1] = t1
        else:
            starts.append(t0)
            ends.append(t1)
    return starts, ends


class ClientMachine:
    """One rate-bounded client machine issuing requests for a principal."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        principal: str,
        redirector: RedirectorAPI,
        rate: float,
        rng: np.random.Generator,
        active_windows: Optional[List[Tuple[float, float]]] = None,
        mix: Optional[RequestMix] = None,
        retry_delay: float = 0.2,
        retry_jitter: float = 0.5,
        max_retry_pool: Optional[int] = None,
        mode: str = "open",
        users: int = 8,
        think: float = 0.0,
        jitter: float = 0.0,
        arrivals: str = "uniform",
        on_response: Optional[Callable[[Request], None]] = None,
        stream_chunk: int = 1024,
        rt_reservoir: int = 4096,
    ):
        if rate <= 0:
            raise ValueError("rate must be positive")
        if mode not in ("open", "closed"):
            raise ValueError(f"unknown mode {mode!r}")
        if arrivals not in ("uniform", "poisson"):
            raise ValueError(f"unknown arrival process {arrivals!r}")
        self.sim = sim
        self.name = name
        self.principal = principal
        self.redirector = redirector
        self.rate = float(rate)
        self.rng = rng
        self.active_windows = active_windows  # None = always active
        self.mix = mix or RequestMix()
        self.retry_delay = float(retry_delay)
        # Jitter decorrelates retries from window boundaries: a retry delay
        # that is an exact multiple of the scheduling window makes deferred
        # bursts resonate (alternating heavy/light windows).
        self.retry_jitter = float(retry_jitter)
        # Default pool: half a second of offered load.  Bounds both memory
        # and the retry-storm rate under sustained overload (a retry can at
        # most double the offered load at the default retry_delay).
        self.max_retry_pool = (
            int(max_retry_pool) if max_retry_pool is not None else max(8, int(0.5 * rate))
        )
        self.mode = mode
        self.users = int(users)
        self.think = float(think)
        self.on_response = on_response

        if active_windows is None:
            self._win_starts: Optional[List[float]] = None
            self._win_ends: Optional[List[float]] = None
        else:
            self._win_starts, self._win_ends = _merge_windows(list(active_windows))

        self.issued = 0
        self.admitted = 0
        self.completed = 0
        self.deferred = 0
        self.dropped = 0
        self.response_stats = StreamingStats(
            reservoir=rt_reservoir, seed=zlib.crc32(name.encode("utf-8")) or 1
        )
        self._retry_pool = 0

        self._stream = WorkloadStream(
            self.mix, rng, chunk=stream_chunk,
            rate=self.rate if mode == "open" else None,
            arrivals=arrivals, jitter=jitter,
        )

        if mode == "open":
            sim.schedule(0.0, self._open_tick)
        else:
            for u in range(self.users):
                sim.process(self._closed_user(u), name=f"client[{name}]#{u}")

    # -- measurements ---------------------------------------------------------

    @property
    def response_times(self) -> List[float]:
        """Recorded response-time samples (the full set while the run is
        within the reservoir capacity, a uniform sample beyond it)."""
        return self.response_stats.samples

    # -- activity -------------------------------------------------------------

    def is_active(self, t: float) -> bool:
        starts = self._win_starts
        if starts is None:
            return True
        i = bisect_right(starts, t) - 1
        return i >= 0 and t < self._win_ends[i]

    def _next_activity_start(self, t: float) -> Optional[float]:
        starts = self._win_starts or []
        i = bisect_right(starts, t)
        return starts[i] if i < len(starts) else None

    # -- open-loop generation ------------------------------------------------

    def _open_tick(self) -> None:
        """Open loop: one self-rescheduling heap callback per request —
        no generator, no per-request Timer."""
        sim = self.sim
        now = sim.now
        if not self.is_active(now):
            nxt = self._next_activity_start(now)
            if nxt is not None:
                sim.schedule_at(nxt, self._open_tick)
            return
        url, size, cost, gap = self._stream.draw_next()
        req = Request(
            principal=self.principal,
            client_id=self.name,
            created_at=now,
            size_bytes=size,
            cost=cost,
            url=url,
        )
        self.issued += 1
        self._dispatch(req)
        sim.schedule(gap, self._open_tick)

    def _dispatch(self, req: Request) -> None:
        req.attempts += 1
        decision = self.redirector.handle(req, done=self._on_done)
        if isinstance(decision, Redirect):
            if decision.server.submit(req, done=self._on_done):
                self.admitted += 1
                return
            # Server-side rejection (bounded queue, or end-point
            # enforcement): behaves like a deferral to the client.
            decision = Defer()
        if isinstance(decision, Held):
            self.admitted += 1  # the redirector owns it now
        elif isinstance(decision, Defer):
            self.deferred += 1
            if self._retry_pool >= self.max_retry_pool:
                self.dropped += 1
                return
            self._retry_pool += 1
            self.sim.schedule(self._retry_after() + decision.delay, self._retry, req)
        elif isinstance(decision, Drop):
            self.dropped += 1
        else:  # pragma: no cover - defensive
            raise TypeError(f"unexpected decision {decision!r}")

    def _retry_after(self) -> float:
        if self.retry_jitter <= 0:
            return self.retry_delay
        lo = 1.0 - self.retry_jitter
        hi = 1.0 + self.retry_jitter
        return self.retry_delay * float(self.rng.uniform(lo, hi))

    def _retry(self, req: Request) -> None:
        self._retry_pool -= 1
        if not self.is_active(self.sim.now):
            self.dropped += 1
            return
        self._dispatch(req)

    def _on_done(self, req: Request) -> None:
        self.completed += 1
        completed_at = req.completed_at
        if completed_at is not None:
            self.response_stats.add(completed_at - req.created_at)
        if self.on_response is not None:
            self.on_response(req)

    # -- closed-loop users ----------------------------------------------------------

    def _closed_user(self, user_id: int):
        # Stagger user start so users do not lock-step.
        yield float(self.rng.uniform(0.0, self.users / self.rate))
        while True:
            now = self.sim.now
            if not self.is_active(now):
                nxt = self._next_activity_start(now)
                if nxt is None:
                    return
                yield nxt - now
                continue
            url, size, cost, _gap = self._stream.draw_next()
            req = Request(
                principal=self.principal,
                client_id=self.name,
                created_at=now,
                size_bytes=size,
                cost=cost,
                url=url,
            )
            self.issued += 1
            served = yield from self._closed_dispatch(req)
            if served and self.think > 0:
                yield float(self.rng.exponential(self.think))

    def _closed_dispatch(self, req: Request):
        while True:
            req.attempts += 1
            done = self.sim.event(f"resp-{req.request_id}")
            decision = self.redirector.handle(req, done=lambda r: done.succeed(r))
            if isinstance(decision, Redirect):
                if decision.server.submit(req, done=lambda r: done.succeed(r)):
                    self.admitted += 1
                    yield done
                    self._on_done(req)
                    return True
                # Queue overflow at the server: without this the ``done``
                # event never fires and the virtual user would hang forever
                # — treat it as a deferral, like the open loop does.
                decision = Defer()
            if isinstance(decision, Held):
                self.admitted += 1
                yield done
                self._on_done(req)
                return True
            if isinstance(decision, Defer):
                self.deferred += 1
                yield self._retry_after() + decision.delay
                continue
            self.dropped += 1
            return False
