"""WebBench-like client machines.

A client machine generates requests for one principal at a bounded rate —
the paper's clients top out at 400 req/s natively, or 135 req/s when
fronted by the proxy the L7 experiments needed.  Clients obey the
redirector's decision: a *redirect* sends the request to the assigned
server; a *defer* (the L7 self-redirect / L4 SYN-queue overflow) parks an
open-loop request at the redirector that refused it (:class:`ParkedRequests`,
re-offered when the next window's quotas are installed) unless its client
already has ``max_retry_pool`` waiting, so offered load stays bounded under
sustained overload.  Only closed-loop users poll (``retry_delay``).

Two generation modes:

- ``open`` (default) — fixed-spacing arrivals at ``rate`` while the phase
  schedule says the client is active; this is what the paper's figures
  measure against (the seed enters as :data:`START_SKEW`).
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
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Iterable, List, Optional, Protocol, Tuple, Union

import numpy as np

from repro.cluster.request import Request
from repro.cluster.server import Server
from repro.cluster.workload import RequestMix, WorkloadStream
from repro.sim.engine import Simulator
from repro.sim.stats import StreamingStats

__all__ = ["ClientMachine", "Redirect", "Defer", "Drop", "Held",
           "RedirectorAPI", "ParkedRequests", "START_SKEW", "start_skew",
           "retry_pool"]


@dataclass(frozen=True)
class Redirect:
    """Forward the request to this server (HTTP 302 / NAT rewrite)."""

    server: Server


@dataclass(frozen=True)
class Defer:
    """Not admitted this window (self-redirect): an open-loop client parks
    the request at the redirector, a closed-loop user asks again later."""


@dataclass(frozen=True)
class Drop:
    """Reject outright (used by bounded-queue configurations)."""


@dataclass(frozen=True)
class Held:
    """The redirector holds the request and will forward it itself at a
    later window boundary (explicit queuing)."""


Decision = Union[Redirect, Defer, Drop, Held]

START_SKEW = 0.1  # seconds: one scheduling window


def start_skew(rng: np.random.Generator, arrivals: str, jitter: float) -> float:
    """First-request time of an open-loop client: machines start within a window
    of each other, so an evenly spaced one (no other draw) gets a seed-drawn offset."""
    even = arrivals == "uniform" and jitter <= 0
    return float(rng.uniform(0.0, START_SKEW)) if even else 0.0


def retry_pool(max_retry_pool: Optional[int], rate: float) -> int:
    """Requests one client may have parked at once (default: 0.5 s of load)."""
    return int(max_retry_pool) if max_retry_pool is not None else max(8, int(0.5 * rate))


class RedirectorAPI(Protocol):
    """What clients need from any redirector implementation."""

    def handle(self, request: Request, done=None) -> Decision:  # pragma: no cover
        ...

    def park(self, client: "ClientMachine", request: Request) -> bool:  # pragma: no cover
        """Hold a refused request for re-offer; False = no queue, drop it."""


class ParkedRequests:
    """A redirector's refusal queue (§4.1 implicit queuing, §4.2 kernel
    queue): one FIFO per principal, shared by all of its clients.  The owner
    calls :meth:`reoffer` right after installing each window's quotas and
    passes its per-window demand ledger as ``arrivals``."""

    def __init__(self, principals: Iterable[str], arrivals: Dict[str, float]):
        # principal -> (client, request) pairs, oldest first
        self._fifo: Dict[str, Deque[tuple]] = {p: deque() for p in principals}
        self._cost = {p: 0.0 for p in self._fifo}
        self._arrivals = arrivals

    def __len__(self) -> int:
        return sum(len(q) for q in self._fifo.values())

    def park(self, client: "ClientMachine", request: Request) -> bool:
        self._fifo[request.principal].append((client, request))
        self._cost[request.principal] += request.cost
        return True

    def reoffer(self, now: float) -> None:
        """Offer each FIFO oldest-first through the owner's ``handle`` until
        one is refused again, dropping those whose client went inactive
        (each client asked once).  What stays parked counts as this
        window's demand (``handle`` already counted the refused head), so
        the LP keeps seeing the backlog."""
        active: Dict["ClientMachine", bool] = {}
        for p, q in self._fifo.items():
            while q:
                client, request = q[0]
                live = active.get(client)
                if live is None:
                    live = active[client] = client.is_active(now)
                if not live:
                    client.dropped += 1
                elif client._offer(request, client._on_done) is None:
                    self._arrivals[p] += self._cost[p] - request.cost
                    break
                q.popleft()
                self._cost[p] -= request.cost
                client.parked -= 1


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
        # Closed-loop users only: a deferred user asks again after
        # retry_delay, jittered so polls do not resonate with the window.
        self.retry_delay = float(retry_delay)
        self.retry_jitter = float(retry_jitter)
        self.max_retry_pool = retry_pool(max_retry_pool, rate)
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
        self.parked = 0  # requests waiting in the redirector's ParkedRequests

        self._stream = WorkloadStream(
            self.mix, rng, chunk=stream_chunk,
            rate=self.rate if mode == "open" else None,
            arrivals=arrivals, jitter=jitter,
        )

        if mode == "open":
            sim.schedule(start_skew(rng, arrivals, jitter), self._open_tick)
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
        if self._offer(req, self._on_done) is not None:
            return
        if self.parked < self.max_retry_pool and self.redirector.park(self, req):
            self.parked += 1
        else:
            self.dropped += 1

    def _offer(self, req: Request, done: Callable[[Request], None]) -> Optional[bool]:
        """Ask the redirector once: True admitted, False dropped, None refused
        (``Defer``, or the named server's bounded queue / end-point rejected)."""
        req.attempts += 1
        decision = self.redirector.handle(req, done=done)
        if isinstance(decision, Held) or (
            isinstance(decision, Redirect) and decision.server.submit(req, done=done)
        ):
            self.admitted += 1  # at a server, or the redirector owns it now
            return True
        if isinstance(decision, Drop):
            self.dropped += 1
            return False
        if not isinstance(decision, (Defer, Redirect)):  # pragma: no cover
            raise TypeError(f"unexpected decision {decision!r}")
        self.deferred += 1
        return None

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
            # A server-queue overflow is a refusal too: its ``done`` never fires.
            done = self.sim.event(f"resp-{req.request_id}")
            outcome = self._offer(req, done.succeed)
            if outcome is None:
                j = self.retry_jitter
                spread = float(self.rng.uniform(1.0 - j, 1.0 + j)) if j > 0 else 1.0
                yield self.retry_delay * spread
                continue
            if outcome:
                yield done
                self._on_done(req)
            return outcome
