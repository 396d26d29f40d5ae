"""Columnar lane: vectorized open-loop phases.

The slotted lane pays one heap event per request.  This lane removes that
shape: each open-loop client's arrivals live as struct-of-arrays numpy
columns (arrival time, principal code, cost, assigned server slot,
completion time) and the whole window advances in one engine event — the
:class:`ColumnarEngine` pump.

Determinism contract (the reason this lane can be digest-pinned against
the slotted one):

- **Draws** come from the same three spawned child generators as
  :class:`repro.cluster.workload.WorkloadStream` (``rng.spawn(3)``; the gap
  stream consumed in blocks — numpy generators are chunk-size invariant, so
  any batch size reproduces the scalar chain bit-for-bit).
- **Arrival times** are ``np.cumsum`` chains seeded at the carried cursor:
  cumsum accumulates left-to-right, so batched restarts equal the scalar
  ``fl(t + gap)`` recurrence exactly (batch-size invariance by
  construction).
- **Admission** replays :class:`repro.scheduling.queueing.ImplicitQuota`
  arithmetic vectorised against the *live* quota object: budgets are
  floats minus integer request costs, and float-minus-smaller-integer is
  exact, so the greedy prefix equals the scalar ``try_admit`` sequence.
- **Service** replays the server recurrence
  ``F_i = fl(max(a_i, F_{i-1}) + fl(cost_i / capacity))`` with exact
  vectorised paths whose preconditions are *checked on the exact values*:
  all-idle (``F = a + s``), all-busy (seeded cumsum), and for mixed
  batches of 64 requests or more a busy-period pass (guess the period
  starts in max-plus, replay the scalar adds down each period, keep the
  prefix whose starts the replayed values confirm, restart after it).
  Smaller mixed batches run a tight scalar loop.
- **Commits are grouped freely.**  Nothing reads a server's completions
  during an open-loop run (admission sees demand and queue lengths), so
  each server lane queues its merged submissions and all lanes serve and
  commit together only once ``_DRAIN_BLOCK`` requests are queued, and at
  the run's end — inside ``Simulator.run``, at the last pump before the
  horizon ``Scenario.run`` hands the engine, then at ``flush``.  No result
  can tell the grouping: the service recurrence is exact for any batch,
  ``busy_time`` is a seeded cumsum, meter bins and counters add integers
  (request costs are integers), and each client's response times are
  folded in the order per-window commits give them — by commit instant,
  then lane, then service order — into :class:`StreamingStats`, whose
  moments are blocked by global observation index.
- **Ordering** at equal-time events follows the engine's sequence-number
  rules: the pump is scheduled before any other component (smallest
  construction seq, re-armed first at every boundary by induction); and
  every merge of column chunks (clients' arrivals into a redirector or
  switch, groups' submissions into a server) goes through
  :meth:`ColumnarEngine.merge`, the one place equal-time order is
  decided: equal arrival times from different clients merge in the order
  their ticks were scheduled, i.e. by the clients' previous ticks, back to
  the last instant where the two chains differ
  (:meth:`ColumnarEngine.fires_first`).
- **Refusals park** exactly as :class:`ClientMachine`'s do: in event order,
  each refused request waits in its redirector's
  :class:`~repro.cluster.client.ParkedRequests` (the one refusal queue of
  every lane) while its client's ``max_retry_pool`` has room, and is
  dropped otherwise.  Nothing moves a parked request until the
  redirector's next ``install`` re-offers it through
  :meth:`ColumnarClient._offer` — one call of the redirector's own
  ``handle``, submitted at the boundary instant — so a window's admissions stay
  a function of its arrivals, its quotas and the FIFO it inherited.

Scope: open-loop clients.  Closed-loop clients, response callbacks,
server and redirector crashes, health checks, explicit/credit queuing and
front ends other than L7 redirectors and L4 switches need per-request
events: asking for them on this lane raises :class:`LaneError` (see
``Scenario``).  Request costs are integers by
construction (``max(1, round(size/unit))``), which several exactness
arguments above rely on.
"""

from __future__ import annotations

import itertools
import zlib
from bisect import bisect_right
from collections import defaultdict
from functools import cmp_to_key
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.client import (
    Held, Redirect, _merge_windows, retry_pool, start_skew,
)
from repro.cluster.workload import RequestMix
from repro.l7.redirector import L7Redirector
from repro.scheduling.window import WindowConfig
from repro.sim.engine import Simulator
from repro.sim.monitor import RateMeter
from repro.sim.stats import StreamingStats

__all__ = ["ColumnarClient", "ColumnarEngine", "ColumnarStream", "LaneError"]


class LaneError(ValueError):
    """A component of a world cannot run on the lane the world names."""

    def __init__(self, component: str, reason: str) -> None:
        super().__init__(f"{component} cannot run on the columnar lane: {reason}")
        self.component = component
        self.reason = reason


_EMPTY = np.empty(0, dtype=float)
_NEG_INF = float("-inf")
_INF = float("inf")
# Same literal arithmetic as ImplicitQuota.try_admit's `cost - 1e-9` at
# cost=1.0, so the unit-cost comparisons below are bit-identical.
_UNIT_THR = 1.0 - 1e-9


def _unit_admit(budget: float, n: int) -> int:
    """Number of unit-cost requests the quota admits, scalar-exact.

    ``try_admit`` admits while ``budget - i >= fl(1 - 1e-9)``; for budgets
    below 2**53 every intermediate ``budget - i`` is exactly representable,
    so the count is a vectorised prefix length over exact comparisons.
    """
    if n <= 0 or budget < _UNIT_THR:
        return 0
    m = min(n, int(budget) + 2)
    k = int(np.count_nonzero((budget - np.arange(m, dtype=float)) >= _UNIT_THR))
    return min(k, n)


def _greedy_admit(budget: float, costs: np.ndarray) -> Tuple[np.ndarray, float]:
    """Vectorised replay of sequential ``try_admit`` over integer costs.

    Returns (admitted mask, new budget).  Within a run of admits that
    starts at ``j`` the budget before request ``i`` is ``budget - (pre[i] -
    pre[j])``, ``pre`` the exclusive prefix sums (exact: integer partial
    sums, and float-minus-integer never rounds while the result stays
    smaller in magnitude); each refusal consumes no budget, so the scan
    skips to the next request that fits the budget alone and starts a run
    there, and stops once the budget is below every request's threshold.
    One array pass per run: a unit-cost batch takes one.
    """
    n = costs.shape[0]
    mask = np.zeros(n, dtype=bool)
    if not n:
        return mask, budget
    thr = costs - 1e-9  # try_admit's `cost - 1e-9`, elementwise
    low = float(thr.min())
    pre = costs.cumsum() - costs
    j = 0
    while j < n and budget >= low:
        if budget < thr[j]:
            fits = (budget >= thr[j:]).nonzero()[0]
            if not fits.shape[0]:
                break
            j += int(fits[0])
        base = pre[j]
        ok = (budget - (pre[j:] - base)) >= thr[j:]
        k = int(ok.argmin())  # the first over-budget request, if any
        if ok[k]:
            k = n - j
        mask[j:j + k] = True
        j += k
        budget -= float((pre[j] if j < n else pre[-1] + costs[-1]) - base)
    return mask, budget


# Mixed batches shorter than this keep the scalar loop: below it the
# busy-period pass's fixed cost (a few dozen array calls) is not repaid.
_BUSY_MIN = 64
# Requests the server lanes queue, over all of them, before they serve and
# commit together (and at the run's end, whatever is queued).  No result
# depends on the grouping (see _ServerLane), so the size only trades the
# per-drain array calls against the queue's memory.
_DRAIN_BLOCK = 1024
# Chain positions the busy-period pass replays in lock step (one gather-add
# per depth over every chain still running); longer chains finish with one
# seeded cumsum each.
_LOCKSTEP = 8


def _scalar_service(
    a: np.ndarray, s: np.ndarray, f: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """The server recurrence, one request at a time: (completions, starts)."""
    tl = a.tolist()
    svl = s.tolist()
    starts: List[float] = []
    fins: List[float] = []
    ap_s = starts.append
    ap_f = fins.append
    for i in range(len(tl)):
        t = tl[i]
        s0 = t if t > f else f
        ap_s(s0)
        f = s0 + svl[i]
        ap_f(f)
    return np.asarray(fins), np.asarray(starts)


def _busy_pass(
    a: np.ndarray, s: np.ndarray, f: float,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """One busy-period pass over a batch: ``(F, S, k)`` where ``F[:k]`` and
    ``S[:k]`` equal the scalar recurrence from ``free_at = f``.

    1. *Guess* where busy periods start from the max-plus closed form
       ``F~ = C + max(f, max.accumulate(a - (C - s)))``, ``C = cumsum(s)``:
       ``i`` starts one iff ``a_i >= F~_{i-1}`` (index 0 against ``f``,
       exactly).  ``F~`` rounds differently from the sequential adds, so it
       only proposes.
    2. *Replay* the scalar adds for that guess: ``a + s`` at a start
       (``f + s_0`` when index 0 continues the carried period), then
       ``F_i = F_{i-1} + s_i`` down every chain — lock-step gather-adds for
       the first ``_LOCKSTEP`` positions, one seeded cumsum per longer tail.
    3. *Accept* the prefix before the first index whose start test on the
       replayed values (``a_i >= F_{i-1}``) disagrees with the guess: by
       induction each accepted ``F_i`` is the scalar one (at a tie
       ``a == F`` both branches give the same value).  ``k >= 1``, since
       index 0 was tested exactly.
    """
    n = a.shape[0]
    c = s.cumsum()
    g = np.maximum.accumulate(a - (c - s))
    np.maximum(g, f, out=g)
    g += c
    start = np.empty(n, dtype=bool)
    start[0] = a[0] >= f
    np.greater_equal(a[1:], g[:-1], out=start[1:])
    heads = np.flatnonzero(start)
    F = np.empty(n)
    F[heads] = a[heads] + s[heads]
    if not start[0]:
        F[0] = f + s[0]
        heads = np.concatenate(((0,), heads))
    lens = np.empty_like(heads)
    np.subtract(heads[1:], heads[:-1], out=lens[:-1])
    lens[-1] = n - heads[-1]
    run = lens > 1
    live, lens = heads[run], lens[run]
    for d in range(1, _LOCKSTEP + 1):
        if not live.shape[0]:
            break
        idx = live + d
        F[idx] = F[idx - 1] + s[idx]
        run = lens > d + 1
        live, lens = live[run], lens[run]
    for h, m in zip(live.tolist(), lens.tolist()):
        tail = F[h + _LOCKSTEP:h + m]
        seed = tail[0]
        tail[:] = s[h + _LOCKSTEP:h + m]
        tail[0] = seed
        tail.cumsum(out=tail)
    prev = np.empty(n)
    prev[0] = f
    prev[1:] = F[:-1]
    exact = a >= prev
    wrong = exact != start
    k = int(wrong.argmax()) if wrong.any() else n
    return F, np.where(exact, a, prev), k


def _service(
    a: np.ndarray, s: np.ndarray, f: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Completion and service-start columns of one FIFO batch: exactly the
    scalar ``S_i = max(a_i, F_{i-1})``, ``F_i = fl(S_i + s_i)`` from
    ``F_{-1} = f``.

    All-idle and saturated batches are single array expressions whose
    preconditions are checked on the very values the recurrence produces,
    so a passing check *proves* equality.  Mixed batches run busy-period
    passes (:func:`_busy_pass`), each restarted from the last exact ``F``
    where its guess failed; fewer than ``_BUSY_MIN`` requests, and any
    such suffix, take the scalar loop.
    """
    n = a.shape[0]
    f_idle = a + s
    if a[0] >= f and (n == 1 or bool(np.all(a[1:] >= f_idle[:-1]))):
        return f_idle, a
    f_sat = np.cumsum(np.concatenate(((f,), s)))[1:]
    if a[0] <= f and (n == 1 or bool(np.all(a[1:] <= f_sat[:-1]))):
        return f_sat, np.concatenate(((f,), f_sat[:-1]))
    fins: List[np.ndarray] = []
    starts: List[np.ndarray] = []
    i = 0
    while i < n:
        if n - i < _BUSY_MIN:
            F, S = _scalar_service(a[i:], s[i:], f)
            k = n - i
        else:
            F, S, k = _busy_pass(a[i:], s[i:], f)
        fins.append(F[:k])
        starts.append(S[:k])
        f = float(F[k - 1])
        i += k
    if len(fins) == 1:
        return fins[0], starts[0]
    return np.concatenate(fins), np.concatenate(starts)


def _runs(pairs: List[int]):
    """``(first, last)`` index of each run of equal neighbours, from the
    ascending positions ``i`` whose entry equals entry ``i + 1``."""
    lo = prev = pairs[0]
    for i in pairs[1:]:
        if i != prev + 1:
            yield lo, prev + 1
            lo = i
        prev = i
    yield lo, prev + 1


def _columns(rows: List[tuple]) -> tuple:
    """The chunk of submission rows ``(t, cost, created, code, pcode)``;
    costs None when every one is 1."""
    ts, costs, created, cl, pr = zip(*rows)
    c = np.asarray(costs)
    return (
        np.asarray(ts), c if bool(np.any(c != 1.0)) else None,
        np.asarray(created), np.asarray(cl, dtype=np.int64),
        np.asarray(pr, dtype=np.int64),
    )


def _concat(chunks: List[tuple]) -> tuple:
    """The chunks' columns end to end (costs None when every one's is)."""
    if len(chunks) == 1:
        return chunks[0]
    costs = None
    if any(c[1] is not None for c in chunks):
        costs = np.concatenate([
            np.ones(c[0].shape[0]) if c[1] is None else c[1] for c in chunks
        ])
    ts, created, cl, pr = (np.concatenate([c[i] for c in chunks])
                           for i in (0, 2, 3, 4))
    return ts, costs, created, cl, pr


def _select(chunk: tuple, sel) -> tuple:
    """The entries ``sel`` (slice, mask or indices) of every column."""
    ts, costs, created, cl, pr = chunk
    return (ts[sel], None if costs is None else costs[sel], created[sel],
            cl[sel], pr[sel])


def _block(rate: float) -> int:
    """Default refill block: one second of arrivals, rounded up to a power
    of two and clamped to [1024, 65536] (the size is unobservable)."""
    n = max(1, int(np.ceil(rate)))
    return min(65536, max(1024, 1 << (n - 1).bit_length()))


class _Pending:
    """A columnar request not yet at a server: the ``request`` a
    :class:`ParkedRequests` FIFO holds, or a SYN in an L4 kernel queue."""

    __slots__ = ("principal", "cost", "created", "code")

    def __init__(self, principal: str, cost: float, created: float, code: int):
        self.principal = principal
        self.cost = cost
        self.created = created
        self.code = code


class ColumnarStream:
    """Bulk gap/cost draws bit-matching :class:`WorkloadStream`'s streams.

    Spawns the identical three child generators (sizes, flags, gaps) from
    the client RNG.  Sizes/flags are only consumed when the mix uses
    size-proportional costs — they feed no observable state otherwise, and
    each child stream is independent, so skipping them cannot perturb the
    gap draws.
    """

    __slots__ = (
        "mix", "arrivals", "spacing", "jitter", "batch", "scan_gap",
        "_size_rng", "_flag_rng", "_gap_rng", "_unit",
        "_gap_buf", "_gap_i", "_cost_buf", "_cost_i",
    )

    def __init__(
        self,
        mix: RequestMix,
        rng: np.random.Generator,
        rate: float,
        arrivals: str = "uniform",
        jitter: float = 0.0,
        batch: Optional[int] = None,
    ):
        if batch is not None and batch < 1:
            raise ValueError("batch must be >= 1")
        if arrivals not in ("uniform", "poisson"):
            raise ValueError(f"unknown arrival process {arrivals!r}")
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.mix = mix
        self.arrivals = arrivals
        self.spacing = 1.0 / float(rate)
        self.jitter = float(jitter)
        self.batch = _block(rate) if batch is None else int(batch)
        # Gap length that sizes `take_until`'s cumsum prefix: the smallest
        # possible gap for uniform/jittered arrivals (the prefix is then an
        # upper bound), half the mean otherwise (a guess, doubled on miss).
        bounded = arrivals == "uniform" and self.jitter < 1.0
        self.scan_gap = self.spacing * (1.0 - self.jitter if bounded else 0.5)
        self._size_rng, self._flag_rng, self._gap_rng = rng.spawn(3)
        self._unit = (
            (mix.unit_bytes or mix.sampler.mean_bytes) if mix.size_cost else None
        )
        self._gap_buf: Optional[np.ndarray] = None
        self._gap_i = 0
        self._cost_buf: Optional[np.ndarray] = None
        self._cost_i = 0

    def gap_view(self) -> np.ndarray:
        """The remaining buffered gaps (refilled when exhausted)."""
        buf = self._gap_buf
        if buf is None or self._gap_i >= buf.shape[0]:
            n = self.batch
            if self.arrivals == "poisson":
                buf = self._gap_rng.exponential(self.spacing, size=n)
            elif self.jitter > 0:
                j = self.jitter
                buf = self.spacing * (1.0 + self._gap_rng.uniform(-j, j, size=n))
            else:
                buf = np.full(n, self.spacing)
            self._gap_buf = buf
            self._gap_i = 0
            return buf
        return buf[self._gap_i:]

    def consume_gaps(self, m: int) -> None:
        self._gap_i += m

    def take_costs(self, m: int) -> Optional[np.ndarray]:
        """The next ``m`` request costs (None for unit-cost mixes)."""
        if self._unit is None:
            return None
        out: List[np.ndarray] = []
        while m:
            buf = self._cost_buf
            if buf is None or self._cost_i >= buf.shape[0]:
                sizes = self.mix.sampler.sample(self._size_rng, size=self.batch)
                buf = np.maximum(1.0, np.round(sizes / self._unit))
                self._cost_buf = buf
                self._cost_i = 0
            take = min(m, buf.shape[0] - self._cost_i)
            out.append(buf[self._cost_i:self._cost_i + take])
            self._cost_i += take
            m -= take
        return out[0] if len(out) == 1 else np.concatenate(out)


class ColumnarClient:
    """Open-loop client whose arrivals are generated as columns.

    Mirrors :class:`repro.cluster.client.ClientMachine`'s observable
    surface (counters including ``parked``, ``response_stats``, activity
    schedule, the same ``max_retry_pool`` default) but never touches the
    event heap — the :class:`ColumnarEngine` pump pulls whole windows via
    :meth:`take_until`, parks their refusals at the redirector, and the
    redirector's ``install`` re-offers them through :meth:`_offer`.
    """

    # Completions are committed in blocks by the server lanes, not by a
    # per-request callback; ParkedRequests.reoffer passes this through.
    _on_done = None

    def __init__(
        self,
        sim: Simulator,
        name: str,
        principal: str,
        redirector,
        rate: float,
        rng: np.random.Generator,
        active_windows: Optional[Sequence[Tuple[float, float]]] = None,
        mix: Optional[RequestMix] = None,
        mode: str = "open",
        jitter: float = 0.0,
        arrivals: str = "uniform",
        max_retry_pool: Optional[int] = None,
        on_response=None,
        batch: Optional[int] = None,
        rt_reservoir: int = 4096,
    ):
        if rate <= 0:
            raise ValueError("rate must be positive")
        if mode != "open":
            raise ValueError("columnar lane supports open-loop clients only")
        if on_response is not None:
            raise ValueError("columnar lane does not support on_response hooks")
        self.sim = sim
        self.name = name
        self.principal = principal
        self.redirector = redirector
        self.rate = float(rate)
        self.rng = rng
        self.active_windows = (
            list(active_windows) if active_windows is not None else None
        )
        self.mix = mix or RequestMix()
        self.mode = mode
        self.jitter = float(jitter)
        self.arrivals = arrivals
        self.max_retry_pool = retry_pool(max_retry_pool, rate)

        if self.active_windows is None:
            self._win_starts: Optional[List[float]] = None
            self._win_ends: Optional[List[float]] = None
        else:
            self._win_starts, self._win_ends = _merge_windows(self.active_windows)

        self.issued = 0
        self.admitted = 0
        self.completed = 0
        self.deferred = 0
        self.dropped = 0
        self.parked = 0  # requests waiting in the redirector's ParkedRequests
        self.response_stats = StreamingStats(
            reservoir=rt_reservoir, seed=zlib.crc32(name.encode("utf-8")) or 1
        )

        self.stream = ColumnarStream(
            self.mix, rng, rate=self.rate, arrivals=arrivals,
            jitter=self.jitter, batch=batch,
        )
        # Engine-assigned dense codes and the engine itself (set at
        # registration).
        self._code = -1
        self._pcode = -1
        self._engine: Optional["ColumnarEngine"] = None

        # Cursor: time of ClientMachine's next `_open_tick`, from the same
        # start skew as its first.  A tick outside every active segment is
        # an idle tick: it emits nothing and re-arms at the next segment
        # start without consuming a draw, like the scalar tick's
        # schedule_at(next_start).
        self._t_next: Optional[float] = start_skew(rng, arrivals, self.jitter)
        # Ticks fired by the current take (arrivals and idle ticks), and the
        # firing-order state before it: the last tick fired earlier (-inf:
        # none, the first tick was scheduled at construction) and this
        # client's rank among clients whose last tick fired at that instant
        # (see ColumnarEngine.fires_first).
        self._fired = _EMPTY
        self._last = _NEG_INF
        self._rank = 0

    # -- measurements ------------------------------------------------------

    @property
    def response_times(self) -> List[float]:
        return self.response_stats.samples

    # -- activity ----------------------------------------------------------

    def is_active(self, t: float) -> bool:
        starts = self._win_starts
        if starts is None:
            return True
        i = bisect_right(starts, t) - 1
        return i >= 0 and t < self._win_ends[i]

    def _segment_end(self, t: float) -> float:
        """End of the active segment holding ``t``; ``<= t`` when idle."""
        starts = self._win_starts
        if starts is None:
            return _INF
        i = bisect_right(starts, t) - 1
        return self._win_ends[i] if i >= 0 else t

    def _next_segment_start(self, t: float) -> Optional[float]:
        starts = self._win_starts or []
        i = bisect_right(starts, t)
        return starts[i] if i < len(starts) else None

    # -- re-offer ----------------------------------------------------------

    def _offer(self, request: _Pending, done=None) -> Optional[bool]:
        """Offer a parked request once more (``ParkedRequests.reoffer`` at
        the redirector's install) through the redirector's ``handle``, as
        ``ClientMachine._offer`` does: a ``Redirect`` is submitted to its
        server's lane at the boundary instant, and a ``Held`` flow is the L4
        switch's from here on.  True admitted, None refused again."""
        decision = self.redirector.handle(request)
        if isinstance(decision, Redirect):
            self._engine.lane(decision.server).submit(
                self.sim.now, request.cost, request.created,
                self._code, self._pcode,
            )
        elif not isinstance(decision, Held):
            self.deferred += 1
            return None
        self.admitted += 1
        return True

    # -- bulk generation ---------------------------------------------------

    def take_until(
        self, hi: float, closed: bool = False
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """All arrivals with ``t < hi`` (``<= hi`` when closed) as columns.

        Advances the cursor; (times, costs) with costs None for unit-cost
        mixes.  Each call continues the exact cumsum chain of the previous
        one, so per-window takes equal one whole-phase take element-wise.
        Only the prefix of the gap buffer that can land before
        ``min(segment end, hi)`` is scanned: a prefix of a left-to-right
        cumsum chain is the chain of the prefix, and a prefix that turns out
        too short is a block exhausted early — the chain continues from its
        last element over a doubled prefix.

        The ticks this take fired, idle ones included, are left in
        ``_fired`` for the engine's equal-time ordering.
        """
        t = self._t_next
        if t is None:
            self._fired = _EMPTY
            return _EMPTY, None
        if t == hi:
            # A tick due at the boundary was scheduled by a tick fired in an
            # earlier take, before the boundary's own events were: the event
            # lanes fire it first, in the window that ends here.
            closed = True
        stream = self.stream
        out: List[np.ndarray] = []
        fired: List[np.ndarray] = []
        m_total = 0
        while t is not None:
            if (t > hi) if closed else (t >= hi):
                break
            end = self._segment_end(t)
            if t >= end:
                fired.append(np.array((t,)))
                t = self._next_segment_start(t)
                continue
            k = int((min(end, hi) - t) / stream.scan_gap) + 2
            while True:
                gaps = stream.gap_view()[:k]
                chain = np.cumsum(np.concatenate(((t,), gaps)))
                cand = chain[:-1]
                ok = cand < end
                if closed:
                    ok &= cand <= hi
                else:
                    ok &= cand < hi
                m = int(ok.sum())  # candidates are monotone: prefix length
                if m:
                    out.append(cand[:m])
                    fired.append(out[-1])
                    stream.consume_gaps(m)
                    m_total += m
                if m == cand.shape[0]:
                    t = float(chain[-1])
                    k *= 2
                    continue  # prefix exhausted mid-segment: scan on / refill
                t = float(chain[m])
                break  # past the window bound or the segment end
        self._t_next = t
        times = _EMPTY if not out else (
            out[0] if len(out) == 1 else np.concatenate(out))
        self._fired = (
            times if len(fired) == len(out)
            else fired[0] if len(fired) == 1 else np.concatenate(fired))
        if not m_total:
            return _EMPTY, None
        return times, stream.take_costs(m_total)


class _ServerLane:
    """Per-server columnar drain: exact Lindley recurrence over batches.

    Each pump merges the window's submissions into firing order — it must,
    since :meth:`ColumnarEngine.merge` reads the clients' firing-chain
    state of that window — and queues them; the engine has every lane
    serve its queue and commit together once ``_DRAIN_BLOCK`` requests are
    queued over all lanes, and at the run's end.  Why no result can tell
    the grouping: "Commits are grouped freely" in the module docstring.
    """

    __slots__ = (
        "engine", "server",
        "free_at", "_push", "_boundary", "_queue", "_queued",
        "_pf", "_ps", "_psv", "_pcl", "_ppr", "_pcr", "_pco", "_busy_ptr",
    )

    def __init__(self, engine: "ColumnarEngine", server) -> None:
        self.engine = engine
        self.server = server
        self.free_at = _NEG_INF
        self._push: List[tuple] = []
        self._boundary: List[tuple] = []
        self._queue: List[tuple] = []   # merged chunks not yet served
        self._queued = 0
        self._pf = _EMPTY          # completion times (nondecreasing)
        self._ps = _EMPTY          # service-start times (nondecreasing)
        self._psv = _EMPTY         # service durations
        self._pcl = np.empty(0, dtype=np.int64)   # client codes
        self._ppr = np.empty(0, dtype=np.int64)   # principal codes
        self._pcr = _EMPTY         # request creation times
        self._pco: Optional[np.ndarray] = None    # costs (None == all 1.0)
        self._busy_ptr = 0

    def push(self, chunk: tuple) -> None:
        """Queue one group's submissions (a chunk already in event order)."""
        self._push.append(chunk)

    def submit(
        self, t: float, cost: float, created: float, code: int, pcode: int,
    ) -> None:
        """One submission made at a window boundary (a re-offer at install).

        It follows everything pushed before the boundary and precedes
        everything pushed next — arrivals and reinjection releases at the
        boundary instant included, which the event lanes fire as later
        events — so these queue on their own, in call order, first."""
        self._boundary.append((t, cost, created, code, pcode))

    @property
    def backlog(self) -> int:
        """Requests submitted to this lane and not yet served."""
        return (self._queued + len(self._boundary)
                + sum(c[0].shape[0] for c in self._push))

    def advance(self, now: float, drain: bool) -> None:
        """Queue this window's submissions — the boundary re-offers, then
        the pushes merged into firing order — and, when ``drain``, serve
        the queue and commit every completion up to ``now``."""
        if self._boundary:
            self._enqueue(_columns(self._boundary))
            self._boundary = []
        if self._push:
            self._enqueue(self.engine.merge(self._push))
            self._push = []
        if drain:
            if self._queue:
                self._drain(*_concat(self._queue))
                self._queue = []
                self._queued = 0
            self._commit(now)

    def _enqueue(self, chunk: tuple) -> None:
        self._queue.append(chunk)
        self._queued += chunk[0].shape[0]

    def _drain(self, ts, costs, created, cl, pr) -> None:
        srv = self.server
        n = ts.shape[0]
        if costs is None:
            sv = np.full(n, 1.0 / srv.capacity)
        else:
            sv = costs / srv.capacity
        F, S = _service(ts, sv, self.free_at)
        self.free_at = float(F[-1])
        # Append to the uncommitted tail (both F and S are nondecreasing,
        # within the batch and across batches).
        if self._pf.shape[0]:
            self._pf = np.concatenate((self._pf, F))
            self._ps = np.concatenate((self._ps, S))
            self._psv = np.concatenate((self._psv, sv))
            self._pcl = np.concatenate((self._pcl, cl))
            self._ppr = np.concatenate((self._ppr, pr))
            self._pcr = np.concatenate((self._pcr, created))
            if self._pco is not None or costs is not None:
                old = (
                    self._pco if self._pco is not None
                    else np.ones(self._pf.shape[0] - n)
                )
                new = costs if costs is not None else np.ones(n)
                self._pco = np.concatenate((old, new))
        else:
            self._pf, self._ps, self._psv = F, S, sv
            self._pcl, self._ppr, self._pcr = cl, pr, created
            self._pco = costs

    def _commit(self, now: float) -> None:
        """Account every completion up to ``now``: busy time, the server's
        ledger and the meters here; the clients' counters and response
        times go to the engine, which folds all lanes' at once."""
        pf = self._pf
        if not pf.shape[0]:
            return
        srv = self.server
        # Busy time accrues at service *start*; seeded cumsum replays the
        # scalar `busy_time += service` adds in order.
        j = int(np.searchsorted(self._ps, now, side="right"))
        if j > self._busy_ptr:
            seg = self._psv[self._busy_ptr:j]
            srv.busy_time = float(
                np.cumsum(np.concatenate(((srv.busy_time,), seg)))[-1]
            )
            self._busy_ptr = j
        k = int(np.searchsorted(pf, now, side="right"))
        if not k:
            return
        engine = self.engine
        meter = engine.meter
        Fc = pf[:k]
        clc = self._pcl[:k]
        prc = self._ppr[:k]
        coc = self._pco[:k] if self._pco is not None else None
        meter.record_many(f"server:{srv.name}", Fc)
        completed = srv.completed
        engine._done.append((Fc, self._pcr[:k], clc))
        # A request's principal is its client's, so the principals present
        # follow from the client codes; one present needs no masks.
        clients = engine.clients_by_code
        pcodes = sorted({clients[code]._pcode
                         for code in np.flatnonzero(np.bincount(clc)).tolist()})
        for pcode in pcodes:
            pname = engine.principal_names[pcode]
            if len(pcodes) == 1:
                tp, wts = Fc, coc
            else:
                m = prc == pcode
                tp = Fc[m]
                wts = coc[m] if coc is not None else None
            completed[pname] = completed.get(pname, 0) + int(tp.shape[0])
            meter.record_many(pname, tp)
            meter.record_many(f"units:{pname}", tp, weights=wts)
        self._pf = pf[k:]
        self._ps = self._ps[k:]
        self._psv = self._psv[k:]
        self._pcl = self._pcl[k:]
        self._ppr = self._ppr[k:]
        self._pcr = self._pcr[k:]
        if self._pco is not None:
            self._pco = self._pco[k:]
        self._busy_ptr -= k


class _L7Group:
    """Columnar drive of one implicit-quota :class:`L7Redirector`."""

    def __init__(self, engine: "ColumnarEngine", red: L7Redirector) -> None:
        if red.queuing != "implicit":
            raise ValueError("columnar lane requires implicit queuing")
        self.engine = engine
        self.red = red
        self._clients_by_p: Dict[str, List[ColumnarClient]] = {}
        self._order: List[ColumnarClient] = []
        sole = None
        if red.health is None and len(red.servers) == 1:
            owner, pool = next(iter(red.servers.items()))
            if len(pool) == 1:
                sole = (owner, pool[0])
        self._sole = sole
        self._fallback_ok: Dict[str, bool] = {}

    def add_client(self, client: ColumnarClient) -> None:
        p = client.principal
        if p not in self.red._arrivals:
            raise ValueError(f"unknown principal {p!r} for {self.red.name}")
        self._clients_by_p.setdefault(p, []).append(client)
        self._order.append(client)

    def advance(self, hi: float, closed: bool) -> None:
        if self._sole is not None:
            for p, cs in self._clients_by_p.items():
                self._advance_fast(p, cs, hi, closed)
        else:
            self._advance_loop(hi, closed)

    # -- single-server fast path ------------------------------------------

    def _window_server(self, p: str):
        """The constant pick `_pick_server(p)` would return all window.

        With one owner and a one-server pool the smooth-WRR choice cannot
        vary within a window: non-empty weights always yield the sole
        owner, empty weights fall back to the mandatory-entitlement owner
        (or None).  Skipping the per-admit WRR state advance is therefore
        unobservable.
        """
        red = self.red
        owner, srv = self._sole
        if red._wrr[p]._weights:
            return srv
        ok = self._fallback_ok.get(p)
        if ok is None:
            ok = self._fallback_ok[p] = bool(red._fallback_owners(p))
        return srv if ok else None

    def _advance_fast(
        self, p: str, cs: List[ColumnarClient], hi: float, closed: bool
    ) -> None:
        red = self.red
        engine = self.engine
        batch = engine.gather(cs, hi, closed)
        if batch is None:
            return
        costs, cl = batch[1], batch[3]
        total = cl.shape[0]
        quota = red.quota
        budget = quota._budget[p]
        # Demand estimate: one bulk add per window from a zeroed counter
        # equals the scalar's sequential `+= cost` chain (cumsum is
        # left-to-right; integer unit costs sum exactly).
        if costs is None:
            red._arrivals[p] += float(total)
            n_adm = _unit_admit(budget, total)
            new_budget = budget - float(n_adm)
            adm, ref = slice(n_adm), slice(n_adm, None)
        else:
            red._arrivals[p] += float(np.cumsum(costs)[-1])
            adm, new_budget = _greedy_admit(budget, costs)
            n_adm = int(np.count_nonzero(adm))
            ref = ~adm
        quota._budget[p] = new_budget
        quota.admitted[p] += n_adm
        quota.rejected[p] += total - n_adm
        srv = self._window_server(p) if n_adm else None
        if n_adm and srv is None:
            # handle()'s admitted-but-no-usable-server fallthrough.
            quota.rejected[p] += n_adm
            red.self_redirects[p] += total
            engine.refuse(batch)
            return
        red.admitted[p] += n_adm
        red.self_redirects[p] += total - n_adm
        if n_adm < total:
            engine.refuse(_select(batch, ref))
        if n_adm:
            admitted = _select(batch, adm)
            clients = engine.clients_by_code
            for code, cnt in enumerate(np.bincount(admitted[3]).tolist()):
                if cnt:
                    clients[code].admitted += cnt
            engine.lane(srv).push(admitted)

    # -- general event-loop path ------------------------------------------

    def _advance_loop(self, hi: float, closed: bool) -> None:
        """Multi-owner/pooled redirectors: per-event replay of ``handle``
        against the live quota/WRR state (shared ``_server_wrr`` state
        makes per-principal vectorisation unsafe), still without heap
        events or Request objects."""
        red = self.red
        engine = self.engine
        batch = engine.gather(self._order, hi, closed)
        if batch is None:
            return
        ts, costs, _, cl, pc = batch
        quota = red.quota
        arrivals = red._arrivals
        clients = engine.clients_by_code
        names = engine.principal_names
        subs: Dict[object, List[tuple]] = defaultdict(list)
        refused: List[int] = []
        for i, (t, code, pcode, cost) in enumerate(zip(
            ts.tolist(), cl.tolist(), pc.tolist(),
            itertools.repeat(1.0) if costs is None else costs.tolist(),
        )):
            p = names[pcode]
            arrivals[p] += cost
            if quota.try_admit(p, cost=cost):
                server = red._pick_server(p)
                if server is not None:
                    red.admitted[p] += 1
                    clients[code].admitted += 1
                    subs[server].append((t, cost, t, code, pcode))
                    continue
                quota.rejected[p] += 1
            red.self_redirects[p] += 1
            refused.append(i)
        if refused:
            engine.refuse(_select(batch, refused))
        for server, rows in subs.items():
            engine.lane(server).push(_columns(rows))


class ColumnarEngine:
    """One pump event per window boundary driving every columnar group.

    Construct this *before any other scenario component* so the pump's
    boundary events carry the smallest construction sequence numbers: the
    pump then fires first at every boundary (before window drivers, daemon
    accounting and protocol rounds), which is exactly the state a scalar
    run would present to those components — all intra-window events
    applied, no boundary events yet.
    """

    def __init__(self, sim: Simulator, window: WindowConfig, meter: RateMeter):
        self.sim = sim
        self.window = window
        self.meter = meter
        self.principal_names: List[str] = []
        self._pcode: Dict[str, int] = {}
        self.clients_by_code: List[ColumnarClient] = []
        self._groups: List[object] = []
        self._group_of: Dict[int, object] = {}
        self._lanes: Dict[str, _ServerLane] = {}
        self.requests = 0
        # End of the run in progress (``Scenario.run`` sets it): the pump
        # whose next boundary lies beyond it drains every lane's queue.
        self.horizon: Optional[float] = None
        # Commit instants since the last drain (one per pump, and the
        # flush), and the lanes' committed (completion, created, client
        # code) columns awaiting _fold_responses.
        self._pumps: List[float] = []
        self._done: List[tuple] = []
        self._flushed_to: Optional[float] = None
        sim.schedule(window.length, self._pump)

    def principal_code(self, p: str) -> int:
        code = self._pcode.get(p)
        if code is None:
            code = self._pcode[p] = len(self.principal_names)
            self.principal_names.append(p)
        return code

    def register(self, client: ColumnarClient) -> None:
        red = client.redirector
        group = self._group_of.get(id(red))
        if group is None:
            factory = getattr(red, "columnar_group", None)
            if factory is not None:
                group = factory(self)
            elif isinstance(red, L7Redirector):
                group = _L7Group(self, red)
            else:
                raise ValueError(
                    f"redirector {red!r} does not support the columnar lane"
                )
            self._group_of[id(red)] = group
            self._groups.append(group)
        client._code = client._rank = len(self.clients_by_code)
        client._pcode = self.principal_code(client.principal)
        client._engine = self
        self.clients_by_code.append(client)
        group.add_client(client)

    def lane(self, server) -> _ServerLane:
        ln = self._lanes.get(server.name)
        if ln is None:
            ln = self._lanes[server.name] = _ServerLane(self, server)
        return ln

    def refuse(self, chunk: tuple) -> None:
        """Refused arrivals (a chunk, in event order): ``ClientMachine._dispatch``'s
        refusal path for each.  A request parks in its redirector's
        ParkedRequests while its client's pool has room and is dropped
        otherwise, so of each client's refusals the first ``room`` park."""
        ts, costs, _, cl, _ = chunk
        clients = self.clients_by_code
        counts = np.bincount(cl)
        keep = []
        for code in np.flatnonzero(counts).tolist():
            cli = clients[code]
            n = int(counts[code])
            k = min(n, cli.max_retry_pool - cli.parked)
            cli.deferred += n
            cli.dropped += n - k
            if k:
                keep.append(np.flatnonzero(cl == code)[:k])
        if not keep:
            return
        sel = keep[0] if len(keep) == 1 else np.sort(np.concatenate(keep))
        for t, code, cost in zip(
            ts[sel].tolist(), cl[sel].tolist(),
            costs[sel].tolist() if costs is not None else itertools.repeat(1.0),
        ):
            cli = clients[code]
            cli.parked += 1
            cli.redirector.park(cli, _Pending(cli.principal, cost, t, code))

    def _pump(self) -> None:
        now = self.sim.now
        length = self.window.length
        last = self.horizon is not None and now + length > self.horizon
        self._advance(now, closed=False, last=last)
        self.sim.schedule(length, self._pump)

    def flush(self, until: float) -> None:
        """Advance the final partial window and serve and commit every
        lane's queue.

        Boundaries accumulate as ``fl(b + W)`` and drift above exact
        multiples, so the last pump usually lies *beyond* the run horizon;
        the slotted lane still processes arrivals (and completions) up to
        and including ``until`` as individual events.  Idempotent per
        horizon.
        """
        if self._flushed_to == until:
            return
        self._flushed_to = until
        self._advance(until, closed=True, last=True)

    def _advance(self, hi: float, closed: bool, last: bool) -> None:
        for group in self._groups:
            group.advance(hi, closed)
        lanes = self._lanes.values()
        self._pumps.append(hi)
        drain = last or sum(ln.backlog for ln in lanes) >= _DRAIN_BLOCK
        for lane in lanes:
            lane.advance(hi, drain)
        if drain:
            self._fold_responses()
        self._roll_ticks()

    def _fold_responses(self) -> None:
        """Count the completions the lanes just committed at their clients
        and fold their response times into the clients' stats, in the order
        per-window commits produce: by the first commit instant at or after
        the completion, then by lane, then in service order.  The stats'
        moments and reservoir depend on that order, so it must not depend
        on when the lanes drained."""
        done, self._done = self._done, []
        pumps, self._pumps = self._pumps, []
        if not done:
            return
        if len(done) == 1:
            fin, created, cl = done[0]
            rt = fin - created
        else:
            fin, created, cl = (np.concatenate([d[i] for d in done])
                                for i in range(3))
            order = np.argsort(np.searchsorted(pumps, fin), kind="stable")
            rt, cl = (fin - created)[order], cl[order]
        clients = self.clients_by_code
        counts = np.bincount(cl)
        codes = np.flatnonzero(counts).tolist()
        for code in codes:
            cli = clients[code]
            cli.completed += int(counts[code])
            cli.response_stats.update_many(
                rt if len(codes) == 1 else rt[cl == code])

    # -- equal-time order ----------------------------------------------------

    def gather(
        self, clients: List[ColumnarClient], hi: float, closed: bool,
    ) -> Optional[tuple]:
        """Every arrival of ``clients`` before ``hi`` (``take_until``), as
        one chunk in firing order, counted as issued; None when there is
        none.  Each client's arrivals are its own chunk, all of them ticks
        (``created`` is the arrival time)."""
        chunks = []
        for c in clients:
            t, cost = c.take_until(hi, closed)
            n = t.shape[0]
            if n:
                c.issued += n
                self.requests += n
                chunks.append((t, cost, t, np.full(n, c._code, dtype=np.int64),
                               np.full(n, c._pcode, dtype=np.int64)))
        return self.merge(chunks) if chunks else None

    def merge(self, chunks: List[tuple]) -> tuple:
        """One chunk in the engine's firing order from ``chunks``, each a
        column tuple ``(ts, costs, created, cl, pr)`` already in event
        order (costs None: all 1).  The one place equal-time order is
        decided: a stable sort on time, then :meth:`tie_order` over runs of
        equal times, with an entry a tick of its client when it was created
        at its own time (arrivals, not L4 releases)."""
        if len(chunks) == 1:
            return chunks[0]
        ts, costs, created, cl, pr = _concat(chunks)
        order = np.argsort(ts, kind="stable")
        st = ts[order]
        if bool(np.any(st[1:] == st[:-1])):
            src = np.repeat(np.arange(len(chunks)),
                            [c[0].shape[0] for c in chunks])
            fix = self.tie_order(st, cl[order], src[order], created[order] == st)
            if fix is not None:
                order = order[fix]
        return _select((ts, costs, created, cl, pr), order)

    def fires_first(self, c: int, d: int, t: float) -> bool:
        """Whether client ``c``'s tick at ``t`` fires before client ``d``'s,
        both fired by the current take, in the event lanes' order.

        The engine breaks equal-time ties by scheduling order, and a client
        schedules each tick from its previous one (an idle tick re-arms at
        the next segment start; the first tick is scheduled at
        construction).  So of two ticks at ``t`` the one whose previous tick
        fired earlier goes first, recursively: walk both chains back to the
        latest instant at which they differ, or to the ticks fired before
        this take, ordered by ``(_last, _rank)``.
        """
        a = self.clients_by_code[c]
        b = self.clients_by_code[d]
        fa, fb = a._fired, b._fired
        i = int(np.searchsorted(fa, t))
        j = int(np.searchsorted(fb, t))
        m = min(i, j)
        if m:
            pa, pb = fa[i - m:i], fb[j - m:j]
            diff = np.flatnonzero(pa != pb)
            if diff.shape[0]:
                k = int(diff[-1])
                return bool(pa[k] < pb[k])
        if i != j:
            # One chain reaches a tick fired before this take, older than
            # any tick of the other chain's that it is compared with.
            return i < j
        if a._last != b._last:
            return a._last < b._last
        return a._rank < b._rank

    def tie_order(
        self, ts: np.ndarray, cl: np.ndarray, src: np.ndarray, tick: np.ndarray,
    ) -> Optional[np.ndarray]:
        """Permutation of ``ts`` (sorted, stably, with at least one run of
        equal times) putting each run in firing order, or None when no run
        spans two sources.

        Entries of one source (``src``: the chunk) keep their relative
        order.  Two clients' ticks are ordered by :meth:`fires_first`; an
        entry that is not its client's tick (``tick`` False: an L4 release)
        falls back to client-code order.
        """
        same = ts[1:] == ts[:-1]
        perm = np.arange(ts.shape[0])
        changed = False
        for lo, hi in _runs(np.flatnonzero(same).tolist()):
            if not bool(np.any(src[lo:hi + 1] != src[lo])):
                continue
            t = float(ts[lo])

            def before(x: int, y: int, t: float = t) -> int:
                if src[x] == src[y]:
                    return x - y
                if tick[x] and tick[y]:
                    return -1 if self.fires_first(int(cl[x]), int(cl[y]), t) else 1
                return int(cl[x] - cl[y]) or x - y

            run = sorted(range(lo, hi + 1), key=cmp_to_key(before))
            perm[lo:hi + 1] = run
            changed = True
        return perm if changed else None

    def _roll_ticks(self) -> None:
        """Carry each client's firing-order state past this window: its last
        fired tick, and its rank among the clients whose last tick fired at
        the same instant."""
        tied: Dict[float, List[ColumnarClient]] = {}
        for cli in self.clients_by_code:
            if cli._fired.shape[0]:
                tied.setdefault(float(cli._fired[-1]), []).append(cli)
        # Groups are disjoint, and fires_first reads only the state of the
        # two clients it compares, so each group can be ranked and rolled
        # in turn.
        for t, group in tied.items():
            if len(group) > 1:
                group.sort(key=cmp_to_key(
                    lambda x, y, t=t:
                        -1 if self.fires_first(x._code, y._code, t) else 1))
            for r, cli in enumerate(group):
                cli._last, cli._rank, cli._fired = t, r, _EMPTY
