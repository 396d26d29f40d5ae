"""Unit tests of the columnar lane's pieces.

The three-lane digest parity lives in
``tests/integration/test_columnar_lane_ab.py``; this file pins what the
digests do not: the one property ``ColumnarClient.take_until`` promises on
its own (the window boundaries it is called with, the refill block size and
the length of the gap prefix it scans are all unobservable), the
response-time statistics, which no digest hashes, the event-order merge
every gather and server drain goes through, and the server drain against
the scalar recurrence it replaces, bit for bit.
"""

import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.cluster.columnar as columnar
from repro.cluster.client import START_SKEW
from repro.cluster.columnar import ColumnarClient, ColumnarEngine, _ServerLane
from repro.scheduling.window import WindowConfig
from repro.sim.engine import Simulator
from repro.sim.monitor import RateMeter

RATE = 100.0
WINDOW = 0.1
HORIZON = 3.0
# The first segment ends inside the window [0.5, 0.6); the second starts
# mid-window too, so one take crosses a segment end and an inactive gap.
SEGMENTS = [(0.0, 0.537), (0.91, HORIZON + 1.0)]


def _client(arrivals, jitter, batch, rate=RATE, segments=SEGMENTS):
    return ColumnarClient(
        None, "c", "A", None, rate, rng=np.random.default_rng(11),
        active_windows=segments, arrivals=arrivals, jitter=jitter,
        batch=batch, max_retry_pool=0,
    )


def _per_window(client, window=WINDOW, horizon=HORIZON):
    parts = []
    hi = window
    while hi < horizon:
        parts.append(client.take_until(hi)[0])
        hi += window
    parts.append(client.take_until(horizon, closed=True)[0])
    return parts


@pytest.mark.parametrize("batch", [1, 7, 65536])
@pytest.mark.parametrize("arrivals,jitter", [
    ("uniform", 0.0), ("uniform", 0.4), ("poisson", 0.0),
], ids=["uniform", "jitter", "poisson"])
def test_per_window_takes_equal_whole_phase_take(arrivals, jitter, batch):
    whole, _ = _client(arrivals, jitter, 65536).take_until(HORIZON, closed=True)
    parts = _per_window(_client(arrivals, jitter, batch))
    np.testing.assert_array_equal(np.concatenate(parts), whole)
    # ~10 arrivals per window: batch 1 and 7 refill inside every window.
    assert max(p.shape[0] for p in parts) > 7
    # Nothing is emitted outside the active segments.
    assert not np.any((whole >= SEGMENTS[0][1]) & (whole < SEGMENTS[1][0]))
    # Evenly spaced clients start at their seed-drawn skew, the others at 0.
    assert (0.0 < whole[0] < START_SKEW if (arrivals, jitter) == ("uniform", 0.0)
            else whole[0] == 0.0) and whole[-1] <= HORIZON


def test_take_matches_scalar_gap_chain():
    # The reference recurrence the cumsum chain stands for: t <- fl(t + gap),
    # one draw per emitted arrival, jumps to the next segment draw-free.
    c = _client("uniform", 0.4, 7)
    ref_rng = np.random.default_rng(11).spawn(3)[2]  # the gap substream
    spacing = 1.0 / RATE
    t, ref = 0.0, []
    while t is not None and t <= HORIZON:
        ref.append(t)
        t = t + spacing * (1.0 + ref_rng.uniform(-0.4, 0.4))
        if not c.is_active(t):
            t = c._next_segment_start(t)
    got = np.concatenate(_per_window(c))
    np.testing.assert_array_equal(got, np.asarray(ref))


def test_poisson_prefix_underestimate_continues_the_chain():
    # Poisson gaps have no lower bound, so the scanned prefix is a guess
    # (twice the expected count, +2): at 2 expected arrivals per window a
    # window with 6 or more outruns it (~1.7 % of windows, dozens here) and
    # the take must carry on from the end of the short prefix.
    rate, horizon = 20.0, 200.0

    def client():
        return _client("poisson", 0.0, 65536, rate, segments=None)

    whole, _ = client().take_until(horizon, closed=True)
    parts = _per_window(client(), horizon=horizon)
    assert sum(p.shape[0] >= 6 for p in parts) >= 10
    np.testing.assert_array_equal(np.concatenate(parts), whole)


def test_response_stats_match_the_slotted_lane():
    # fig6 has one server, so each client's completions reach its
    # StreamingStats in the same order on both lanes — one `add` per request
    # on the slotted lane, one `update_many` per window on the columnar one.
    # (With several servers the columnar lane commits per server, the order
    # differs, and only count / min / max are comparable.)
    from repro.experiments.figures import fig6_world

    runs = {
        lane: fig6_world(0.05, 0).scenario(lane)
        for lane in ("slotted", "columnar")
    }
    assert runs["columnar"].lane == "columnar"
    for name, cli in runs["columnar"].clients.items():
        col, ref = cli.response_stats, runs["slotted"].clients[name].response_stats
        assert col.count == ref.count > 1000
        assert (col.mean, col.variance) == (ref.mean, ref.variance), name
        assert (col.min, col.max) == (ref.min, ref.max), name
        assert col.samples == ref.samples, name


# -- the event-order merge -------------------------------------------------


@st.composite
def chunk_lists(draw):
    """1-6 chunks ``(ts, costs, created, cl, pr)``, each ascending in time,
    costs sometimes None, no time shared by two chunks (ties within one
    chunk allowed).  ``cl`` is the chunk index, ``pr`` the entry's index
    in the concatenation."""
    k = draw(st.integers(1, 6))
    times = draw(st.lists(st.floats(0.0, 1e3), min_size=k, max_size=40,
                          unique=True))
    owner = list(range(k)) + draw(st.lists(
        st.integers(0, k - 1), min_size=len(times) - k,
        max_size=len(times) - k))
    reps = draw(st.lists(st.integers(1, 3), min_size=len(times),
                         max_size=len(times)))
    chunks, n = [], 0
    for j in range(k):
        ts = np.sort(np.repeat(
            [t for t, o in zip(times, owner) if o == j],
            [r for r, o in zip(reps, owner) if o == j]))
        m = ts.shape[0]
        costs = None if draw(st.booleans()) else np.asarray(
            draw(st.lists(st.integers(1, 8), min_size=m, max_size=m)),
            dtype=float)
        created = ts - draw(st.sampled_from([0.0, 0.5]))
        chunks.append((ts, costs, created, np.full(m, j, dtype=np.int64),
                       np.arange(n, n + m, dtype=np.int64)))
        n += m
    return chunks


@given(chunk_lists())
@settings(max_examples=300, deadline=None)
def test_merge_is_the_stable_time_merge(chunks):
    engine = ColumnarEngine(Simulator(), WindowConfig(), RateMeter())
    out = engine.merge(chunks)
    if len(chunks) == 1:
        assert out is chunks[0]
    ts, costs, created, cl, pr = out
    # A permutation of the input, sorted by time, each chunk in order.
    assert sorted(pr.tolist()) == list(range(sum(c[0].shape[0] for c in chunks)))
    assert bool(np.all(ts[1:] >= ts[:-1]))
    for j in range(len(chunks)):
        mine = pr[cl == j]
        assert bool(np.all(mine[1:] > mine[:-1]))
    # Every column is the stable argsort merge.
    cat = [np.concatenate([c[i] for c in chunks]) for i in (0, 2, 3, 4)]
    order = np.argsort(cat[0], kind="stable")
    for got, want in zip((ts, created, cl, pr), cat):
        assert np.array_equal(got, want[order])
    if all(c[1] is None for c in chunks):
        assert costs is None
    else:
        want = np.concatenate([
            np.ones(c[0].shape[0]) if c[1] is None else c[1] for c in chunks])
        assert np.array_equal(costs, want[order])


# -- the server drain ------------------------------------------------------


def _scalar_drain(ts, sv, f_prev):
    """The FIFO server recurrence as the drain ran it before it was
    vectorised, kept verbatim as the oracle."""
    n = ts.shape[0]
    tl = ts.tolist()
    svl = sv.tolist()
    starts = []
    fins = []
    f = f_prev
    ap_s = starts.append
    ap_f = fins.append
    for i in range(n):
        a = tl[i]
        s0 = a if a > f else f
        ap_s(s0)
        f = s0 + svl[i]
        ap_f(f)
    return np.asarray(fins), np.asarray(starts)


# How each arrival is placed relative to the request before it (a_prev) and
# the exact completion time of everything before it (f):
#   idle   after the server drained: max(a_prev, f) + 0.1 to 3 services
#   busy   a_prev + 0 to 0.9 services (usually still queued)
#   tie    exactly f, the scalar loop's `a > f` boundary
#   below  1-4 ulps before f
#   above  1-4 ulps after f
KINDS = ("idle", "busy", "tie", "below", "above")


def _place(kind, a_prev, f, s, u):
    if kind == "idle":
        return max(a_prev, f) + (0.1 + 2.9 * u) * s
    if kind == "busy":
        return a_prev + 0.9 * u * s
    a = f
    step = -np.inf if kind == "below" else np.inf
    for _ in range(0 if kind == "tie" else 1 + int(4 * u)):
        a = np.nextafter(a, step)
    return max(a_prev, float(a))


@st.composite
def batches(draw):
    """(arrival times, costs or None, capacity, free_at): runs of one
    placement kind each, long enough to build busy periods past the
    lock-step depth, at offsets where sums round."""
    capacity = draw(st.sampled_from([1.0, 3.0, 7.0, 320.0, 32_000.0]))
    offset = draw(st.sampled_from([0.0, 0.1, 1234.5678, 1e6 + 0.1]))
    runs = draw(st.lists(
        st.tuples(st.sampled_from(KINDS), st.integers(1, 40)),
        min_size=1, max_size=10))
    n = sum(m for _, m in runs)
    unit = draw(st.booleans())
    costs = None if unit else np.asarray(
        draw(st.lists(st.integers(1, 8), min_size=n, max_size=n)), dtype=float)
    sv = np.full(n, 1.0 / capacity) if costs is None else costs / capacity
    # free_at: none yet, behind the first arrival, or ahead of it by up to
    # a few hundred services (a saturated start).
    lag = draw(st.sampled_from([None, -5.0, -0.5, 0.0, 0.5, 5.0, 300.0]))
    free_at = -np.inf if lag is None else offset + lag * float(sv[0])
    u = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random(n)
    ts = np.empty(n)
    a_prev, f, i = offset, free_at, 0
    for kind, m in runs:
        for _ in range(m):
            a = _place(kind, a_prev, f, float(sv[i]), float(u[i]))
            ts[i] = a_prev = a
            f = (a if a > f else f) + float(sv[i])
            i += 1
    return ts, costs, capacity, free_at


def _lane(capacity, free_at):
    lane = _ServerLane(None, types.SimpleNamespace(name="S", capacity=capacity))
    lane.free_at = free_at
    return lane


def _drain_all(lane, ts, costs, cuts=()):
    codes = np.zeros(ts.shape[0], dtype=np.int64)
    bounds = [0, *cuts, ts.shape[0]]
    for lo, hi in zip(bounds, bounds[1:]):
        if hi > lo:
            lane._drain(ts[lo:hi], None if costs is None else costs[lo:hi],
                        ts[lo:hi], codes[lo:hi], codes[lo:hi])


def _assert_scalar_exact(ts, costs, capacity, free_at, cuts=()):
    lane = _lane(capacity, free_at)
    _drain_all(lane, ts, costs, cuts)
    sv = (np.full(ts.shape[0], 1.0 / capacity) if costs is None
          else costs / capacity)
    F, S = _scalar_drain(ts, sv, free_at)
    assert lane._pf.tobytes() == F.tobytes()
    assert lane._ps.tobytes() == S.tobytes()
    assert lane.free_at.hex() == float(F[-1]).hex()


@given(batches(), st.integers(0, 400))
@settings(max_examples=300, deadline=None)
def test_drain_equals_scalar_recurrence(batch, cut):
    ts, costs, capacity, free_at = batch
    _assert_scalar_exact(ts, costs, capacity, free_at)
    # Split in two drains: free_at carries the recurrence across them.
    _assert_scalar_exact(ts, costs, capacity, free_at,
                         cuts=(min(cut, ts.shape[0]),))


def _batch(kinds, capacity=3.0, offset=1e6 + 0.1, free_at=-np.inf, seed=0):
    """A deterministic batch from ``(kind, count)`` runs (see KINDS)."""
    n = sum(m for _, m in kinds)
    costs = np.random.default_rng(seed).integers(1, 9, n).astype(float)
    u = np.random.default_rng(seed + 1).random(n)
    ts = np.empty(n)
    a_prev, f, i = offset, free_at, 0
    for kind, m in kinds:
        for _ in range(m):
            s = costs[i] / capacity
            ts[i] = a_prev = _place(kind, a_prev, f, s, float(u[i]))
            f = (ts[i] if ts[i] > f else f) + s
            i += 1
    return ts, costs


@pytest.mark.parametrize("kinds,free_lag,path", [
    ([("idle", 100)], -1.0, "idle"),
    ([("busy", 100)], 500.0, "saturated"),
    ([("idle", 3), ("busy", 20)] * 5, 0.0, "busy"),
    ([("busy", 60), ("tie", 10), ("idle", 2), ("busy", 30)], 2.0, "busy"),
    ([("idle", 10), ("busy", 30)], 0.0, "scalar"),  # mixed, < _BUSY_MIN
], ids=["idle", "saturated", "mixed", "mixed-ties-ahead", "mixed-small"])
def test_drain_paths_are_exact(kinds, free_lag, path, monkeypatch):
    passes = []
    busy_pass = columnar._busy_pass

    def spy(a, s, f):
        passes.append(a.shape[0])
        return busy_pass(a, s, f)

    monkeypatch.setattr(columnar, "_busy_pass", spy)
    offset = 1e6 + 0.1
    ts, costs = _batch(kinds, offset=offset, free_at=offset + free_lag)
    _assert_scalar_exact(ts, costs, 3.0, offset + free_lag)
    assert bool(passes) == (path == "busy")
    if path == "busy":
        # The batch holds busy periods longer than the lock-step replays.
        F, _ = _scalar_drain(ts, costs / 3.0, offset + free_lag)
        starts = np.flatnonzero(ts >= np.concatenate(([offset + free_lag], F[:-1])))
        assert np.diff(np.append(starts, ts.shape[0])).max() > columnar._LOCKSTEP + 1


def test_busy_pass_restarts_where_its_guess_fails(monkeypatch):
    # One long busy period at an offset where the max-plus guess and the
    # sequential adds round apart; request 70 arrives a few ulps either side
    # of the exact completion before it, so for some of these the guess
    # misplaces a busy-period start and the drain must restart from the
    # last exact value.
    restarts = []
    busy_pass = columnar._busy_pass

    def spy(a, s, f):
        F, S, k = busy_pass(a, s, f)
        if k < a.shape[0]:
            restarts.append(k)
        return F, S, k

    monkeypatch.setattr(columnar, "_busy_pass", spy)
    for kind in ("tie", "below", "above"):
        for seed in range(6):
            ts, costs = _batch([("busy", 70), (kind, 1), ("busy", 29)], seed=seed)
            _assert_scalar_exact(ts, costs, 3.0, -np.inf)
    assert restarts and set(restarts) == {70}
