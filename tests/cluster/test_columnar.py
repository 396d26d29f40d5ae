"""Unit tests of the columnar lane's pieces.

The three-lane digest parity lives in
``tests/integration/test_columnar_lane_ab.py``; this file pins what the
digests do not: the one property ``ColumnarClient.take_until`` promises on
its own (the window boundaries it is called with, the refill block size and
the length of the gap prefix it scans are all unobservable), and the
response-time statistics, which no digest hashes.
"""

import numpy as np
import pytest

from repro.cluster.client import START_SKEW
from repro.cluster.columnar import ColumnarClient

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
    from repro.experiments.figures import fig6_scenario

    runs = {
        lane: fig6_scenario(duration_scale=0.05, seed=0, lane=lane)[0]
        for lane in ("slotted", "columnar")
    }
    assert runs["columnar"].lane == "columnar"
    for name, cli in runs["columnar"].clients.items():
        col, ref = cli.response_stats, runs["slotted"].clients[name].response_stats
        assert col.count == ref.count > 1000
        assert (col.mean, col.variance) == (ref.mean, ref.variance), name
        assert (col.min, col.max) == (ref.min, ref.max), name
        assert col.samples == ref.samples, name
