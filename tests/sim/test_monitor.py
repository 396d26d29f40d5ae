import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.monitor import PhaseStats, RateMeter, TimeSeries, summarize_phases


class TestRateMeter:
    def test_series(self):
        m = RateMeter(1.0)
        for t in (0.1, 0.2, 1.5):
            m.record("A", t)
        times, rates = m.series("A")
        np.testing.assert_allclose(times, [0.5, 1.5])
        np.testing.assert_allclose(rates, [2.0, 1.0])

    def test_empty_series(self):
        times, rates = RateMeter().series("missing")
        assert times.size == 0 and rates.size == 0

    def test_gap_bins_are_zero(self):
        m = RateMeter(1.0)
        m.record("A", 0.5)
        m.record("A", 3.5)
        _, rates = m.series("A")
        np.testing.assert_allclose(rates, [1.0, 0.0, 0.0, 1.0])

    def test_total_and_mean_rate(self):
        m = RateMeter(0.5)
        for t in np.arange(0, 10, 0.1):
            m.record("A", float(t))
        assert m.total("A", 0, 10) == pytest.approx(100)
        assert m.mean_rate("A", 0.0, 10.0) == pytest.approx(10.0)

    def test_total_ignores_the_order_bins_were_created(self):
        # Two prorated edge bins and a whole one: added in creation order,
        # (2, 0, 1) would round differently from (0, 1, 2).
        first, later = RateMeter(1.0), RateMeter(1.0)
        for t, w in ((0.5, 1.0), (1.5, 1.0), (2.5, 10.0)):
            first.record("A", t, weight=w)
        for t, w in ((2.5, 10.0), (0.5, 1.0), (1.5, 1.0)):
            later.record("A", t, weight=w)
        assert later.total("A", 0.3, 2.7) == first.total("A", 0.3, 2.7)

    def test_weights(self):
        m = RateMeter(1.0)
        m.record("A", 0.2, weight=2.5)
        assert m.total("A") == pytest.approx(2.5)

    def test_bad_window(self):
        m = RateMeter(1.0)
        with pytest.raises(ValueError):
            m.mean_rate("A", 5.0, 5.0)

    def test_bad_bin_width(self):
        with pytest.raises(ValueError):
            RateMeter(0.0)

    def test_keys_sorted(self):
        m = RateMeter()
        m.record("z", 0.0)
        m.record("a", 0.0)
        assert m.keys == ["a", "z"]

    @given(st.lists(st.floats(min_value=0.0, max_value=100.0), max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_series_integral_equals_count(self, times):
        m = RateMeter(1.0)
        for t in times:
            m.record("k", t)
        _, rates = m.series("k")
        assert rates.sum() * 1.0 == pytest.approx(len(times))


class TestTimeSeries:
    def test_window_and_mean(self):
        ts = TimeSeries()
        for t in range(10):
            ts.record(float(t), float(t) * 2)
        np.testing.assert_allclose(ts.window(2.0, 5.0), [4.0, 6.0, 8.0])
        assert ts.mean(2.0, 5.0) == pytest.approx(6.0)

    def test_non_monotonic_rejected(self):
        ts = TimeSeries()
        ts.record(1.0, 0.0)
        with pytest.raises(ValueError):
            ts.record(0.5, 0.0)

    def test_empty_mean_is_nan(self):
        assert math.isnan(TimeSeries().mean(0.0, 1.0))

    def test_last_before(self):
        ts = TimeSeries()
        ts.record(1.0, 10.0)
        ts.record(2.0, 20.0)
        assert ts.last_before(1.5) == 10.0
        assert ts.last_before(0.5) is None
        assert ts.last_before(2.0) == 20.0

    def test_len_and_arrays(self):
        ts = TimeSeries()
        ts.record(0.0, 1.0)
        assert len(ts) == 1
        np.testing.assert_allclose(ts.times, [0.0])
        np.testing.assert_allclose(ts.values, [1.0])


class TestPhaseSummaries:
    def test_summarize_phases(self):
        m = RateMeter(1.0)
        for t in np.arange(0.0, 10.0, 0.5):   # 2/sec
            m.record("A", float(t))
        for t in np.arange(10.0, 20.0, 0.25):  # 4/sec
            m.record("A", float(t))
        stats = summarize_phases(m, [("p1", 0.0, 10.0), ("p2", 10.0, 20.0)])
        assert stats[0].rate("A") == pytest.approx(2.0)
        assert stats[1].rate("A") == pytest.approx(4.0)

    def test_settle_trims_transient(self):
        m = RateMeter(1.0)
        for t in np.arange(0.0, 2.0, 0.01):   # burst at phase start
            m.record("A", float(t))
        stats = summarize_phases(m, [("p", 0.0, 10.0)], settle=2.0)
        assert stats[0].rate("A") == pytest.approx(0.0)

    def test_missing_key_rate_zero(self):
        stats = PhaseStats("p", 0.0, 1.0)
        assert stats.rate("missing") == 0.0


class TestRecordMany:
    def test_parity_with_scalar_record(self):
        import numpy as np

        rng = np.random.default_rng(0)
        times = rng.uniform(0.0, 50.0, size=5000)
        scalar = RateMeter(bin_width=0.5)
        for t in times:
            scalar.record("A", float(t))
        batched = RateMeter(bin_width=0.5)
        batched.record_many("A", times)
        st, sv = scalar.series("A")
        bt, bv = batched.series("A")
        np.testing.assert_array_equal(st, bt)
        np.testing.assert_array_equal(sv, bv)
        assert scalar.total("A", 3.0, 17.5) == pytest.approx(
            batched.total("A", 3.0, 17.5)
        )

    def test_weight_and_accumulation(self):
        m = RateMeter(bin_width=1.0)
        m.record("A", 0.5)
        m.record_many("A", [0.1, 0.2, 1.5], weight=2.0)
        assert m.total("A", 0.0, 1.0) == pytest.approx(5.0)
        assert m.total("A", 1.0, 2.0) == pytest.approx(2.0)

    def test_per_element_weights_match_scalar(self):
        rng = np.random.default_rng(1)
        times = rng.uniform(0.0, 20.0, size=800)
        weights = rng.integers(1, 5, size=800).astype(float)
        scalar = RateMeter(bin_width=1.0)
        for t, w in zip(times, weights):
            scalar.record("A", float(t), weight=float(w))
        batched = RateMeter(bin_width=1.0)
        batched.record_many("A", times, weights=weights)
        st_, sv = scalar.series("A")
        bt, bv = batched.series("A")
        np.testing.assert_array_equal(st_, bt)
        np.testing.assert_array_equal(sv, bv)

    @pytest.mark.parametrize("times", [
        [3.10, 3.20, 3.49],          # inside one bin: the single-bin path
        [3.40, 3.49, 3.50, 3.70],    # straddles the 3.5 edge
        [3.5],                       # exactly on an edge (t == k * w)
        [3.0, 3.25, 3.4999999],      # from an edge up to just under the next
        [2.9999999, 3.0],            # the edge is the batch maximum
    ], ids=["one-bin", "straddle", "edge", "edge-first", "edge-last"])
    @pytest.mark.parametrize("kw", [
        {}, {"weight": 2.5}, {"weights": [3.0, 1.0, 4.0, 1.0]},
    ], ids=["count", "constant-weight", "integer-weights"])
    def test_single_bin_path_matches_scalar(self, times, kw):
        # The fast path must land every batch where scalar `record` does,
        # with the same totals bit for bit, on top of existing bin contents.
        w = kw.get("weights")
        if w is not None:
            kw = {"weights": w[:len(times)]}
        scalar = RateMeter(bin_width=0.5)
        batched = RateMeter(bin_width=0.5)
        for m in (scalar, batched):
            m.record("A", 3.3, weight=7.0)
        for i, t in enumerate(times):
            scalar.record(
                "A", t, weight=kw.get("weight", 1.0) if w is None else w[i]
            )
        batched.record_many("A", times, **kw)
        assert batched._bins == scalar._bins

    def test_all_zero_weights_create_no_bin(self):
        m = RateMeter(bin_width=1.0)
        m.record_many("A", [0.1, 0.2], weights=[0.0, 0.0])
        m.record_many("A", [0.1, 1.2], weights=[0.0, 0.0])
        assert m.series("A")[0].size == 0

    def test_weights_shape_mismatch(self):
        m = RateMeter(bin_width=1.0)
        with pytest.raises(ValueError):
            m.record_many("A", [0.1, 0.2], weights=[1.0])

    def test_empty_batch_noop(self):
        m = RateMeter(bin_width=1.0)
        m.record_many("A", [])
        assert m.keys == []
