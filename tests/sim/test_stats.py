import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hs

from repro.sim.stats import _BLOCK, StreamingStats


class TestMoments:
    def test_matches_numpy(self):
        rng = np.random.default_rng(0)
        xs = rng.lognormal(0.0, 1.5, size=5000)
        st = StreamingStats(reservoir=0)
        for x in xs:
            st.add(float(x))
        assert st.count == 5000
        assert st.mean == pytest.approx(xs.mean(), rel=1e-12)
        assert st.variance == pytest.approx(xs.var(ddof=1), rel=1e-9)
        assert st.std == pytest.approx(xs.std(ddof=1), rel=1e-9)
        assert st.min == xs.min()
        assert st.max == xs.max()

    def test_empty_and_single(self):
        st = StreamingStats()
        assert st.count == 0
        assert st.variance == 0.0
        st.add(3.0)
        assert st.mean == 3.0
        assert st.variance == 0.0

    def test_bad_reservoir(self):
        with pytest.raises(ValueError):
            StreamingStats(reservoir=-1)


class TestReservoir:
    def test_exact_under_capacity(self):
        st = StreamingStats(reservoir=100)
        xs = [float(i) for i in range(80)]
        for x in xs:
            st.add(x)
        assert st.samples == xs
        assert st.tail_values(20) == xs[20:]
        assert st.percentile(50) == pytest.approx(39.5)

    def test_bounded_beyond_capacity(self):
        st = StreamingStats(reservoir=64)
        for i in range(10_000):
            st.add(float(i))
        assert len(st.samples) == 64
        assert st.count == 10_000

    def test_reservoir_is_representative(self):
        # Uniform stream: the reservoir median should sit near the true
        # median, well within a tolerance that catches index-bias bugs.
        st = StreamingStats(reservoir=512, seed=9)
        for i in range(50_000):
            st.add(float(i))
        assert st.percentile(50) == pytest.approx(25_000, rel=0.15)

    def test_skip_ahead_inclusion_is_uniform(self):
        # Every position of the stream must be equally likely to survive:
        # over 240 seeds (crc32 of a name, as the clients seed theirs) a
        # cap-50 reservoir over 2,000 observations holds 5 samples per
        # decile per run, 1,200 per decile in all.  Membership within a run
        # is negatively correlated, so the spread is below binomial
        # (sd < 33); the 10 % tolerance is 3.6 sd and catches a sampler
        # that favours early or late positions.
        n, cap, runs = 2000, 50, 240
        per_decile = np.zeros(10)
        for r in range(runs):
            stats = StreamingStats(
                reservoir=cap, seed=zlib.crc32(f"client-{r}".encode())
            )
            stats.update_many(np.arange(n, dtype=float))
            assert len(stats.samples) == cap
            per_decile += np.bincount(
                (np.asarray(stats.samples) * 10 // n).astype(int), minlength=10
            )
        expected = runs * cap / 10
        assert per_decile.sum() == runs * cap
        assert np.all(np.abs(per_decile - expected) <= 0.10 * expected)

    def test_deterministic(self):
        def fill(seed):
            st = StreamingStats(reservoir=32, seed=seed)
            for i in range(1000):
                st.add(float(i))
            return st.samples

        assert fill(5) == fill(5)
        assert fill(5) != fill(6)

    def test_tail_values_after_replacement(self):
        st = StreamingStats(reservoir=16)
        for i in range(1000):
            st.add(float(i))
        # Every surviving sample knows its original index: trimming warm-up
        # keeps only late observations.
        assert all(v >= 500.0 for v in st.tail_values(500))

    def test_zero_reservoir_keeps_moments_only(self):
        st = StreamingStats(reservoir=0)
        for i in range(100):
            st.add(float(i))
        assert st.samples == []
        assert st.percentile(50) is None
        assert st.mean == pytest.approx(49.5)


class TestUpdateMany:
    def test_bitwise_equivalence_with_scalar_add(self):
        # The columnar lane's contract: update_many(xs) IS `for x: add(x)`,
        # down to the last float bit — moments, extrema, and the reservoir's
        # xorshift replacement stream all replay identically.
        rng = np.random.default_rng(3)
        xs = rng.lognormal(0.0, 1.0, size=4000)
        scalar = StreamingStats(reservoir=64, seed=7)
        for x in xs:
            scalar.add(float(x))
        batched = StreamingStats(reservoir=64, seed=7)
        batched.update_many(xs)
        assert batched.count == scalar.count
        assert batched.mean == scalar.mean
        assert batched.variance == scalar.variance
        assert batched.min == scalar.min
        assert batched.max == scalar.max
        assert batched.samples == scalar.samples

    def test_batch_split_invariance(self):
        rng = np.random.default_rng(4)
        xs = rng.exponential(2.0, size=3000)
        whole = StreamingStats(reservoir=32, seed=1)
        whole.update_many(xs)
        split = StreamingStats(reservoir=32, seed=1)
        for chunk in np.array_split(xs, 13):
            split.update_many(chunk)
        assert split.mean == whole.mean
        assert split.variance == whole.variance
        assert split.samples == whole.samples

    def test_batch_split_at_replacements(self):
        # Batches that start at, end at, or hold just one replacement index
        # (and runs of replacements split between batches) replay the
        # scalar reservoir exactly, slot order and indices included.
        xs = np.random.default_rng(6).exponential(2.0, size=3000)
        scalar = StreamingStats(reservoir=32, seed=3)
        replaced = []
        for i, x in enumerate(xs):
            if i >= 32 and i == scalar._next:
                replaced.append(i)
            scalar.add(float(x))
        assert len(replaced) > 50
        cuts = sorted({0, len(xs), *replaced[::2],
                       *(i + 1 for i in replaced[1::3])})
        split = StreamingStats(reservoir=32, seed=3)
        for lo, hi in zip(cuts, cuts[1:]):
            split.update_many(xs[lo:hi])
        assert split._sample_seq == scalar._sample_seq
        assert split.samples == scalar.samples
        assert (split.mean, split.variance) == (scalar.mean, scalar.variance)

    @settings(max_examples=60, deadline=None)
    @given(cap=hs.integers(1, 24), n=hs.integers(0, 700),
           cuts=hs.lists(hs.integers(0, 700), max_size=16),
           seed=hs.integers(1, 2**32 - 1))
    def test_any_batch_split_replays_scalar_add(self, cap, n, cuts, seed):
        xs = np.random.default_rng(seed).exponential(2.0, size=n)
        scalar = StreamingStats(reservoir=cap, seed=seed)
        for x in xs:
            scalar.add(float(x))
        split = StreamingStats(reservoir=cap, seed=seed)
        bounds = sorted({0, n, *(c for c in cuts if c <= n)})
        for lo, hi in zip(bounds, bounds[1:]):
            if hi - lo == 1:
                split.add(float(xs[lo]))
            else:
                split.update_many(xs[lo:hi])
        assert split._sample_seq == scalar._sample_seq
        assert split.samples == scalar.samples
        assert split.count == scalar.count
        assert (split.mean, split.variance) == (scalar.mean, scalar.variance)

    def test_interleaves_with_scalar_add(self):
        rng = np.random.default_rng(5)
        xs = rng.uniform(0.0, 9.0, size=500)
        a = StreamingStats(reservoir=16, seed=2)
        for x in xs:
            a.add(float(x))
        b = StreamingStats(reservoir=16, seed=2)
        b.update_many(xs[:200])
        for x in xs[200:300]:
            b.add(float(x))
        b.update_many(xs[300:])
        assert (b.count, b.mean, b.variance) == (a.count, a.mean, a.variance)
        assert b.samples == a.samples

    def test_empty_batch_noop(self):
        st = StreamingStats()
        st.update_many([])
        assert st.count == 0

    def test_reads_between_batches_change_nothing(self):
        # mean / variance / percentile merge the open block on the fly;
        # reading them mid-block must leave every later value untouched.
        rng = np.random.default_rng(6)
        xs = rng.lognormal(0.0, 1.0, size=3 * _BLOCK + 17)
        quiet = StreamingStats(reservoir=64, seed=3)
        read = StreamingStats(reservoir=64, seed=3)
        seen = []
        for chunk in np.array_split(xs, 11):
            quiet.update_many(chunk)
            read.update_many(chunk)
            seen.append((read.mean, read.variance, read.std, read.percentile(90)))
            assert seen[-1][:2] == (read.mean, read.variance)  # idempotent
        assert (read.count, read.mean, read.variance) == (
            quiet.count, quiet.mean, quiet.variance
        )
        assert read.samples == quiet.samples
        assert read.mean == pytest.approx(xs.mean(), rel=1e-12)
        assert read.variance == pytest.approx(xs.var(ddof=1), rel=1e-9)


# Batch sizes straddling the block size, the empty batch, and small ones.
_SIZES = hs.sampled_from(
    [0, 1, 2, 5, 37, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1]
)


class TestBatchSplitInvariance:
    """`add` and `update_many` fill the same index-aligned blocks, so any
    interleaving of the two over one observation sequence must agree on
    every observable, bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(
        ops=hs.lists(hs.one_of(hs.just(None), _SIZES), min_size=1, max_size=12),
        cap=hs.sampled_from([0, 1, 16, 300]),
        seed=hs.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_any_interleaving_matches_scalar_adds(self, ops, cap, seed):
        total = sum(1 if size is None else size for size in ops)
        xs = np.random.default_rng(seed).lognormal(0.0, 1.0, size=total)
        scalar = StreamingStats(reservoir=cap, seed=seed)
        for x in xs:
            scalar.add(float(x))
        mixed = StreamingStats(reservoir=cap, seed=seed)
        pos = 0
        for size in ops:
            if size is None:
                mixed.add(float(xs[pos]))
                pos += 1
            else:
                mixed.update_many(xs[pos:pos + size])
                pos += size
        assert mixed.count == scalar.count == total
        assert mixed.mean == scalar.mean
        assert mixed.variance == scalar.variance
        assert (mixed.min, mixed.max) == (scalar.min, scalar.max)
        assert mixed.samples == scalar.samples
        for skip in (0, total // 4, total):
            assert mixed.tail_values(skip) == scalar.tail_values(skip)
