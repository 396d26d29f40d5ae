import numpy as np
import pytest

from repro.cluster.workload import ReplySizeSampler, RequestMix, WorkloadStream


class TestReplySizeSampler:
    def test_paper_marginal(self):
        """Mean ~6 KB, range 200 B - 500 KB (paper §5)."""
        sampler = ReplySizeSampler()
        rng = np.random.default_rng(0)
        sizes = sampler.sample(rng, size=200_000)
        assert sizes.min() >= 200
        assert sizes.max() <= 512_000
        assert sizes.mean() == pytest.approx(6144.0, rel=0.05)

    def test_calibration_compensates_clipping(self):
        # Without calibration, naive mu = ln(mean) - s^2/2 then clipping
        # at 500 KB would bias the mean; the solved mu must land closer.
        sampler = ReplySizeSampler(mean_bytes=20_000.0, sigma=1.8)
        rng = np.random.default_rng(1)
        sizes = sampler.sample(rng, size=200_000)
        assert sizes.mean() == pytest.approx(20_000.0, rel=0.08)

    def test_single_sample(self):
        rng = np.random.default_rng(2)
        s = ReplySizeSampler().sample(rng)
        assert 200 <= int(s) <= 512_000

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            ReplySizeSampler(mean_bytes=100.0, min_bytes=200)

    def test_reproducible(self):
        a = ReplySizeSampler().sample(np.random.default_rng(3), size=10)
        b = ReplySizeSampler().sample(np.random.default_rng(3), size=10)
        np.testing.assert_array_equal(a, b)


class TestRequestMix:
    """A mix is sampled one request at a time: ``WorkloadStream(chunk=1)``."""

    def test_draw_fields(self):
        stream = WorkloadStream(
            RequestMix(dynamic_fraction=0.5), np.random.default_rng(0), chunk=1
        )
        url, size, cost, gap = stream.draw_next()
        assert url in ("/cgi/page", "/static/page")
        assert size >= 200
        assert cost == 1.0
        assert gap is None

    def test_dynamic_fraction_respected(self):
        stream = WorkloadStream(
            RequestMix(dynamic_fraction=0.3), np.random.default_rng(1), chunk=1
        )
        urls = [stream.draw_next()[0] for _ in range(5000)]
        frac = sum(u.startswith("/cgi") for u in urls) / len(urls)
        assert frac == pytest.approx(0.3, abs=0.03)

    def test_size_cost_mode(self):
        stream = WorkloadStream(
            RequestMix(size_cost=True), np.random.default_rng(2), chunk=1
        )
        costs = [stream.draw_next()[2] for _ in range(2000)]
        assert min(costs) >= 1.0
        assert max(costs) > 1.0  # big replies cost multiple units

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            RequestMix(dynamic_fraction=1.5)


class TestWorkloadStream:
    def _drain(self, chunk, n=5000, **kw):
        kw.setdefault("rate", 100.0)
        stream = WorkloadStream(
            RequestMix(dynamic_fraction=0.3, size_cost=True),
            np.random.default_rng(42), chunk=chunk, **kw,
        )
        return [stream.draw_next() for _ in range(n)]

    def test_chunk_size_invariance(self):
        """The emitted stream is identical for any chunk size — the
        determinism contract of the vectorised draws."""
        base = self._drain(1)
        assert self._drain(256) == base
        assert self._drain(4096) == base

    def test_chunk_invariance_poisson(self):
        base = self._drain(1, arrivals="poisson")
        assert self._drain(512, arrivals="poisson") == base

    def test_chunk_invariance_jittered(self):
        base = self._drain(1, jitter=0.3)
        assert self._drain(300, jitter=0.3) == base

    def test_spawn_does_not_touch_parent(self):
        rng = np.random.default_rng(5)
        before = np.random.default_rng(5).random(4)
        WorkloadStream(RequestMix(), rng)
        np.testing.assert_array_equal(rng.random(4), before)

    def test_clipped_mean_distribution(self):
        """Streamed sizes reproduce the paper marginal: mean ~6 KB within
        the 200 B - 500 KB clip range."""
        draws = self._drain(1024, n=200_000)
        sizes = np.array([d[1] for d in draws])
        assert sizes.min() >= 200
        assert sizes.max() <= 512_000
        assert sizes.mean() == pytest.approx(6144.0, rel=0.05)

    def test_dynamic_fraction(self):
        draws = self._drain(1024, n=20_000)
        frac = sum(d[0].startswith("/cgi") for d in draws) / len(draws)
        assert frac == pytest.approx(0.3, abs=0.02)

    def test_size_cost_matches_scalar_formula(self):
        """Vectorised costs equal the scalar formula max(1, round(size/unit))
        applied to the streamed sizes."""
        mix = RequestMix(size_cost=True)
        unit = mix.unit_bytes or mix.sampler.mean_bytes
        for url, size, cost, _gap in self._drain(128, n=5000):
            assert cost == max(1.0, round(size / unit))
            assert url in ("/cgi/page", "/static/page")

    def test_uniform_gaps_fixed_spacing(self):
        draws = self._drain(64, n=500, rate=50.0)
        assert all(d[3] == pytest.approx(0.02) for d in draws)

    def test_poisson_gap_mean(self):
        draws = self._drain(1024, n=100_000, rate=100.0, arrivals="poisson")
        gaps = np.array([d[3] for d in draws])
        assert gaps.mean() == pytest.approx(0.01, rel=0.02)

    def test_no_rate_no_gaps(self):
        draws = self._drain(16, n=50, rate=None)
        assert all(d[3] is None for d in draws)

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            WorkloadStream(RequestMix(), rng, chunk=0)
        with pytest.raises(ValueError):
            WorkloadStream(RequestMix(), rng, rate=-1.0)
        with pytest.raises(ValueError):
            WorkloadStream(RequestMix(), rng, arrivals="bursty")
