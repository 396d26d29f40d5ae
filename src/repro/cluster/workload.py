"""WebBench-like request mixes.

The paper's WebBench configuration "produces static and dynamic web page
requests with an average reply size of 6 KB (individual responses range
from 200 bytes to 500 KB)".  :class:`ReplySizeSampler` reproduces that
marginal with a clipped lognormal calibrated so the post-clipping mean
stays at the target; :class:`RequestMix` adds the static/dynamic split and
optional per-unit cost accounting for large requests.

:class:`WorkloadStream` is how clients sample a mix: it
pre-draws reply sizes, static/dynamic flags, costs, and arrival gaps in
numpy blocks instead of paying scalar ``rng.lognormal``/``rng.random``
calls per request.  Determinism contract: the stream spawns one dedicated
child generator per field from the client's RNG (spawning does not advance
the parent stream), and each field is consumed strictly in draw order —
numpy generators produce identical sequences whether sampled one value at
a time or in blocks, so the emitted request stream is **invariant to the
chunk size by construction** (asserted for chunks 1/256/4096 in
``tests/cluster/test_workload.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

__all__ = ["ReplySizeSampler", "RequestMix", "WorkloadStream"]


class ReplySizeSampler:
    """Clipped lognormal reply sizes (defaults: 200 B – 500 KB, mean 6 KB).

    The lognormal ``mu`` is solved numerically so the *clipped* mean hits
    the target — naive moment matching then clipping at 500 KB would bias
    the mean low.
    """

    def __init__(
        self,
        mean_bytes: float = 6144.0,
        min_bytes: int = 200,
        max_bytes: int = 512_000,
        sigma: float = 1.2,
    ):
        if not (0 < min_bytes < mean_bytes < max_bytes):
            raise ValueError("need 0 < min < mean < max")
        self.mean_bytes = float(mean_bytes)
        self.min_bytes = int(min_bytes)
        self.max_bytes = int(max_bytes)
        self.sigma = float(sigma)
        self.mu = self._calibrate_mu()

    def _clipped_mean(self, mu: float) -> float:
        """E[clip(X, lo, hi)] for X ~ LogNormal(mu, sigma) in closed form."""
        from math import erf, exp, log, sqrt

        s = self.sigma
        lo, hi = math.log(self.min_bytes), math.log(self.max_bytes)

        def phi(z: float) -> float:
            return 0.5 * (1.0 + erf(z / sqrt(2.0)))

        a = (lo - mu) / s
        b = (hi - mu) / s
        # mass below lo contributes lo; above hi contributes hi; middle is a
        # truncated lognormal mean.
        mid = exp(mu + s * s / 2.0) * (phi(b - s) - phi(a - s))
        return self.min_bytes * phi(a) + mid + self.max_bytes * (1.0 - phi(b))

    def _calibrate_mu(self) -> float:
        lo, hi = math.log(self.min_bytes), math.log(self.max_bytes)
        for _ in range(80):  # bisection; the clipped mean is monotone in mu
            mid = 0.5 * (lo + hi)
            if self._clipped_mean(mid) < self.mean_bytes:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        raw = rng.lognormal(mean=self.mu, sigma=self.sigma, size=size)
        return np.clip(raw, self.min_bytes, self.max_bytes).astype(int)


@dataclass(frozen=True)
class RequestMix:
    """Static/dynamic request mix with size-proportional cost accounting.

    ``dynamic_fraction`` of requests are dynamic pages (the paper's
    WebBench mix includes both).  When ``size_cost`` is set, a request's
    scheduling cost is ``max(1, size / unit_bytes)`` rounded — the paper's
    "large requests are treated as multiple small ones".  ``unit_bytes``
    is the *system-wide* average request size defining one scheduling unit
    (the paper's 6 KB); it defaults to this mix's own mean, which is only
    right when every principal sends the same mix.
    """

    dynamic_fraction: float = 0.2
    size_cost: bool = False
    sampler: ReplySizeSampler = ReplySizeSampler()
    unit_bytes: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.dynamic_fraction <= 1.0:
            raise ValueError("dynamic_fraction must be in [0, 1]")
        if self.unit_bytes is not None and self.unit_bytes <= 0:
            raise ValueError("unit_bytes must be positive")


_STATIC_URL = "/static/page"
_DYNAMIC_URL = "/cgi/page"


class WorkloadStream:
    """Chunked pre-drawn request fields over a :class:`RequestMix`.

    Args:
        mix: the request mix to sample.
        rng: the owning client's generator.  Three child streams (sizes,
            static/dynamic flags, arrival gaps) are spawned from it —
            spawning never advances the parent, so the client keeps using
            ``rng`` for retry jitter etc. without perturbing the workload.
        chunk: block size for the vectorised draws.  Any value produces
            the identical request stream (see module docstring); larger
            chunks just amortise the numpy call overhead further.
        rate: requests/second for arrival-gap generation; ``None`` when
            the caller does not consume gaps (closed-loop clients).
        arrivals: ``"uniform"`` (fixed/jittered spacing) or ``"poisson"``.
        jitter: relative uniform jitter on the fixed spacing.

    Sizes are clipped into ``[min_bytes, max_bytes]`` by the sampler and
    costs are ``>= 1`` by construction, so the
    :class:`repro.cluster.request.Request` constructor's checks never
    fire on streamed fields.
    """

    __slots__ = (
        "mix", "chunk", "arrivals", "spacing", "jitter",
        "_size_rng", "_flag_rng", "_gap_rng",
        "_urls", "_sizes", "_costs", "_gaps", "_i", "_n", "_unit",
    )

    def __init__(
        self,
        mix: RequestMix,
        rng: np.random.Generator,
        chunk: int = 1024,
        rate: Optional[float] = None,
        arrivals: str = "uniform",
        jitter: float = 0.0,
    ):
        if chunk < 1:
            raise ValueError("chunk must be >= 1")
        if arrivals not in ("uniform", "poisson"):
            raise ValueError(f"unknown arrival process {arrivals!r}")
        if rate is not None and rate <= 0:
            raise ValueError("rate must be positive")
        self.mix = mix
        self.chunk = int(chunk)
        self.arrivals = arrivals
        self.spacing = (1.0 / float(rate)) if rate is not None else None
        self.jitter = float(jitter)
        self._size_rng, self._flag_rng, self._gap_rng = rng.spawn(3)
        self._unit = (
            (mix.unit_bytes or mix.sampler.mean_bytes) if mix.size_cost else None
        )
        self._i = 0
        self._n = 0
        self._urls: list = []
        self._sizes: list = []
        self._costs: Optional[list] = None
        self._gaps: Optional[list] = None

    def _refill(self) -> None:
        n = self.chunk
        mix = self.mix
        sizes = mix.sampler.sample(self._size_rng, size=n)
        dynamic = self._flag_rng.random(n) < mix.dynamic_fraction
        self._urls = [_DYNAMIC_URL if d else _STATIC_URL for d in dynamic.tolist()]
        self._sizes = sizes.tolist()
        if self._unit is not None:
            self._costs = np.maximum(1.0, np.round(sizes / self._unit)).tolist()
        else:
            self._costs = None
        if self.spacing is None:
            self._gaps = None
        elif self.arrivals == "poisson":
            self._gaps = self._gap_rng.exponential(self.spacing, size=n).tolist()
        elif self.jitter > 0:
            j = self.jitter
            factors = 1.0 + self._gap_rng.uniform(-j, j, size=n)
            self._gaps = (self.spacing * factors).tolist()
        else:
            self._gaps = [self.spacing] * n
        self._i = 0
        self._n = n

    def draw_next(self) -> Tuple[str, int, float, Optional[float]]:
        """(url, size_bytes, cost, arrival_gap) for the next request.

        ``arrival_gap`` is None when the stream was built without a rate.
        """
        i = self._i
        if i == self._n:
            self._refill()
            i = 0
        self._i = i + 1
        cost = self._costs[i] if self._costs is not None else 1.0
        gap = self._gaps[i] if self._gaps is not None else None
        return self._urls[i], self._sizes[i], cost, gap
