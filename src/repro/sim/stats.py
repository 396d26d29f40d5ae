"""Bounded streaming statistics.

Long scale runs complete millions of requests; keeping every response time
in a Python list (the previous ``ClientMachine.response_times``) grows
without bound and dominates memory at the benchmark tier.
:class:`StreamingStats` replaces it with bounded running moments (count,
mean, M2) plus an optional bounded reservoir for quantiles.

**Moments** are accumulated in fixed blocks of ``_BLOCK`` observations
*aligned to the global observation index*: every observation is copied into
one internal buffer; when the buffer fills, the block is reduced with numpy
(two-pass mean / squared deviations) and Chan-merged into the running
``(n, mean, M2)``.  The result is a function of the observation sequence
alone — where a batch begins or ends never enters the arithmetic — so
:meth:`StreamingStats.add` and :meth:`StreamingStats.update_many` agree bit
for bit under any batch split *by construction*.  Reading ``mean`` /
``variance`` mid-block merges the open block on the fly and stores nothing.

**The reservoir** is a skip-ahead sampler (Li's Algorithm L) on a
deterministic per-instance xorshift64 state, so runs are reproducible
without touching the simulation's named numpy substreams.  It draws once
per *replacement* — O(cap·log(N/cap)) draws for N observations — and
between replacements an observation costs one index compare.  While
``count`` is within the reservoir capacity the samples are simply *all*
observations in insertion order, so small runs report exact quantiles —
only beyond the cap do quantiles become reservoir estimates.
"""

from __future__ import annotations

from math import expm1, log
from typing import List, Optional, Tuple

import numpy as np

__all__ = ["StreamingStats"]

_MASK64 = (1 << 64) - 1
_BLOCK = 1024


class StreamingStats:
    """Running count/mean/M2 with an optional fixed-size sample reservoir.

    >>> st = StreamingStats(reservoir=8)
    >>> for x in (1.0, 2.0, 3.0):
    ...     st.add(x)
    >>> st.count, st.mean, st.std
    (3, 2.0, 1.0)
    """

    __slots__ = (
        "count", "min", "max", "_n", "_mean", "_m2", "_buf",
        "_cap", "_samples", "_sample_seq", "_state", "_logw", "_next", "_slot",
    )

    def __init__(self, reservoir: int = 4096, seed: int = 0x9E3779B9) -> None:
        if reservoir < 0:
            raise ValueError("reservoir must be >= 0")
        self.count = 0
        self.min = float("inf")
        self.max = float("-inf")
        # Moments of the closed blocks (``_n`` is a multiple of _BLOCK) and
        # the open block ``_buf[:count - _n]``.
        self._n = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._buf = np.empty(_BLOCK)
        self._cap = int(reservoir)
        self._samples: List[float] = []
        # Original observation index of each reservoir slot, so callers can
        # trim warm-up samples by insertion order even after replacements.
        self._sample_seq: List[int] = []
        # splitmix64 finaliser: nearby seeds start far apart in state space.
        z = (int(seed) + 0x9E3779B97F4A7C15) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        self._state = (z ^ (z >> 31)) or 1
        # Algorithm L state: log of the running threshold W and the index
        # of the next observation that replaces a slot.
        self._logw = 0.0
        self._next = self._cap - 1
        # Reservoir slot the next replacement overwrites, drawn ahead.
        self._slot = 0
        if self._cap:
            self._sample(0, None)

    def add(self, x: float) -> None:
        i = self.count
        self.count = i + 1
        k = i - self._n
        self._buf[k] = x
        if k == _BLOCK - 1:
            self._close_block()
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x
        if i < self._cap:
            self._samples.append(x)
            self._sample_seq.append(i)
        elif i == self._next:
            self._sample(i, (x,))

    def update_many(self, values) -> None:
        """Fold a batch of observations in — the columnar lane's bulk path.

        Bit-identical to ``for x in values: self.add(x)`` under any batch
        split: the batch is copied into the same index-aligned blocks
        ``add`` fills (each closed by the same numpy reduction), extrema are
        order-free, and the reservoir jumps straight from one replacement
        index to the next instead of visiting every observation.
        """
        vals = np.asarray(values, dtype=float).ravel()
        m = vals.shape[0]
        if not m:
            return
        self.min = min(self.min, float(vals.min()))
        self.max = max(self.max, float(vals.max()))
        first = self.count
        buf = self._buf
        pos = 0
        while pos < m:
            k = self.count - self._n
            take = min(_BLOCK - k, m - pos)
            buf[k:k + take] = vals[pos:pos + take]
            pos += take
            self.count += take
            if k + take == _BLOCK:
                self._close_block()
        cap = self._cap
        if first < cap:
            fill = min(m, cap - first)
            self._samples.extend(vals[:fill].tolist())
            self._sample_seq.extend(range(first, first + fill))
        if cap and self._next < self.count:
            self._sample(first, vals)

    # -- moments -----------------------------------------------------------

    def _moments(self) -> Tuple[float, float]:
        """(mean, M2) of every observation so far; mutates nothing."""
        na = self._n
        nb = self.count - na
        if not nb:
            return self._mean, self._m2
        blk = self._buf[:nb]
        mean_b = float(np.add.reduce(blk)) / nb
        dev = blk - mean_b
        m2_b = float(np.add.reduce(dev * dev))
        if not na:
            return mean_b, m2_b
        # Chan, Golub & LeVeque's pairwise merge.
        n = na + nb
        delta = mean_b - self._mean
        return (
            self._mean + delta * nb / n,
            self._m2 + m2_b + delta * delta * na * nb / n,
        )

    def _close_block(self) -> None:
        self._mean, self._m2 = self._moments()
        self._n = self.count

    @property
    def mean(self) -> float:
        return self._moments()[0]

    @property
    def variance(self) -> float:
        """Sample variance (ddof=1); 0 for fewer than two observations."""
        if self.count < 2:
            return 0.0
        return self._moments()[1] / (self.count - 1)

    @property
    def std(self) -> float:
        return self.variance ** 0.5

    # -- reservoir ---------------------------------------------------------

    def _sample(self, first: int, vals) -> None:
        """Algorithm L over the observations ``vals`` (index ``first`` on):
        each replacement index below ``count`` overwrites the slot drawn
        for it; then W tightens, ``_next`` jumps ahead and the next
        replacement's slot is drawn — three xorshift64 variates, strictly
        inside (0, 1), per step, in one loop over locals.  ``vals`` None
        makes the construction-time step, which replaces nothing."""
        cap = self._cap
        s = self._state
        logw = self._logw
        nxt = self._next
        slot = self._slot
        samples, seq = self._samples, self._sample_seq
        end = self.count
        while True:
            if vals is not None:
                if nxt >= end:
                    break
                samples[slot] = float(vals[nxt - first])
                seq[slot] = nxt
            u = []
            for _ in range(3):
                s = (s ^ (s << 13)) & _MASK64
                s ^= s >> 7
                s = (s ^ (s << 17)) & _MASK64
                u.append(((s >> 12) + 0.5) * 2.0 ** -52)
            logw += log(u[0]) / cap
            nxt += int(log(u[1]) / log(-expm1(logw))) + 1
            slot = int(u[2] * cap)
            if vals is None:
                break
        self._state = s
        self._logw = logw
        self._next = nxt
        self._slot = slot

    @property
    def samples(self) -> List[float]:
        """Reservoir contents (every observation while under capacity)."""
        return list(self._samples)

    def tail_values(self, skip: int) -> List[float]:
        """Reservoir samples whose original index is >= ``skip``.

        Used to discard warm-up transients: while the reservoir is under
        capacity this equals ``all_observations[skip:]`` exactly.
        """
        if skip <= 0:
            return list(self._samples)
        return [
            v for v, s in zip(self._samples, self._sample_seq) if s >= skip
        ]

    def percentile(self, q: float, skip: int = 0) -> Optional[float]:
        """Percentile estimate from the reservoir (None when empty)."""
        vals = self.tail_values(skip)
        if not vals:
            return None
        return float(np.percentile(np.asarray(vals), q))
