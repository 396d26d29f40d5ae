"""Measurement instruments for simulation runs.

The paper's figures plot per-principal service rates (requests/sec) against
wall-clock time, then discuss phase means.  :class:`RateMeter` reproduces
that measurement: it bins discrete occurrences into fixed-width time bins;
:meth:`RateMeter.series` yields the (time, rate) curve a figure would plot
and :meth:`RateMeter.mean_rate` the steady-state number quoted in the text.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["RateMeter", "TimeSeries", "PhaseStats", "summarize_phases"]


class RateMeter:
    """Counts discrete events per key, binned into fixed-width time bins.

    >>> m = RateMeter(bin_width=1.0)
    >>> for t in (0.1, 0.2, 1.5):
    ...     m.record("A", t)
    >>> m.series("A")
    (array([0.5, 1.5]), array([2., 1.]))
    """

    def __init__(self, bin_width: float = 1.0) -> None:
        if bin_width <= 0:
            raise ValueError("bin_width must be positive")
        self.bin_width = float(bin_width)
        self._bins: Dict[str, Dict[int, float]] = {}

    def record(self, key: str, t: float, weight: float = 1.0) -> None:
        # Hot path (called 2-3x per completed request): plain .get beats
        # setdefault, which builds the default dict on every call.
        bins = self._bins.get(key)
        if bins is None:
            bins = self._bins[key] = {}
        idx = int(t // self.bin_width)
        bins[idx] = bins.get(idx, 0.0) + weight

    def record_many(self, key: str, times, weight: float = 1.0, weights=None) -> None:
        """Record a batch of occurrence times for ``key`` in one call.

        Equivalent to ``for t, w in zip(times, weights): record(key, t, w)``
        (or a constant ``weight`` when ``weights`` is None) but binned with
        one vectorised floor-divide and accumulated via ``np.bincount`` —
        no intermediate Python list.  ``np.bincount`` sums sequentially in
        array order, so batches of integer-valued weights reproduce the
        scalar path's per-bin totals bit-for-bit.  A batch whose earliest
        and latest times share a bin (floor-divide is monotone, so every
        time between them does too) adds its count, or its sequentially
        summed weights, to that one bin and skips the binning.
        """
        ts = np.asarray(times, dtype=float)
        if ts.size == 0:
            return
        w = None
        if weights is not None:
            w = np.asarray(weights, dtype=float)
            if w.shape != ts.shape:
                raise ValueError("weights must match times in shape")
        bins = self._bins.get(key)
        if bins is None:
            bins = self._bins[key] = {}
        lo = int(ts.min() // self.bin_width)
        if lo == int(ts.max() // self.bin_width):
            total = ts.size * weight if w is None else float(np.cumsum(w)[-1])
            if total:
                bins[lo] = bins.get(lo, 0.0) + total
            return
        idx = np.floor_divide(ts, self.bin_width).astype(np.int64)
        if w is not None:
            counts = np.bincount(idx - lo, weights=w)
        else:
            counts = np.bincount(idx - lo).astype(float)
            if weight != 1.0:
                counts *= weight
        for off in np.flatnonzero(counts).tolist():
            i = lo + off
            bins[i] = bins.get(i, 0.0) + float(counts[off])

    @property
    def keys(self) -> List[str]:
        return sorted(self._bins)

    def total(self, key: str, t0: float = 0.0, t1: float = float("inf")) -> float:
        """Total weight recorded for ``key`` in the half-open window [t0, t1).

        Bins straddling a window boundary are prorated by overlap (events
        are assumed uniform within a bin), so fractional windows are not
        biased by whichever whole bin the boundary lands in.
        """
        if t1 <= t0:
            return 0.0
        bins = self._bins.get(key, {})
        w = self.bin_width
        total = 0.0
        # In bin order, not insertion order: the columnar lane commits
        # completions in blocks, server by server, so a bin can be created
        # after a later one, and prorated (non-integer) terms must be added
        # in the same order whatever the grouping.
        for i, v in sorted(bins.items()):
            b0, b1 = i * w, (i + 1) * w
            overlap = min(b1, t1) - max(b0, t0)
            if overlap <= 0:
                continue
            total += v * min(1.0, overlap / w)
        return total

    def mean_rate(self, key: str, t0: float, t1: float) -> float:
        """Average rate (events per second) over [t0, t1)."""
        if t1 <= t0:
            raise ValueError("empty window")
        return self.total(key, t0, t1) / (t1 - t0)

    def series(self, key: str) -> Tuple[np.ndarray, np.ndarray]:
        """(bin-centre times, per-second rates) — the curve a figure plots."""
        bins = self._bins.get(key, {})
        if not bins:
            return np.empty(0), np.empty(0)
        lo, hi = min(bins), max(bins)
        idx = np.arange(lo, hi + 1)
        counts = np.array([bins.get(int(i), 0.0) for i in idx])
        times = (idx + 0.5) * self.bin_width
        return times, counts / self.bin_width


class TimeSeries:
    """Append-only (time, value) series with window statistics."""

    def __init__(self) -> None:
        self._t: List[float] = []
        self._v: List[float] = []

    def record(self, t: float, value: float) -> None:
        if self._t and t < self._t[-1]:
            raise ValueError("timestamps must be non-decreasing")
        self._t.append(float(t))
        self._v.append(float(value))

    def __len__(self) -> int:
        return len(self._t)

    @property
    def times(self) -> np.ndarray:
        return np.asarray(self._t)

    @property
    def values(self) -> np.ndarray:
        return np.asarray(self._v)

    def window(self, t0: float, t1: float) -> np.ndarray:
        """Values with timestamps in [t0, t1)."""
        lo = bisect_left(self._t, t0)
        hi = bisect_left(self._t, t1)
        return np.asarray(self._v[lo:hi])

    def mean(self, t0: float, t1: float) -> float:
        vals = self.window(t0, t1)
        return float(vals.mean()) if vals.size else float("nan")

    def last_before(self, t: float) -> Optional[float]:
        idx = bisect_right(self._t, t) - 1
        return self._v[idx] if idx >= 0 else None


@dataclass
class PhaseStats:
    """Per-phase summary of a rate series, mirroring the paper's phase text."""

    name: str
    t0: float
    t1: float
    rates: Dict[str, float] = field(default_factory=dict)

    def rate(self, key: str) -> float:
        return self.rates.get(key, 0.0)


def summarize_phases(
    meter: RateMeter,
    phases: Sequence[Tuple[str, float, float]],
    keys: Optional[Iterable[str]] = None,
    settle: float = 0.0,
) -> List[PhaseStats]:
    """Mean rate per key per phase; ``settle`` trims phase-start transients."""
    keys = list(keys) if keys is not None else meter.keys
    out = []
    for name, t0, t1 in phases:
        start = min(t0 + settle, t1)
        stats = PhaseStats(name=name, t0=t0, t1=t1)
        for k in keys:
            stats.rates[k] = meter.mean_rate(k, start, t1) if t1 > start else 0.0
        out.append(stats)
    return out
