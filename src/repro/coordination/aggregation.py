"""Mergeable aggregates flowing through the combining tree.

The protocol primarily aggregates the per-principal queue-length *sum*
(:class:`VectorAggregate`), which is all the LP schedulers need; the paper
notes that "other aggregate queue metrics such as the maximum, minimum,
average queue length, and variation in queue lengths, can also be
collected in the same fashion" — :class:`StreamStats` provides those with
Chan et al.'s numerically stable parallel variance combine, the standard
HPC reduction for distributed moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Mapping

__all__ = ["VectorAggregate", "StreamStats"]


@dataclass
class VectorAggregate:
    """Per-principal additive vector (queue lengths), plus contributor count."""

    values: Dict[str, float] = field(default_factory=dict)
    contributors: int = 0

    @classmethod
    def local(cls, values: Mapping[str, float]) -> "VectorAggregate":
        return cls(values=dict(values), contributors=1)

    def merge(self, other: "VectorAggregate") -> "VectorAggregate":
        out = dict(self.values)
        for k, v in other.values.items():
            out[k] = out.get(k, 0.0) + v
        return VectorAggregate(values=out, contributors=self.contributors + other.contributors)

    def get(self, key: str, default: float = 0.0) -> float:
        return self.values.get(key, default)

    def copy(self) -> "VectorAggregate":
        return VectorAggregate(values=dict(self.values), contributors=self.contributors)


@dataclass
class StreamStats:
    """Mergeable (count, mean, variance, min, max) summary.

    Merging follows Chan, Golub & LeVeque's pairwise update, so combining
    partial summaries up the tree is exact regardless of combine order.
    """

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0
    min: float = math.inf
    max: float = -math.inf

    @classmethod
    def of(cls, value: float) -> "StreamStats":
        return cls(count=1, mean=float(value), m2=0.0, min=float(value), max=float(value))

    def observe(self, value: float) -> None:
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (value - self.mean)
        self.min = min(self.min, value)
        self.max = max(self.max, value)

    def merge(self, other: "StreamStats") -> "StreamStats":
        if self.count == 0:
            return StreamStats(**vars(other))
        if other.count == 0:
            return StreamStats(**vars(self))
        n = self.count + other.count
        delta = other.mean - self.mean
        mean = self.mean + delta * other.count / n
        m2 = self.m2 + other.m2 + delta * delta * self.count * other.count / n
        return StreamStats(
            count=n,
            mean=mean,
            m2=m2,
            min=min(self.min, other.min),
            max=max(self.max, other.max),
        )

    @property
    def variance(self) -> float:
        return self.m2 / self.count if self.count else math.nan

    @property
    def sample_variance(self) -> float:
        return self.m2 / (self.count - 1) if self.count > 1 else math.nan
