"""Scheduling time windows.

All of the paper's experiments make scheduling decisions over 100 ms
windows; access levels specified in requests/second are scaled by the
window length to get per-window request budgets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

__all__ = ["WindowConfig", "roll_ewma"]


def roll_ewma(estimate: Dict[str, float], arrivals: Dict[str, float], alpha: float) -> None:
    """Close a window's demand estimate: fold each principal's arrivals
    into its EWMA (``alpha`` on the newest window) and zero the arrivals."""
    for p in arrivals:
        estimate[p] = alpha * arrivals[p] + (1.0 - alpha) * estimate[p]
        arrivals[p] = 0.0


@dataclass(frozen=True)
class WindowConfig:
    """Length of the scheduling window, in seconds (paper: 0.1 s)."""

    length: float = 0.1

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise ValueError(f"window length must be positive, got {self.length}")

    def requests(self, rate_per_second: float) -> float:
        """Requests per window at the given per-second rate."""
        return rate_per_second * self.length

    def rate(self, requests_per_window: float) -> float:
        """Per-second rate for the given per-window count."""
        return requests_per_window / self.length

    def index(self, t: float) -> int:
        """Which window the timestamp ``t`` falls into.

        Floor division alone misclassifies exact boundaries that are not
        representable in binary (``0.3 // 0.1 == 2.0``): a timestamp within
        relative epsilon of the *next* boundary is snapped onto it.
        """
        i = int(t // self.length)
        boundary = (i + 1) * self.length
        if abs(t - boundary) <= 1e-9 * max(abs(t), self.length):
            return i + 1
        return i
