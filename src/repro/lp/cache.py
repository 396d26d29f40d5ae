"""Bounded LRU of solved plans, keyed on the exact demand vector.

Nothing on the run path uses it: :class:`repro.scheduling.allocator.WindowAllocator`
computes an exact plan every window in closed form and reuses none.  It stays
because the benchmark's tracer (``benchmarks/e2e/tracing.py``) binds
``SolveCache.get``; its counters read zero there.

Entries are kept in LRU order with a bounded size so long simulations with
many distinct demand plateaus cannot grow the cache without bound.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable, Optional

__all__ = ["SolveCache"]


class SolveCache:
    """Bounded LRU cache of LP plans with hit and miss counters.

    Args:
        maxsize: maximum number of retained plans (LRU eviction).
    """

    __slots__ = ("maxsize", "hits", "misses", "evictions", "_store")

    def __init__(self, maxsize: int = 256):
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.maxsize = int(maxsize)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._store: "OrderedDict[Hashable, Any]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._store)

    def get(self, key: Hashable) -> Optional[Any]:
        """Return the cached plan for ``key`` (refreshing LRU order)."""
        plan = self._store.get(key)
        if plan is None:
            self.misses += 1
            return None
        self._store.move_to_end(key)
        self.hits += 1
        return plan

    def put(self, key: Hashable, plan: Any) -> None:
        self._store[key] = plan
        self._store.move_to_end(key)
        if len(self._store) > self.maxsize:
            self._store.popitem(last=False)
            self.evictions += 1
