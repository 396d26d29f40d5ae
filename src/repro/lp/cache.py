"""LP solve cache keyed on model structure plus a quantized demand vector.

The window schedulers rebuild near-identical LPs every 100 ms: the model
*structure* (which variables exist, which coefficients appear) is a pure
function of the agreement graph and the scheduler's configuration, while
only the right-hand side — queue lengths / demand estimates — moves between
windows.  :class:`SolveCache` exploits that split:

- a *structural fingerprint* (hash of the configuration-derived arrays,
  computed once per scheduler) identifies the LP family;
- the per-window demand vector, optionally quantized, completes the key.

With ``quantum == 0`` (the default) a hit requires the demand vector to
repeat **exactly**, so the cached plan is bit-identical to what a fresh
solve would produce — enabling the cache never changes results, it only
skips redundant work.  A positive ``quantum`` buckets each demand component
to the nearest multiple, trading a bounded allocation error for a much
higher hit rate under jittery load (useful for capacity planning sweeps,
not for the reproduction figures).

Entries are kept in LRU order with a bounded size so long simulations with
many distinct demand plateaus cannot grow the cache without bound.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Any, Hashable, Iterable, Optional, Tuple

import numpy as np

__all__ = ["SolveCache", "structural_fingerprint"]


def structural_fingerprint(*parts: Any) -> str:
    """Stable hash of heterogeneous structural data (arrays, scalars, str).

    numpy arrays contribute their raw bytes and shape; everything else its
    ``repr``.  Suitable as the structure half of a :class:`SolveCache` key.
    """
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(b"ndarray")
            h.update(str(part.shape).encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
        h.update(b"\x00")
    return h.hexdigest()


class SolveCache:
    """Bounded LRU cache of LP plans keyed on structure + demand.

    Args:
        maxsize: maximum number of retained plans (LRU eviction).
        quantum: demand quantization step.  ``0`` means exact-match keys
            (bit-identical reuse); ``q > 0`` buckets each demand component
            to the nearest multiple of ``q``.
    """

    __slots__ = ("maxsize", "quantum", "hits", "misses", "evictions", "_store")

    def __init__(self, maxsize: int = 256, quantum: float = 0.0):
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        if quantum < 0:
            raise ValueError("quantum must be >= 0")
        self.maxsize = int(maxsize)
        self.quantum = float(quantum)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._store: "OrderedDict[Hashable, Any]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._store)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def key(
        self,
        fingerprint: str,
        demand: Iterable[float],
        tag: Hashable = None,
    ) -> Tuple:
        """Build a cache key from the structural fingerprint, the per-window
        demand vector and an optional extra discriminator (e.g. locality
        caps)."""
        q = self.quantum
        if q > 0.0:
            vec: Tuple = tuple(int(round(float(d) / q)) for d in demand)
        else:
            if isinstance(demand, np.ndarray):
                demand = demand.tolist()
            vec = tuple(map(float, demand))
        return (fingerprint, vec, tag)

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

    def clear(self) -> None:
        self._store.clear()
