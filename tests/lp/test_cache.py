"""SolveCache behaviour: an exact-key LRU with hit and miss counters."""

import pytest

from repro.lp.cache import SolveCache


def test_exact_keys_hit_only_on_identical_demand():
    c = SolveCache()
    c.put((1.0, 2.0), "plan")
    assert c.get((1.0, 2.0)) == "plan"
    assert c.get((1.0, 2.0 + 1e-12)) is None
    assert (c.hits, c.misses) == (1, 1)


def test_lru_eviction_and_counters():
    c = SolveCache(maxsize=2)
    keys = [(float(i),) for i in range(3)]
    c.put(keys[0], 0)
    c.put(keys[1], 1)
    assert c.get(keys[0]) == 0          # refresh 0: now 1 is the LRU entry
    c.put(keys[2], 2)                   # evicts 1
    assert c.get(keys[1]) is None
    assert c.get(keys[0]) == 0 and c.get(keys[2]) == 2
    assert c.evictions == 1
    assert len(c) == 2
    assert (c.hits, c.misses) == (3, 1)


def test_non_positive_maxsize_rejected():
    with pytest.raises(ValueError):
        SolveCache(maxsize=0)
