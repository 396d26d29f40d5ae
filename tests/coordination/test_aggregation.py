import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.coordination.aggregation import StreamStats, VectorAggregate
from repro.coordination.tree import CombiningTree


class TestVectorAggregate:
    def test_merge_sums(self):
        a = VectorAggregate.local({"A": 1.0, "B": 2.0})
        b = VectorAggregate.local({"B": 3.0, "C": 4.0})
        m = a.merge(b)
        assert m.values == {"A": 1.0, "B": 5.0, "C": 4.0}
        assert m.contributors == 2

    def test_merge_does_not_mutate(self):
        a = VectorAggregate.local({"A": 1.0})
        b = VectorAggregate.local({"A": 1.0})
        a.merge(b)
        assert a.values == {"A": 1.0}

    def test_get_default(self):
        assert VectorAggregate().get("missing") == 0.0

    def test_copy_independent(self):
        a = VectorAggregate.local({"A": 1.0})
        c = a.copy()
        c.values["A"] = 99.0
        assert a.values["A"] == 1.0

    def test_merge_associative(self):
        vs = [VectorAggregate.local({"k": float(i)}) for i in range(4)]
        left = vs[0].merge(vs[1]).merge(vs[2]).merge(vs[3])
        right = vs[0].merge(vs[1].merge(vs[2].merge(vs[3])))
        assert left.values == right.values
        assert left.contributors == right.contributors


    @given(st.integers(1, 4).flatmap(lambda p: st.lists(
        st.lists(st.integers(0, 2**40), min_size=p, max_size=p),
        min_size=1, max_size=80)))
    @settings(max_examples=80, deadline=None)
    def test_column_sum_is_the_combining_tree_fold(self, counts):
        # The sharded lane sums window k's (cluster, principal) column of
        # integer counts; it used to fold per-cluster leaves through a
        # balanced tree over the sorted cluster names (kept here as the
        # oracle).  Integers below 2**53 make any order exact.
        C, P = len(counts), len(counts[0])
        principals = [f"p{j}" for j in range(P)]
        names = [f"c{i:02d}" for i in range(C)]
        history = np.zeros((C, P, 3))
        history[:, :, 1] = counts
        total = history[:, :, 1].sum(axis=0)

        tree = CombiningTree.balanced(names)
        leaves = {n: VectorAggregate.local(dict(zip(principals, map(float, row))))
                  for n, row in zip(names, counts)}

        def fold(node):
            agg = leaves[node].copy()
            for child in tree.children(node):
                agg = agg.merge(fold(child))
            return agg

        merged = fold(tree.root)
        assert [float(x).hex() for x in total] == \
            [merged.get(p).hex() for p in principals]


class TestStreamStats:
    def test_observe(self):
        s = StreamStats()
        for v in (1.0, 2.0, 3.0):
            s.observe(v)
        assert s.count == 3
        assert s.mean == pytest.approx(2.0)
        assert s.variance == pytest.approx(np.var([1, 2, 3]))
        assert s.min == 1.0 and s.max == 3.0

    def test_empty_variance_nan(self):
        assert math.isnan(StreamStats().variance)

    def test_merge_with_empty(self):
        s = StreamStats.of(5.0)
        assert s.merge(StreamStats()).mean == pytest.approx(5.0)
        assert StreamStats().merge(s).count == 1

    def test_sample_variance(self):
        s = StreamStats()
        for v in (1.0, 3.0):
            s.observe(v)
        assert s.sample_variance == pytest.approx(2.0)

    @given(
        st.lists(st.floats(min_value=-1e4, max_value=1e4), min_size=1, max_size=60),
        st.lists(st.floats(min_value=-1e4, max_value=1e4), min_size=1, max_size=60),
    )
    @settings(max_examples=100, deadline=None)
    def test_parallel_merge_matches_sequential(self, xs, ys):
        """Chan's combine: merging partials == observing everything."""
        a, b, total = StreamStats(), StreamStats(), StreamStats()
        for v in xs:
            a.observe(v)
            total.observe(v)
        for v in ys:
            b.observe(v)
            total.observe(v)
        merged = a.merge(b)
        assert merged.count == total.count
        assert merged.mean == pytest.approx(total.mean, rel=1e-9, abs=1e-9)
        assert merged.m2 == pytest.approx(total.m2, rel=1e-6, abs=1e-5)
        assert merged.min == total.min and merged.max == total.max

    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=2, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_matches_numpy(self, xs):
        s = StreamStats()
        for v in xs:
            s.observe(v)
        assert s.mean == pytest.approx(np.mean(xs), rel=1e-9, abs=1e-9)
        assert s.variance == pytest.approx(np.var(xs), rel=1e-6, abs=1e-8)
