"""Combining-tree protocol over simulated links."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.coordination.messages import MessageCounter
from repro.coordination.protocol import GlobalView, build_protocol
from repro.coordination.tree import CombiningTree
from repro.sim.engine import Simulator


def _run(tree_kind, locals_, duration=1.0, link_delay=0.01, period=0.1,
         counter=None):
    sim = Simulator()
    ids = list(locals_)
    if tree_kind == "star":
        tree = CombiningTree.star(ids)
    elif tree_kind == "chain":
        tree = CombiningTree.chain(ids)
    else:
        tree = CombiningTree.balanced(ids, 2)
    suppliers = {k: (lambda k=k: locals_[k]) for k in ids}
    nodes = build_protocol(
        sim, tree, period=period, suppliers=suppliers,
        link_delay=link_delay, counter=counter,
    )
    sim.run(until=duration)
    return sim, tree, nodes


class TestAggregation:
    @pytest.mark.parametrize("kind", ["star", "chain", "balanced"])
    def test_every_node_sees_global_sum(self, kind):
        locals_ = {
            "r0": {"A": 1.0},
            "r1": {"A": 2.0, "B": 1.0},
            "r2": {"B": 5.0},
            "r3": {},
            "r4": {"A": 0.5},
        }
        _, tree, nodes = _run(kind, locals_)
        for nid in tree.nodes:
            agg = nodes[nid].view.aggregate
            assert agg is not None, nid
            assert agg.get("A") == pytest.approx(3.5)
            assert agg.get("B") == pytest.approx(6.0)
            assert agg.contributors == 5

    def test_single_node_sees_itself(self):
        _, _, nodes = _run("star", {"solo": {"A": 7.0}})
        assert nodes["solo"].view.aggregate.get("A") == pytest.approx(7.0)

    def test_local_contribution_recorded(self):
        _, _, nodes = _run("star", {"r0": {"A": 1.0}, "r1": {"A": 9.0}})
        view = nodes["r1"].view
        assert view.local_contribution is not None
        assert view.local_contribution.get("A") == pytest.approx(9.0)

    def test_data_lag_tracks_delay(self):
        sim, _, nodes = _run(
            "star", {"r0": {}, "r1": {"A": 1.0}}, link_delay=0.2, duration=3.0,
            period=0.1,
        )
        # Broadcasts arrive every period (rounds pipeline), so the *receipt*
        # is always fresh — but the data they carry lags by ~2x link delay.
        view = nodes["r1"].view
        assert view.age(sim.now) <= 0.2
        data_lag = sim.now - view.round_id * 0.1
        assert data_lag >= 2 * 0.2

    def test_dynamic_value_changes_propagate(self):
        sim = Simulator()
        state = {"v": 1.0}
        tree = CombiningTree.star(["root", "leaf"])
        nodes = build_protocol(
            sim, tree, period=0.1,
            suppliers={"root": lambda: {}, "leaf": lambda: {"A": state["v"]}},
            link_delay=0.01,
        )
        sim.run(until=1.0)
        assert nodes["root"].view.aggregate.get("A") == pytest.approx(1.0)
        state["v"] = 42.0
        sim.run(until=2.0)
        assert nodes["root"].view.aggregate.get("A") == pytest.approx(42.0)


class TestMessageComplexity:
    def test_message_count_is_2n_minus_2_per_round(self):
        counter = MessageCounter()
        locals_ = {f"r{i}": {"A": 1.0} for i in range(6)}
        _run("balanced", locals_, duration=2.05, period=0.1, counter=counter,
             link_delay=0.001)
        rounds = 20
        per_round = counter.total / rounds
        assert per_round == pytest.approx(2 * (6 - 1), rel=0.15)

    @pytest.mark.parametrize("n", [4, 8, 16, 32])
    def test_measured_tree_traffic_is_2n_minus_2(self, n):
        per_round = tree_messages_per_round(n, "balanced")
        assert per_round == pytest.approx(2 * (n - 1), rel=0.1)
        assert per_round < CombiningTree.pairwise_messages_per_round(n)

    @pytest.mark.parametrize("kind", ["star", "balanced", "chain"])
    def test_every_overlay_shape_costs_2n_minus_2(self, kind):
        """Shapes differ only in round latency (height x link delay)."""
        assert tree_messages_per_round(12, kind) == pytest.approx(22.0, rel=0.15)


def tree_messages_per_round(n, kind, rounds=50):
    """Messages per aggregation round, measured over ``rounds`` rounds of
    an ``n``-node overlay of shape ``kind``."""
    counter = MessageCounter()
    _run(kind, {f"r{i}": {"A": 1.0} for i in range(n)},
         duration=rounds * 0.1 + 0.05, link_delay=0.001, counter=counter)
    return counter.total / rounds


class TestGlobalView:
    def test_fresh_and_stale(self):
        view = GlobalView()
        assert view.fresh(now=0.0, max_age=1.0) is None
        from repro.coordination.aggregation import VectorAggregate

        view = GlobalView(aggregate=VectorAggregate.local({"A": 1.0}),
                          round_id=3, received_at=10.0)
        assert view.fresh(now=10.5, max_age=1.0) is not None
        assert view.fresh(now=12.0, max_age=1.0) is None
        assert view.age(11.0) == pytest.approx(1.0)


class TestRobustness:
    def test_missing_supplier_rejected(self):
        sim = Simulator()
        tree = CombiningTree.star(["a", "b"])
        with pytest.raises(ValueError, match="supplier"):
            build_protocol(sim, tree, period=0.1, suppliers={"a": dict})

    def test_bad_period_rejected(self):
        sim = Simulator()
        tree = CombiningTree.star(["a"])
        with pytest.raises(ValueError):
            build_protocol(sim, tree, period=0.0, suppliers={"a": dict})

    def test_flush_forwards_partial_round(self):
        # A child whose report is slower than flush_after must not stall
        # the root forever: the root broadcasts a partial aggregate.
        sim = Simulator()
        tree = CombiningTree.star(["root", "slow"])
        nodes = build_protocol(
            sim, tree, period=0.1,
            suppliers={"root": lambda: {"A": 1.0}, "slow": lambda: {"A": 100.0}},
            link_delay=5.0,       # far beyond the flush timeout
            flush_after=0.09,
        )
        sim.run(until=2.0)
        view = nodes["root"].view
        assert view.aggregate is not None
        assert view.aggregate.get("A") == pytest.approx(1.0)  # partial
        sim.run(until=20.0)
        assert nodes["root"].late_reports > 0

    def test_lossy_links_degrade_gracefully(self):
        """With 15% message loss the protocol keeps delivering views whose
        values stay close to the true aggregate (missing children simply
        drop out of individual rounds)."""
        import numpy as np

        sim = Simulator()
        ids = [f"r{i}" for i in range(6)]
        tree = CombiningTree.star(ids)
        nodes = build_protocol(
            sim, tree, period=0.1,
            suppliers={i: (lambda i=i: {"A": 10.0}) for i in ids},
            link_delay=0.01, loss=0.15, rng=np.random.default_rng(0),
        )
        seen = []
        sim.every(0.5, lambda: seen.append(
            nodes[ids[1]].view.aggregate.get("A")
            if nodes[ids[1]].view.aggregate else None
        ), start=1.0)
        sim.run(until=20.0)
        values = [v for v in seen if v is not None]
        assert len(values) >= 30            # views keep flowing
        # Partial rounds lose at most a couple of contributors.
        assert min(values) >= 30.0
        assert max(values) <= 60.0
        assert np.mean(values) >= 50.0

    def test_node_departure_heals_via_new_tree(self):
        """Operational healing: after a redirector leaves, a protocol over
        the healed tree converges to the survivors' aggregate."""
        sim = Simulator()
        ids = ["a", "b", "c", "d"]
        tree = CombiningTree.balanced(ids, 2)
        tree.leave("b")                     # children reattach to the root
        assert set(tree.nodes) == {"a", "c", "d"}
        nodes = build_protocol(
            sim, tree, period=0.1,
            suppliers={i: (lambda i=i: {"A": 1.0}) for i in ["a", "c", "d"]},
            link_delay=0.01,
        )
        sim.run(until=1.0)
        assert nodes["a"].view.aggregate.get("A") == pytest.approx(3.0)

    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=3))
    @settings(max_examples=20, deadline=None)
    def test_aggregate_correct_for_random_sizes(self, n, fanout):
        locals_ = {f"r{i}": {"A": float(i)} for i in range(n)}
        _, tree, nodes = _run("balanced" if fanout > 1 else "chain", locals_,
                              duration=1.5)
        want = sum(range(n))
        for nid in tree.nodes:
            assert nodes[nid].view.aggregate.get("A") == pytest.approx(want)
