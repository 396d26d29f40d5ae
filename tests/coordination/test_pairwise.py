import pytest

from repro.coordination.messages import MessageCounter
from repro.coordination.pairwise import build_pairwise
from repro.sim.engine import Simulator

from .test_protocol import tree_messages_per_round


def _run(locals_, duration=1.0, link_delay=0.01, counter=None):
    sim = Simulator()
    ids = list(locals_)
    nodes = build_pairwise(
        sim, ids, period=0.1,
        suppliers={k: (lambda k=k: locals_[k]) for k in ids},
        link_delay=link_delay, counter=counter,
    )
    sim.run(until=duration)
    return sim, nodes


class TestPairwise:
    def test_every_node_sees_global_sum(self):
        locals_ = {"a": {"A": 1.0}, "b": {"A": 2.0, "B": 3.0}, "c": {"B": 0.5}}
        _, nodes = _run(locals_)
        for nid in locals_:
            agg = nodes[nid].view.aggregate
            assert agg.get("A") == pytest.approx(3.0)
            assert agg.get("B") == pytest.approx(3.5)
            assert agg.contributors == 3

    def test_local_contribution_recorded(self):
        _, nodes = _run({"a": {"A": 1.0}, "b": {"A": 5.0}})
        assert nodes["b"].view.local_contribution.get("A") == pytest.approx(5.0)

    def test_message_complexity_is_quadratic(self):
        counter = MessageCounter()
        n = 6
        locals_ = {f"r{i}": {"A": 1.0} for i in range(n)}
        _run(locals_, duration=2.05, counter=counter)
        rounds = 21
        per_round = counter.reports / rounds
        assert per_round == pytest.approx(n * (n - 1), rel=0.05)

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_measured_traffic_ratio_to_tree(self, n):
        """§3.2: both protocols run, and the measured ratio matches the
        paper's n(n-1) vs 2(n-1) messages per round."""
        counter = MessageCounter()
        rounds = 50
        _run({f"r{i}": {"A": 1.0} for i in range(n)},
             duration=rounds * 0.1 + 0.05, link_delay=0.001, counter=counter)
        pairwise = counter.reports / (rounds + 1)
        tree = tree_messages_per_round(n, "balanced", rounds)
        assert pairwise == pytest.approx(n * (n - 1), rel=0.1)
        assert pairwise / tree == pytest.approx(n / 2.0, rel=0.25)

    def test_converges_after_one_delay(self):
        """Pairwise is *faster* to converge than the tree (one one-way hop),
        which is exactly the trade against its O(n^2) traffic."""
        sim = Simulator()
        locals_ = {"a": {"A": 1.0}, "b": {"A": 2.0}}
        nodes = build_pairwise(
            sim, list(locals_), period=0.1,
            suppliers={k: (lambda k=k: locals_[k]) for k in locals_},
            link_delay=0.04,
        )
        sim.run(until=0.05)  # one period hasn't even elapsed
        assert nodes["a"].view.aggregate.get("A") == pytest.approx(3.0)

    def test_single_node(self):
        _, nodes = _run({"solo": {"A": 7.0}})
        assert nodes["solo"].view.aggregate.get("A") == pytest.approx(7.0)

    def test_bad_period(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            build_pairwise(sim, ["a"], period=0.0, suppliers={"a": dict})

    def test_allocator_compatible_view(self, fig6_graph):
        """PairwiseNode duck-types AggregationNode for WindowAllocator."""
        from repro.core.access import compute_access_levels
        from repro.scheduling.allocator import WindowAllocator
        from repro.scheduling.window import WindowConfig

        sim = Simulator()
        demand = {"r1": {"A": 27.0}, "r2": {"B": 13.5}}
        nodes = build_pairwise(
            sim, list(demand), period=0.1,
            suppliers={k: (lambda k=k: demand[k]) for k in demand},
            link_delay=0.005,
        )
        sim.run(until=1.0)
        alloc = WindowAllocator(
            compute_access_levels(fig6_graph), WindowConfig(0.1), n_redirectors=2
        )
        alloc.attach(nodes["r1"])
        a = alloc.compute({"A": 27.0})
        assert not a.used_fallback
        assert a.quotas["A"] == pytest.approx(18.5, rel=0.05)
