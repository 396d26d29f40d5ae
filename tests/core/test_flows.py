"""Tests for the transitive flow computation — the heart of the calculus.

Includes the paper's Fig 3 worked example as ground truth and
property-based conservation tests on random agreement DAGs.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.agreements import Agreement, AgreementError, AgreementGraph
from repro.core.flows import closed_form_flows, path_flows, spectral_radius


class TestFig3GroundTruth:
    """Every number from the paper's worked example."""

    def test_gross_currency_values(self, fig3_graph):
        f = closed_form_flows(fig3_graph)
        np.testing.assert_allclose(f.M, [1000.0, 1900.0, 1140.0])

    def test_final_mandatory(self, fig3_graph):
        f = closed_form_flows(fig3_graph)
        np.testing.assert_allclose(f.MC, [600.0, 760.0, 1140.0])

    def test_final_optional(self, fig3_graph):
        f = closed_form_flows(fig3_graph)
        np.testing.assert_allclose(f.OC, [400.0, 1340.0, 960.0], atol=1e-9)

    def test_entitlement_matrix(self, fig3_graph):
        f = closed_form_flows(fig3_graph)
        # C's mandatory entitlement on B's server: 1500 * 0.6 = 900; and on
        # A's (transitively): 1000 * 0.4 * 0.6 = 240.
        assert f.entitlement("C", "B")[0] == pytest.approx(900.0)
        assert f.entitlement("C", "A")[0] == pytest.approx(240.0)
        assert f.entitlement("B", "A")[0] == pytest.approx(160.0)

    def test_conservation(self, fig3_graph):
        closed_form_flows(fig3_graph).check_conservation()

    def test_paths_match_closed_form(self, fig3_graph):
        f1 = closed_form_flows(fig3_graph)
        f2 = path_flows(fig3_graph)
        for attr in ("M", "Obar", "MC", "OC", "MI", "OI"):
            np.testing.assert_allclose(
                getattr(f1, attr), getattr(f2, attr), atol=1e-9, err_msg=attr
            )


class TestEdgeCases:
    def test_empty_graph(self):
        f = closed_form_flows(AgreementGraph())
        assert f.MC.size == 0

    def test_single_principal(self):
        g = AgreementGraph()
        g.add_principal("A", capacity=50.0)
        f = closed_form_flows(g)
        assert f.mandatory("A") == pytest.approx(50.0)
        assert f.optional("A") == pytest.approx(0.0)

    def test_no_agreements_identity(self):
        g = AgreementGraph()
        for i in range(4):
            g.add_principal(f"P{i}", capacity=10.0 * (i + 1))
        f = closed_form_flows(g)
        np.testing.assert_allclose(f.MC, g.capacities())
        np.testing.assert_allclose(f.MI, np.diag(g.capacities()))

    def test_full_transfer_chain(self):
        # A gives everything to B, B everything to C.
        g = AgreementGraph()
        g.add_principal("A", capacity=100.0)
        g.add_principal("B")
        g.add_principal("C")
        g.add_agreement(Agreement("A", "B", 1.0, 1.0))
        g.add_agreement(Agreement("B", "C", 1.0, 1.0))
        f = closed_form_flows(g)
        assert f.mandatory("A") == pytest.approx(0.0)
        assert f.mandatory("B") == pytest.approx(0.0)
        assert f.mandatory("C") == pytest.approx(100.0)

    def test_unknown_principal(self, fig3_graph):
        f = closed_form_flows(fig3_graph)
        with pytest.raises(AgreementError):
            f.mandatory("Z")

    def test_cycle_with_moderate_bounds_converges(self):
        g = AgreementGraph()
        g.add_principal("A", capacity=100.0)
        g.add_principal("B", capacity=100.0)
        g.add_agreement(Agreement("A", "B", 0.3, 0.4))
        g.add_agreement(Agreement("B", "A", 0.3, 0.4))
        f = closed_form_flows(g)
        f.check_conservation()
        # Symmetric cycle: both end up with their own capacity.
        assert f.mandatory("A") == pytest.approx(f.mandatory("B"))
        assert f.MC.sum() == pytest.approx(200.0)

    def test_divergent_mandatory_cycle_rejected(self):
        g = AgreementGraph()
        g.add_principal("A", capacity=100.0)
        g.add_principal("B", capacity=100.0)
        g.add_agreement(Agreement("A", "B", 1.0, 1.0))
        g.add_agreement(Agreement("B", "A", 1.0, 1.0))
        with pytest.raises(AgreementError, match="spectral radius"):
            closed_form_flows(g)

    def test_divergent_optional_cycle_rejected(self):
        g = AgreementGraph()
        g.add_principal("A", capacity=100.0)
        g.add_principal("B", capacity=100.0)
        g.add_agreement(Agreement("A", "B", 0.0, 1.0))
        g.add_agreement(Agreement("B", "A", 0.0, 1.0))
        with pytest.raises(AgreementError, match="spectral radius"):
            closed_form_flows(g)

    def test_path_flows_handles_divergent_cycle(self):
        # The paper's formulation excludes cycles, so it stays finite where
        # the closed form diverges.
        g = AgreementGraph()
        g.add_principal("A", capacity=100.0)
        g.add_principal("B", capacity=100.0)
        g.add_agreement(Agreement("A", "B", 1.0, 1.0))
        g.add_agreement(Agreement("B", "A", 1.0, 1.0))
        f = path_flows(g)
        assert np.isfinite(f.MC).all()
        # Each principal re-exports 100% of its currency, so nothing is
        # *retained* as mandatory; the circulating value is reclaimable
        # (optional): own 100 + the partner's 100 flowing in.
        assert f.mandatory("A") == pytest.approx(0.0)
        assert f.optional("A") == pytest.approx(200.0)

    def test_max_len_truncation(self, fig3_graph):
        # With paths of length <= 1, the transitive A->C flow disappears.
        f = path_flows(fig3_graph, max_len=1)
        assert f.entitlement("C", "A")[0] == pytest.approx(0.0)
        assert f.entitlement("C", "B")[0] == pytest.approx(900.0)

    def test_spectral_radius_empty(self):
        assert spectral_radius(np.zeros((0, 0))) == 0.0


def _layered_dag(layers, width):
    """Every principal of one layer shares [0.8, 0.9] of its capacity with
    the whole next layer: many transitive paths per pair."""
    g = AgreementGraph()
    for l in range(layers):
        for w in range(width):
            g.add_principal(f"L{l}W{w}", capacity=100.0)
    for l in range(layers - 1):
        for w in range(width):
            for w2 in range(width):
                g.add_agreement(Agreement(
                    f"L{l}W{w}", f"L{l+1}W{w2}", 0.8 / width, 0.9 / width))
    return g


class TestLayeredDags:
    """§3.1.1 ablation: the paper's path enumeration (Formulae 1-4) and the
    closed form on dense layered DAGs."""

    @pytest.mark.parametrize("layers,width", [(3, 2), (4, 2), (3, 3)])
    @pytest.mark.parametrize("method", [closed_form_flows, path_flows],
                             ids=["closed_form", "paths"])
    def test_flows_conserve(self, method, layers, width):
        method(_layered_dag(layers, width)).check_conservation()

    def test_methods_agree(self):
        g = _layered_dag(4, 2)
        f1, f2 = closed_form_flows(g), path_flows(g)
        np.testing.assert_allclose(f1.MI, f2.MI, atol=1e-8)
        np.testing.assert_allclose(f1.OI, f2.OI, atol=1e-8)


def _random_dag(names, caps, edges):
    g = AgreementGraph()
    for name, cap in zip(names, caps):
        g.add_principal(name, capacity=cap)
    budget = {name: 1.0 for name in names}
    for i, j, lb, width in edges:
        if i >= j:
            continue  # DAG: only forward edges
        gi, gj = names[i], names[j]
        lb = min(lb, budget[gi])
        if lb < 0 or g.agreement(gi, gj) is not None:
            continue
        ub = min(1.0, lb + width)
        try:
            g.add_agreement(Agreement(gi, gj, lb, ub))
            budget[gi] -= lb
        except AgreementError:
            pass
    return g


@st.composite
def dag_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    names = [f"P{i}" for i in range(n)]
    caps = [draw(st.floats(min_value=0.0, max_value=1000.0)) for _ in range(n)]
    n_edges = draw(st.integers(min_value=0, max_value=n * 2))
    edges = [
        (
            draw(st.integers(min_value=0, max_value=n - 1)),
            draw(st.integers(min_value=0, max_value=n - 1)),
            draw(st.floats(min_value=0.0, max_value=0.5)),
            draw(st.floats(min_value=0.0, max_value=0.5)),
        )
        for _ in range(n_edges)
    ]
    return _random_dag(names, caps, edges)


class TestConservationProperties:
    @given(dag_graphs())
    @settings(max_examples=120, deadline=None)
    def test_mandatory_entitlements_partition_capacity(self, g):
        f = closed_form_flows(g)
        np.testing.assert_allclose(f.MI.sum(axis=0), f.V, atol=1e-6)

    @given(dag_graphs())
    @settings(max_examples=120, deadline=None)
    def test_row_sums_equal_access_levels(self, g):
        f = closed_form_flows(g)
        np.testing.assert_allclose(f.MI.sum(axis=1), f.MC, atol=1e-6)
        np.testing.assert_allclose(f.OI.sum(axis=1), f.OC, atol=1e-6)

    @given(dag_graphs())
    @settings(max_examples=80, deadline=None)
    def test_paths_equal_closed_form_on_dags(self, g):
        f1 = closed_form_flows(g)
        f2 = path_flows(g)
        np.testing.assert_allclose(f1.MI, f2.MI, atol=1e-6)
        np.testing.assert_allclose(f1.OI, f2.OI, atol=1e-6)

    @given(dag_graphs())
    @settings(max_examples=80, deadline=None)
    def test_everything_nonnegative(self, g):
        f = closed_form_flows(g)
        for arr in (f.M, f.Obar, f.MC, f.OC, f.MI, f.OI):
            assert (np.asarray(arr) >= -1e-9).all()

    @given(dag_graphs())
    @settings(max_examples=80, deadline=None)
    def test_total_mandatory_is_total_capacity(self, g):
        f = closed_form_flows(g)
        assert f.MC.sum() == pytest.approx(f.V.sum(), abs=1e-6)
