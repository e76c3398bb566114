"""The dual and branch-incidence graphs of the catalog, and the profile's
K^-1 rank, the loop rank read off the type, checked against them."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kodaira import KodairaType, build, catalog_types, classify, invariant_profile
from oracles import (
    bipartite_graph,
    cycle_rank_by_spanning_forest,
    dual_graph,
    first_betti,
    reduce,
    reference_cycle,
    reference_dstar,
    reference_estar,
)


class TestDualGraph:
    def test_cycle_type_gives_cycle_graph(self):
        g = dual_graph(build(KodairaType("I", 4)))
        assert g.number_of_nodes() == 4
        assert g.number_of_edges() == 4
        assert nx.is_isomorphic(g, reference_cycle(4))

    def test_smooth_elliptic_gives_one_vertex(self):
        g = dual_graph(build(KodairaType("I", 0)))
        assert g.number_of_nodes() == 1
        assert g.number_of_edges() == 0

    def test_ivstar_reduction_is_a_seven_vertex_tree(self):
        g = dual_graph(reduce(build(KodairaType("IVStar"))))
        assert g.number_of_nodes() == 7
        assert g.number_of_edges() == 6
        assert first_betti(g) == 0
        degrees = sorted(d for _, d in g.degree())
        assert degrees == [1, 1, 1, 2, 2, 2, 3]

    def test_intrinsic_node_gives_self_loop(self):
        g = dual_graph(build(KodairaType("I", 1)))
        assert list(g.edges()) == [("c1", "c1")]

    def test_cusp_gives_no_edge(self):
        g = dual_graph(build(KodairaType("II")))
        assert g.number_of_edges() == 0


class TestBipartiteGraph:
    def test_nodal_curve_has_two_parallel_edges(self):
        g = bipartite_graph(build(KodairaType("I", 1)))
        assert g.number_of_nodes() == 2
        assert g.number_of_edges() == 2
        assert len(set(g.edges())) == 1

    def test_smooth_elliptic_is_a_single_vertex(self):
        g = bipartite_graph(build(KodairaType("I", 0)))
        assert g.number_of_nodes() == 1
        assert g.number_of_edges() == 0

    def test_tacnode_preimage_is_one_point_per_branch(self):
        g = bipartite_graph(build(KodairaType("III")))
        assert g.number_of_nodes() == 3
        assert g.number_of_edges() == 2

    def test_cusp_has_a_single_branch(self):
        g = bipartite_graph(build(KodairaType("II")))
        assert g.number_of_nodes() == 2
        assert g.number_of_edges() == 1

    @pytest.mark.parametrize("kind", catalog_types(6, 2))
    def test_every_edge_joins_point_to_component(self, kind):
        g = bipartite_graph(reduce(build(kind)))
        for a, b in g.edges():
            assert sorted((a[0], b[0])) in (["c", "i"], ["c", "p"]), (a, b)

    def test_point_named_like_an_intrinsic_label_does_not_collide(self):
        from kodaira import Component, CurveConfiguration, IntrinsicType, SingularPoint
        from kodaira import LocalType

        config = CurveConfiguration(
            (
                Component("c1", 1, 0, 0, (IntrinsicType.NODE,)),
                Component("other", 1, 0, -2),
            ),
            (SingularPoint("c1.0", LocalType.TRANSVERSE, ("c1", "other")),),
        )
        assert bipartite_graph(config).number_of_nodes() == 4


class TestFirstBetti:
    @pytest.mark.parametrize("n", range(2, 12))
    def test_cycles_have_betti_one(self, n):
        assert first_betti(dual_graph(build(KodairaType("I", n)))) == 1

    def test_tree(self):
        tree = nx.MultiGraph([("a", "b"), ("b", "c")])
        assert first_betti(tree) == 0

    def test_branch_incidence_graph_of_nodal_curve(self):
        assert first_betti(bipartite_graph(build(KodairaType("I", 1)))) == 1

    def test_disconnected_graph_counts_components(self):
        g = nx.MultiGraph([("a", "b"), ("c", "d")])
        assert first_betti(g) == 0
        g2 = nx.MultiGraph([("a", "b"), ("a", "b"), ("a", "a")])
        assert first_betti(g2) == 2


@st.composite
def random_multigraphs(draw):
    n = draw(st.integers(1, 8))
    graph = nx.MultiGraph()
    graph.add_nodes_from(range(n))
    for _ in range(draw(st.integers(0, 14))):
        graph.add_edge(draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)))
    return graph


@settings(max_examples=120, deadline=None)
@given(random_multigraphs())
def test_first_betti_matches_spanning_forest_oracle(graph):
    """The two cycle-rank oracles agree."""
    assert first_betti(graph) == cycle_rank_by_spanning_forest(graph)


def _loop_rank(kind):
    """The profile's K^-1 rank, and the cycle rank of the reduced curve's
    branch-incidence graph by both oracles."""
    graph = bipartite_graph(reduce(build(kind)))
    return (
        invariant_profile(build(kind)).k_minus_one_rank,
        first_betti(graph),
        cycle_rank_by_spanning_forest(graph),
    )


class TestLoopRank:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_cycles_have_loop_rank_one(self, n):
        assert _loop_rank(KodairaType("I", n)) == (1, 1, 1)

    @pytest.mark.parametrize("m", range(2, 5))
    @pytest.mark.parametrize("n", range(1, 6))
    def test_multiple_cycles_have_loop_rank_one(self, m, n):
        assert _loop_rank(KodairaType("mI", n, m)) == (1, 1, 1)

    @pytest.mark.parametrize(
        "kind",
        [KodairaType("I", 0), KodairaType("II"), KodairaType("III"), KodairaType("IV")]
        + [KodairaType("IStar", n) for n in range(6)]
        + [KodairaType("IIStar"), KodairaType("IIIStar"), KodairaType("IVStar")]
        + [KodairaType("mI", 0, m) for m in range(2, 5)],
    )
    def test_all_other_types_have_no_loops(self, kind):
        assert _loop_rank(kind) == (0, 0, 0)

    @pytest.mark.parametrize("kind", catalog_types(8, 3))
    def test_invariant_under_reduction(self, kind):
        """The cycle rank of the reduced curve, and its own K^-1 rank where
        the reduced curve is a fiber (the cycles; a reduced star is none)."""
        rank, by_betti, _ = _loop_rank(kind)
        assert rank == by_betti
        reduced = reduce(build(kind))
        if classify(reduced) is not None:
            assert invariant_profile(reduced).k_minus_one_rank == rank


class TestOdaSeshadriCount:
    @pytest.mark.parametrize("n", range(2, 15))
    def test_transverse_only_betti_equals_points_minus_components_plus_one(self, n):
        config = build(KodairaType("I", n))
        g = dual_graph(config)
        assert first_betti(g) == len(config.points) - config.n_components + 1

    @pytest.mark.parametrize(
        "kind",
        [KodairaType("IStar", n) for n in range(8)] + [KodairaType("IIStar")],
    )
    def test_star_reductions_are_trees(self, kind):
        config = reduce(build(kind))
        g = dual_graph(config)
        assert first_betti(g) == len(config.points) - config.n_components + 1 == 0


class TestAffineShapes:
    @pytest.mark.parametrize("n", range(2, 12))
    def test_cycle_duals_match_reference(self, n):
        g = dual_graph(reduce(build(KodairaType("mI", n, 2))))
        assert nx.is_isomorphic(g, reference_cycle(n))

    @pytest.mark.parametrize("n", range(0, 12))
    def test_istar_duals_match_reference(self, n):
        g = dual_graph(reduce(build(KodairaType("IStar", n))))
        assert nx.is_isomorphic(g, reference_dstar(n))

    @pytest.mark.parametrize(
        "family,arms",
        [("IVStar", (2, 2, 2)), ("IIIStar", (3, 3, 1)), ("IIStar", (5, 2, 1))],
    )
    def test_estar_duals_match_reference(self, family, arms):
        g = dual_graph(reduce(build(KodairaType(family))))
        assert nx.is_isomorphic(g, reference_estar(arms))

