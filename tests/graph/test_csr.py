"""Unit tests for the CSR graph representation."""

import numpy as np
import pytest

from repro.errors import GraphValidationError
from repro.graph.csr import CSRGraph, build_csr_arrays


class TestConstruction:
    def test_from_edges_basic(self):
        g = CSRGraph.from_edges([(0, 1), (1, 2)])
        assert g.num_vertices == 3
        assert g.num_edges == 2
        assert list(g.neighbors_of(1)) == [0, 2]

    def test_edges_stored_both_directions(self):
        g = CSRGraph.from_edges([(0, 1)])
        assert g.has_edge(0, 1)
        assert g.has_edge(1, 0)
        assert g.neighbors.size == 2

    def test_self_loops_dropped(self):
        g = CSRGraph.from_edges([(0, 0), (0, 1), (1, 1)])
        assert g.num_edges == 1
        assert not g.has_edge(0, 0)

    def test_duplicate_edges_merged(self):
        g = CSRGraph.from_edges([(0, 1), (1, 0), (0, 1), (0, 1)])
        assert g.num_edges == 1
        assert g.degree(0) == 1

    def test_adjacency_lists_sorted(self):
        g = CSRGraph.from_edges([(2, 9), (2, 3), (2, 7), (2, 1)])
        assert list(g.neighbors_of(2)) == [1, 3, 7, 9]

    def test_num_vertices_includes_trailing_isolated(self):
        g = CSRGraph.from_edges([(0, 1)], num_vertices=5)
        assert g.num_vertices == 5
        assert g.degree(4) == 0

    def test_num_vertices_too_small_rejected(self):
        with pytest.raises(GraphValidationError):
            CSRGraph.from_edges([(0, 9)], num_vertices=3)

    def test_negative_ids_rejected(self):
        with pytest.raises(GraphValidationError):
            CSRGraph.from_edges([(-1, 2)])

    @pytest.mark.parametrize(
        "bad", [1.5, float("nan"), float("inf"), -float("inf"), 1e30]
    )
    def test_non_integral_float_ids_rejected(self, bad, recwarn):
        with pytest.raises(GraphValidationError, match="finite integers"):
            CSRGraph.from_edges([[0, bad]])
        assert not recwarn.list  # no numpy cast warning on the way

    def test_integral_float_ids_accepted(self):
        g = CSRGraph.from_edges([[0.0, 1.0]])
        assert g.neighbors.dtype == np.int64
        assert g.num_vertices == 2
        assert g.has_edge(0, 1)

    def test_bad_shape_rejected(self):
        with pytest.raises(GraphValidationError):
            CSRGraph.from_edges(np.array([[1, 2, 3]]))

    def test_empty_graph(self):
        g = CSRGraph.empty(0)
        assert g.num_vertices == 0
        assert g.num_edges == 0

    def test_empty_edge_list_with_vertices(self):
        g = CSRGraph.from_edges([], num_vertices=4)
        assert g.num_vertices == 4
        assert g.num_edges == 0

    def test_from_adjacency(self):
        g = CSRGraph.from_adjacency([[1, 2], [0], [0]])
        assert g.num_edges == 2
        assert g.degree(0) == 2

    def test_from_numpy_array(self):
        edges = np.array([[0, 1], [1, 2], [2, 0]])
        g = CSRGraph.from_edges(edges)
        assert g.num_edges == 3


class TestValidation:
    def test_offsets_must_start_at_zero(self):
        with pytest.raises(GraphValidationError):
            CSRGraph(np.array([1, 2]), np.array([0, 1]))

    def test_offsets_must_end_at_neighbor_count(self):
        with pytest.raises(GraphValidationError):
            CSRGraph(np.array([0, 3]), np.array([0]))

    def test_offsets_must_be_monotone(self):
        with pytest.raises(GraphValidationError):
            CSRGraph(np.array([0, 2, 1, 3]), np.array([1, 2, 0]))

    def test_neighbor_ids_in_range(self):
        with pytest.raises(GraphValidationError):
            CSRGraph(np.array([0, 1]), np.array([5]))

    def test_arrays_read_only(self):
        g = CSRGraph.from_edges([(0, 1)])
        with pytest.raises(ValueError):
            g.neighbors[0] = 9


class TestAccessors:
    def test_degrees(self, fig1_graph_only):
        g = fig1_graph_only
        assert np.array_equal(g.degrees, np.diff(g.offsets))
        assert g.degree(4) == 3  # vertex A: R1, R2, B

    def test_max_and_average_degree(self):
        g = CSRGraph.from_edges([(0, 1), (0, 2), (0, 3)])
        assert g.max_degree == 3
        assert g.average_degree == pytest.approx(1.5)

    def test_degree_std_regular_graph_zero(self):
        from repro.graph.examples import k_clique

        assert k_clique(5).degree_std == pytest.approx(0.0)

    def test_edges_iterates_each_once(self):
        g = CSRGraph.from_edges([(0, 1), (1, 2), (0, 2)])
        edges = sorted(g.edges())
        assert edges == [(0, 1), (0, 2), (1, 2)]

    def test_edge_array_matches_edges(self):
        g = CSRGraph.from_edges([(3, 1), (0, 2), (1, 2)])
        array_edges = sorted(map(tuple, g.edge_array().tolist()))
        assert array_edges == sorted(g.edges())

    def test_has_edge_negative(self):
        g = CSRGraph.from_edges([(0, 1), (1, 2)])
        assert not g.has_edge(0, 2)

    def test_memory_bytes_scales_with_id_width(self):
        g = CSRGraph.from_edges([(0, 1), (1, 2)])
        assert g.memory_bytes(8) == 2 * g.memory_bytes(4)


class TestInducedSubgraph:
    def test_triangle_from_square_with_diagonal(self):
        g = CSRGraph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        sub = g.induced_subgraph(np.array([0, 1, 2]))
        assert sub.num_vertices == 3
        assert sub.num_edges == 3  # the triangle 0-1-2

    def test_relabelling_is_sorted_order(self):
        g = CSRGraph.from_edges([(5, 7), (7, 9)])
        sub = g.induced_subgraph(np.array([9, 5, 7]))
        # vertices sorted: 5 -> 0, 7 -> 1, 9 -> 2
        assert sub.has_edge(0, 1)
        assert sub.has_edge(1, 2)
        assert not sub.has_edge(0, 2)

    def test_duplicate_selection_deduplicated(self):
        g = CSRGraph.from_edges([(0, 1)])
        sub = g.induced_subgraph(np.array([0, 0, 1, 1]))
        assert sub.num_vertices == 2

    def test_empty_selection(self):
        g = CSRGraph.from_edges([(0, 1)])
        sub = g.induced_subgraph(np.array([], dtype=np.int64))
        assert sub.num_vertices == 0


class TestEqualityAndRepr:
    def test_equal_graphs(self):
        a = CSRGraph.from_edges([(0, 1), (1, 2)])
        b = CSRGraph.from_edges([(1, 2), (0, 1)])
        assert a == b
        assert hash(a) == hash(b)

    def test_unequal_graphs(self):
        a = CSRGraph.from_edges([(0, 1)])
        b = CSRGraph.from_edges([(0, 2)])
        assert a != b

    def test_repr_mentions_sizes(self):
        g = CSRGraph.from_edges([(0, 1)])
        assert "|V|=2" in repr(g)


class TestBuildCsrArrays:
    def test_offsets_and_sorted_targets(self):
        offsets, neighbors = build_csr_arrays(
            3, np.array([0, 0, 1, 2]), np.array([2, 1, 0, 0])
        )
        assert offsets.tolist() == [0, 2, 3, 4]
        assert neighbors.tolist() == [1, 2, 0, 0]

    def test_vertex_without_edges(self):
        offsets, neighbors = build_csr_arrays(
            3, np.array([0, 2]), np.array([2, 0])
        )
        assert offsets.tolist() == [0, 1, 1, 2]
