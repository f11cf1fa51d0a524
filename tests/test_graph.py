"""Tests for the undirected CSR graph."""

import numpy as np
import pytest

from repro import Graph


class TestConstruction:
    def test_basic_counts(self, bowtie_graph):
        assert bowtie_graph.n == 5
        assert bowtie_graph.m == 6
        np.testing.assert_array_equal(bowtie_graph.degrees, [2, 2, 4, 2, 2])

    def test_neighbors_sorted(self, bowtie_graph):
        """Section 2's standing assumption: lists sorted ascending."""
        for v in range(bowtie_graph.n):
            nbrs = bowtie_graph.neighbors(v)
            assert np.all(np.diff(nbrs) > 0)

    def test_neighbors_content(self, bowtie_graph):
        np.testing.assert_array_equal(bowtie_graph.neighbors(2),
                                      [0, 1, 3, 4])
        np.testing.assert_array_equal(bowtie_graph.neighbors(0), [1, 2])

    def test_edges_canonical(self):
        g = Graph(3, [(2, 0), (1, 2)])
        assert set(map(tuple, g.edges.tolist())) == {(0, 2), (1, 2)}

    def test_empty_graph(self):
        g = Graph(4, [])
        assert g.m == 0
        np.testing.assert_array_equal(g.degrees, [0, 0, 0, 0])
        assert g.neighbors(0).size == 0

    def test_isolated_nodes_allowed(self):
        g = Graph(5, [(0, 1)])
        assert g.degrees[4] == 0

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(3, [(1, 1)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(3, [(0, 1), (1, 0)])
        with pytest.raises(ValueError, match="duplicate"):
            Graph(3, [(0, 1), (0, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(3, [(0, 3)])
        with pytest.raises(ValueError):
            Graph(3, [(-1, 0)])

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            Graph(-1, [])

    def test_from_edge_list_infers_n(self):
        g = Graph.from_edge_list([(0, 4), (1, 2)])
        assert g.n == 5
        assert g.m == 2


class TestQueries:
    def test_has_edge(self, bowtie_graph):
        assert bowtie_graph.has_edge(0, 1)
        assert bowtie_graph.has_edge(1, 0)
        assert not bowtie_graph.has_edge(0, 3)
        assert not bowtie_graph.has_edge(2, 2)

    def test_has_edge_returns_python_bool(self, bowtie_graph):
        assert bowtie_graph.has_edge(0, 1) is True
        assert bowtie_graph.has_edge(0, 3) is False
        assert bowtie_graph.has_edge(2, 2) is False
        assert bowtie_graph.has_edge(0, 4) is False  # past every neighbour

    def test_adjacency_sets(self, triangle_graph):
        sets = triangle_graph.adjacency_sets()
        assert sets == [{1, 2}, {0, 2}, {0, 1}]

    def test_triangle_count_reference(self, triangle_graph, k4_graph,
                                      bowtie_graph, path_graph):
        assert triangle_graph.triangle_count_reference() == 1
        assert k4_graph.triangle_count_reference() == 4
        assert bowtie_graph.triangle_count_reference() == 2
        assert path_graph.triangle_count_reference() == 0

    def test_degree_sum_is_2m(self, pareto_graph):
        assert int(pareto_graph.degrees.sum()) == 2 * pareto_graph.m


def _lexsort_csr(n, edges):
    """Reference CSR: two-key lexsort over both edge directions."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    heads = np.concatenate([edges[:, 0], edges[:, 1]])
    tails = np.concatenate([edges[:, 1], edges[:, 0]])
    order = np.lexsort((tails, heads))
    counts = np.bincount(heads, minlength=n)
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    return tails[order], indptr, counts


class TestCSRBuild:
    """The one-sort CSR build matches a lexsort reference exactly."""

    @pytest.mark.parametrize("seed", range(5))
    def test_shuffled_edges_match_lexsort(self, seed):
        rng = np.random.default_rng(seed)
        n = 60
        pairs = np.array([(u, v) for u in range(n) for v in range(u + 1, n)])
        edges = pairs[rng.choice(len(pairs), size=400, replace=False)]
        flip = rng.random(len(edges)) < 0.5
        edges[flip] = edges[flip][:, ::-1]  # either orientation
        g = Graph(n, edges)
        indices, indptr, degrees = _lexsort_csr(n, edges)
        g_indices, g_indptr = g.csr()
        np.testing.assert_array_equal(g_indices, indices)
        np.testing.assert_array_equal(g_indptr, indptr)
        np.testing.assert_array_equal(g.degrees, degrees)
        assert g_indices.dtype == g_indptr.dtype == np.int64

    @pytest.mark.parametrize("n, edges", [
        (0, []), (4, []), (6, [(5, 1), (0, 5)]),
    ], ids=["n=0", "m=0", "isolated-vertices"])
    def test_degenerate_shapes(self, n, edges):
        g = Graph(n, edges)
        indices, indptr, degrees = _lexsort_csr(n, edges)
        g_indices, g_indptr = g.csr()
        np.testing.assert_array_equal(g_indices, indices)
        np.testing.assert_array_equal(g_indptr, indptr)
        np.testing.assert_array_equal(g.degrees, degrees)
        assert g_indptr.shape == (n + 1,)

    @pytest.mark.parametrize("edges", [
        [(0, 1), (2, 3), (1, 0)],
        [(3, 2), (0, 1), (3, 2)],
        [(4, 0), (1, 2), (0, 3), (0, 4)],
    ])
    def test_duplicates_in_either_orientation_rejected(self, edges):
        with pytest.raises(ValueError,
                           match="duplicate edges are not allowed"):
            Graph(5, edges)
