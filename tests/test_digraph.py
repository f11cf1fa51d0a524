"""Tests for the relabeled, oriented digraph G(theta)."""

import numpy as np
import pytest

from repro import (
    AscendingDegree,
    DescendingDegree,
    Graph,
    OrientedGraph,
    orient,
    reverse_permutation,
)


class TestOrientation:
    def test_out_neighbors_have_smaller_labels(self, pareto_graph):
        oriented = orient(pareto_graph, DescendingDegree())
        for i in range(oriented.n):
            outs = oriented.out_neighbors(i)
            assert np.all(outs < i)
            ins = oriented.in_neighbors(i)
            assert np.all(ins > i)

    def test_lists_sorted(self, pareto_graph):
        oriented = orient(pareto_graph, AscendingDegree())
        for i in range(oriented.n):
            assert np.all(np.diff(oriented.out_neighbors(i)) > 0)
            assert np.all(np.diff(oriented.in_neighbors(i)) > 0)

    def test_degree_split(self, pareto_graph):
        """X_i + Y_i equals the undirected degree of the relabeled node."""
        oriented = orient(pareto_graph, DescendingDegree())
        for label in range(oriented.n):
            v = oriented.original_vertex(label)
            assert oriented.degrees[label] == pareto_graph.degrees[v]

    def test_total_out_equals_total_in_equals_m(self, pareto_graph):
        oriented = orient(pareto_graph, DescendingDegree())
        assert int(oriented.out_degrees.sum()) == pareto_graph.m
        assert int(oriented.in_degrees.sum()) == pareto_graph.m

    def test_acyclicity(self, pareto_graph):
        """Every edge strictly decreases the label: trivially acyclic."""
        oriented = orient(pareto_graph, AscendingDegree())
        for i in range(oriented.n):
            for j in oriented.out_neighbors(i):
                assert j < i

    def test_identity_labels(self, triangle_graph):
        oriented = OrientedGraph(triangle_graph, [0, 1, 2])
        np.testing.assert_array_equal(oriented.out_neighbors(2), [0, 1])
        np.testing.assert_array_equal(oriented.in_neighbors(0), [1, 2])
        assert oriented.out_neighbors(0).size == 0

    def test_invalid_labels(self, triangle_graph):
        with pytest.raises(ValueError):
            OrientedGraph(triangle_graph, [0, 1])  # wrong shape
        with pytest.raises(ValueError):
            OrientedGraph(triangle_graph, [0, 0, 1])  # not a bijection
        with pytest.raises(ValueError):
            OrientedGraph(triangle_graph, [1, 2, 3])  # wrong range

    def test_edge_key_set(self, triangle_graph):
        oriented = OrientedGraph(triangle_graph, [0, 1, 2])
        n = 3
        assert oriented.edge_key_set() == {1 * n + 0, 2 * n + 0, 2 * n + 1}

    def test_has_directed_edge(self, triangle_graph):
        oriented = OrientedGraph(triangle_graph, [0, 1, 2])
        assert oriented.has_directed_edge(2, 1)
        assert not oriented.has_directed_edge(2, 2)

    def test_original_vertex_roundtrip(self, pareto_graph, rng):
        labels = rng.permutation(pareto_graph.n)
        oriented = OrientedGraph(pareto_graph, labels)
        for v in range(0, pareto_graph.n, 17):
            assert oriented.original_vertex(int(labels[v])) == v


class TestReversalProposition:
    def test_proposition_1_swaps_x_and_y(self, pareto_graph):
        """Prop. 1: reversing theta swaps out- and in-degrees.

        Node with label i under theta has label n-1-i under theta'; its
        out-degree under theta equals its in-degree under theta'.
        """
        perm = DescendingDegree()
        oriented = orient(pareto_graph, perm)
        reversed_oriented = orient(pareto_graph, reverse_permutation(perm))
        n = pareto_graph.n
        flipped = n - 1 - np.arange(n)
        np.testing.assert_array_equal(
            oriented.out_degrees, reversed_oriented.in_degrees[flipped])
        np.testing.assert_array_equal(
            oriented.in_degrees, reversed_oriented.out_degrees[flipped])


class TestCSRBuild:
    """The one-sort out/in CSR build matches a lexsort reference."""

    @staticmethod
    def _reference(graph, labels):
        a = labels[graph.edges[:, 0]]
        b = labels[graph.edges[:, 1]]
        src, dst = np.maximum(a, b), np.minimum(a, b)
        out = []
        for rows, cols in ((src, dst), (dst, src)):
            order = np.lexsort((cols, rows))
            counts = np.bincount(rows, minlength=graph.n)
            out.append((cols[order],
                        np.concatenate([[0], np.cumsum(counts)]), counts))
        return out

    def _check(self, graph, labels):
        oriented = OrientedGraph(graph, labels)
        (out_idx, out_ptr, out_deg), (in_idx, in_ptr, in_deg) = \
            self._reference(graph, np.asarray(labels, dtype=np.int64))
        np.testing.assert_array_equal(oriented.out_csr()[0], out_idx)
        np.testing.assert_array_equal(oriented.out_csr()[1], out_ptr)
        np.testing.assert_array_equal(oriented.in_csr()[0], in_idx)
        np.testing.assert_array_equal(oriented.in_csr()[1], in_ptr)
        np.testing.assert_array_equal(oriented.out_degrees, out_deg)
        np.testing.assert_array_equal(oriented.in_degrees, in_deg)
        for arr in (*oriented.out_csr(), *oriented.in_csr()):
            assert arr.dtype == np.int64
        return oriented

    @pytest.mark.parametrize("seed", range(5))
    def test_shuffled_edges_match_lexsort(self, pareto_graph, seed):
        rng = np.random.default_rng(seed)
        edges = pareto_graph.edges[rng.permutation(pareto_graph.m)]
        flip = rng.random(len(edges)) < 0.5
        edges[flip] = edges[flip][:, ::-1]
        graph = Graph(pareto_graph.n, edges)
        oriented = self._check(graph, rng.permutation(graph.n))
        # the key arrays stay lazy and still decode the CSR
        assert oriented._out_keys is None and oriented._in_keys is None
        assert np.all(np.diff(oriented.out_key_array()) > 0)
        assert np.all(np.diff(oriented.in_key_array()) > 0)

    @pytest.mark.parametrize("n, edges", [
        (0, []), (4, []), (6, [(5, 1), (0, 5)]),
    ], ids=["n=0", "m=0", "isolated-vertices"])
    def test_degenerate_shapes(self, n, edges):
        self._check(Graph(n, edges), np.arange(n)[::-1])

    def test_invalid_labels_message(self, triangle_graph):
        for labels in ([0, 0, 1], [1, 2, 3], [-1, 0, 1], [0, 1, 1]):
            with pytest.raises(ValueError, match="permutation"):
                OrientedGraph(triangle_graph, labels)
