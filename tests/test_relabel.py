"""Tests for the relabel + orient preprocessing (section 2.1)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import AscendingDegree, DescendingDegree, Graph, orient
from repro.orientations import labels_from_rank_map
from repro.orientations.relabel import degree_ranking, random_tie_ranking


class TestDegreeRanking:
    """``degree_ranking`` is the int64 stable argsort, ties included,
    whichever narrow dtype it sorts in."""

    @given(degrees=st.lists(st.integers(0, 40), max_size=300),
           top=st.sampled_from([0, 255, 256, 2**16 - 1, 2**16, 2**20,
                                2**40]))
    @settings(max_examples=200, deadline=None)
    def test_equals_int64_stable_argsort(self, degrees, top):
        # many ties, with a maximum on each side of the 8-, 16- and
        # 32-bit boundaries
        degrees = np.array(degrees + [top] + degrees, dtype=np.int64)
        ranking = degree_ranking(degrees)
        np.testing.assert_array_equal(
            ranking, np.argsort(degrees, kind="stable"))
        assert ranking.dtype == np.intp

    def test_empty_and_negative(self):
        assert degree_ranking(np.array([], dtype=np.int64)).size == 0
        degrees = np.array([3, -1, 3, 0, -1])
        np.testing.assert_array_equal(
            degree_ranking(degrees), np.argsort(degrees, kind="stable"))


class TestRandomTieRanking:
    """``random_tie_ranking`` is ``np.lexsort((jitter, degrees))``,
    including when jitters tie (where lexsort falls back to vertex
    ID)."""

    @given(degrees=st.lists(st.integers(0, 6), min_size=1, max_size=200),
           data=st.data(), pool=st.integers(1, 8))
    @settings(max_examples=200, deadline=None)
    def test_equals_lexsort_with_tied_jitters(self, degrees, data, pool):
        # jitters from a pool of at most 8 values: ties are the rule
        values = data.draw(st.lists(
            st.floats(0.0, 1.0, exclude_max=True), min_size=pool,
            max_size=pool))
        jitter = np.array(data.draw(st.lists(
            st.sampled_from(values), min_size=len(degrees),
            max_size=len(degrees))))
        degrees = np.array(degrees, dtype=np.int64)
        np.testing.assert_array_equal(
            random_tie_ranking(degrees, jitter),
            np.lexsort((jitter, degrees)))

    @pytest.mark.parametrize("n", [1, 2, 1000])
    def test_equals_lexsort_on_uniform_jitter(self, n):
        rng = np.random.default_rng(n)
        degrees = rng.integers(0, 20, n)
        jitter = rng.random(n)
        np.testing.assert_array_equal(random_tie_ranking(degrees, jitter),
                                      np.lexsort((jitter, degrees)))


class TestLabelsFromRankMap:
    def test_identity_theta_sorts_by_degree(self):
        degrees = np.array([5, 1, 3])
        labels = labels_from_rank_map(degrees, np.array([0, 1, 2]))
        # vertex 1 (deg 1) -> rank 0 -> label 0; vertex 2 -> 1; vertex 0 -> 2
        np.testing.assert_array_equal(labels, [2, 0, 1])

    def test_reversed_theta(self):
        degrees = np.array([5, 1, 3])
        labels = labels_from_rank_map(degrees, np.array([2, 1, 0]))
        np.testing.assert_array_equal(labels, [0, 2, 1])

    def test_stable_tie_break(self):
        degrees = np.array([2, 2, 2])
        labels = labels_from_rank_map(degrees, np.array([0, 1, 2]))
        np.testing.assert_array_equal(labels, [0, 1, 2])

    def test_random_tie_break_needs_rng(self):
        with pytest.raises(ValueError, match="rng"):
            labels_from_rank_map(np.array([1, 1]), np.array([0, 1]),
                                 tie_break="random")

    def test_random_tie_break_varies(self):
        degrees = np.ones(30, dtype=np.int64)
        theta = np.arange(30)
        rng = np.random.default_rng(0)
        outcomes = {tuple(labels_from_rank_map(degrees, theta, rng=rng,
                                               tie_break="random"))
                    for __ in range(10)}
        assert len(outcomes) > 1

    def test_unknown_tie_break(self):
        with pytest.raises(ValueError, match="tie_break"):
            labels_from_rank_map(np.array([1, 2]), np.array([0, 1]),
                                 tie_break="coin")

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            labels_from_rank_map(np.array([1, 2, 3]), np.array([0, 1]))


class TestOrient:
    def test_descending_gives_hubs_small_labels(self):
        star = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        oriented = orient(star, DescendingDegree())
        hub_label = oriented.labels[0] if hasattr(oriented, "labels") else None
        assert oriented.labels[0] == 0  # the hub gets label 0
        assert int(oriented.out_degrees[0]) == 0
        assert int(oriented.in_degrees[0]) == 4

    def test_ascending_gives_hubs_large_labels(self):
        star = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        oriented = orient(star, AscendingDegree())
        assert oriented.labels[0] == 4
        assert int(oriented.out_degrees[4]) == 4

    def test_descending_minimizes_t1_over_ascending(self, pareto_graph):
        from repro.core.costs import method_cost
        desc = orient(pareto_graph, DescendingDegree())
        asc = orient(pareto_graph, AscendingDegree())
        assert method_cost(desc, "T1") < method_cost(asc, "T1")
