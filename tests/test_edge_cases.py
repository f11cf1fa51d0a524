"""Edge cases and failure injection across the stack."""

import numpy as np
import pytest

from repro import (
    DescendingDegree,
    DiscretePareto,
    Graph,
    OrientedGraph,
    UniformRandom,
    list_triangles,
    orient,
)
from repro.graphs import residual_degree_model
from repro.graphs.generators import havel_hakimi_graph


class TestDegenerateInputs:
    def test_single_node_graph(self):
        graph = Graph(1, [])
        oriented = orient(graph, DescendingDegree())
        for method in ("T1", "E1", "L1"):
            result = list_triangles(oriented, method)
            assert result.count == 0
            assert result.ops == 0

    def test_two_node_graph(self):
        graph = Graph(2, [(0, 1)])
        oriented = orient(graph, DescendingDegree())
        assert list_triangles(oriented, "E4").count == 0

    def test_all_isolated(self):
        graph = Graph(5, [])
        oriented = orient(graph, UniformRandom(),
                          rng=np.random.default_rng(0))
        assert list_triangles(oriented, "T2").count == 0

    def test_complete_graph_count(self):
        n = 10
        graph = Graph(n, [(i, j) for i in range(n)
                          for j in range(i + 1, n)])
        oriented = orient(graph, DescendingDegree())
        expected = n * (n - 1) * (n - 2) // 6
        for method in ("T1", "T3", "E1", "E4", "L5"):
            assert list_triangles(oriented, method).count == expected

    def test_orientation_of_zero_node_graph(self):
        graph = Graph(0, [])
        oriented = OrientedGraph(graph, np.array([], dtype=np.int64))
        assert oriented.n == 0


class TestFailureInjection:
    def test_havel_hakimi_fallback_engages(self, monkeypatch):
        """If swap repair dies, generation still realizes the sequence
        exactly via Havel-Hakimi."""
        import repro.graphs.generators as gen

        def broken_repair(*args, **kwargs):
            raise RuntimeError("injected failure")

        monkeypatch.setattr(gen, "_swap_repair", broken_repair)
        rng = np.random.default_rng(0)
        # a sequence whose sequential wiring occasionally leaves
        # leftovers; with the repair broken, any leftover forces the
        # fallback path -- either way the degrees must come out exact
        degrees = np.array([6, 6, 6, 3, 3, 3, 3, 3, 3] * 4)
        if degrees.sum() % 2:
            degrees[-1] -= 1
        for __ in range(5):
            graph = gen.residual_degree_model(degrees, rng)
            np.testing.assert_array_equal(graph.degrees, degrees)

    def test_non_graphic_dense_rejected_fast(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="graphic"):
            residual_degree_model(np.array([4, 4, 4, 1, 1]), rng)

    def test_havel_hakimi_rejects_non_graphic(self):
        with pytest.raises(ValueError):
            havel_hakimi_graph(np.array([4, 4, 4, 1, 1]))

    def test_model_rejects_untruncated(self):
        from repro import discrete_cost_model
        with pytest.raises(ValueError):
            discrete_cost_model(DiscretePareto(1.5, 15.0), "T1",
                                "descending")

    def test_unknown_map_name(self):
        from repro import discrete_cost_model
        dist = DiscretePareto(1.5, 15.0).truncate(50)
        with pytest.raises(ValueError, match="unknown map"):
            discrete_cost_model(dist, "T1", "spiral")

    def test_oriented_graph_rejects_corrupt_labels(self, bowtie_graph):
        with pytest.raises(ValueError):
            OrientedGraph(bowtie_graph, np.array([0, 1, 2, 3, 3]))


class TestCrossover:
    def test_ratio_regimes(self):
        from repro.core.crossover import limit_cost_ratio
        import math
        assert math.isinf(limit_cost_ratio(1.45))
        assert math.isnan(limit_cost_ratio(1.25))
        finite = limit_cost_ratio(2.0)
        assert 1.0 < finite < 50.0

    def test_crossover_monotone(self):
        """Lower speed ratios push the crossover to heavier tails --
        i.e. SEI wins on a wider alpha range when scanning is cheaper
        relative to hashing."""
        from repro.core.crossover import crossover_alpha
        # the ratio plateaus near ~3.5-4 for light tails, so only speed
        # ratios above that plateau ever get crossed
        slow_hw = crossover_alpha(speed_ratio=6.0, hi=3.0, tol=5e-3)
        fast_hw = crossover_alpha(speed_ratio=20.0, hi=3.0, tol=5e-3)
        assert fast_hw <= slow_hw
        assert 1.5 <= fast_hw <= 3.0

    def test_crossover_validation(self):
        from repro.core.crossover import crossover_alpha
        with pytest.raises(ValueError):
            crossover_alpha(speed_ratio=-1.0)
        with pytest.raises(ValueError):
            # ratio at hi=1.6 still far above a tiny speed ratio
            crossover_alpha(speed_ratio=1.01, hi=1.6)
