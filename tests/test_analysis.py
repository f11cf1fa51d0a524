"""Tests for structural graph analysis (degeneracy, arboricity, etc.)."""

import numpy as np
import pytest

from repro import Graph
from repro.graphs.analysis import (
    arboricity_bounds,
    degeneracy,
    expected_triangles_configuration_model,
    global_clustering_coefficient,
    triangle_count,
    wedge_count,
)


def _complete(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


class TestDegeneracyAndArboricity:
    def test_tree(self):
        tree = Graph(6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5)])
        assert degeneracy(tree) == 1
        lower, upper = arboricity_bounds(tree)
        assert lower == 1 and upper == 1  # trees: delta = O(1)

    def test_complete_graph(self):
        k6 = _complete(6)
        assert degeneracy(k6) == 5
        lower, upper = arboricity_bounds(k6)
        # arboricity of K6 is ceil(6/2) = 3
        assert lower <= 3 <= upper

    def test_bounds_order(self, pareto_graph):
        lower, upper = arboricity_bounds(pareto_graph)
        assert 0 <= lower <= upper

    def test_empty(self):
        assert arboricity_bounds(Graph(1, [])) == (0, 0)

    def test_pinned_to_the_python_reference(self, monkeypatch):
        """``degeneracy``/``arboricity_bounds`` run the native
        smallest-last order when it is available; the answers are those
        of the Python bucket queue."""
        from repro import DiscretePareto, sample_degree_sequence
        from repro.engine import native
        from repro.graphs.generators import configuration_model
        from repro.orientations.degenerate import _smallest_last_python
        rng = np.random.default_rng(2017)
        degrees = sample_degree_sequence(
            DiscretePareto(1.5, 7.5).truncate(2999), 3000, rng,
            ensure_graphical=True)
        graph = configuration_model(degrees, rng)
        k, bounds = degeneracy(graph), arboricity_bounds(graph)
        assert k == _smallest_last_python(graph)[1]
        monkeypatch.setattr(native, "_lib", None)
        assert degeneracy(graph) == k
        assert arboricity_bounds(graph) == bounds


class TestTriangleStatistics:
    def test_triangle_count_matches_reference(self, bowtie_graph,
                                              k4_graph, path_graph):
        assert triangle_count(bowtie_graph) == 2
        assert triangle_count(k4_graph) == 4
        assert triangle_count(path_graph) == 0

    def test_clustering_coefficient_complete(self):
        assert global_clustering_coefficient(_complete(5)) \
            == pytest.approx(1.0)

    def test_clustering_coefficient_triangle_free(self, path_graph):
        assert global_clustering_coefficient(path_graph) == 0.0

    def test_wedge_count(self, bowtie_graph):
        # degrees [2,2,4,2,2] -> sum d(d-1)/2 = 1+1+6+1+1 = 10
        assert wedge_count(bowtie_graph) == 10

    def test_configuration_expectation_tracks_generated_graphs(self, rng):
        """Generated graphs land near the moment formula for E[T]."""
        from repro import (DiscretePareto, generate_graph,
                           sample_degree_sequence)
        dist = DiscretePareto(2.5, 45.0).truncate(31)
        degrees = sample_degree_sequence(dist, 1000, rng)
        expected = expected_triangles_configuration_model(degrees)
        counts = [triangle_count(generate_graph(degrees, rng))
                  for __ in range(5)]
        assert np.mean(counts) == pytest.approx(expected, rel=0.3)

    def test_expected_triangles_empty(self):
        assert expected_triangles_configuration_model([0, 0]) == 0.0


class TestAssortativity:
    def test_zero_for_empty_and_regular(self):
        from repro.graphs.analysis import degree_assortativity
        assert degree_assortativity(Graph(3, [])) == 0.0
        # a cycle is 2-regular: constant endpoint degrees
        cycle = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
        assert degree_assortativity(cycle) == 0.0

    def test_star_is_disassortative(self):
        from repro.graphs.analysis import degree_assortativity
        star = Graph(6, [(0, i) for i in range(1, 6)])
        assert degree_assortativity(star) < -0.9

    def test_generated_graphs_near_neutral(self, rng):
        """Residual-degree sampling stays close to degree-neutral
        (AMRC regime), like the configuration-model family it
        approximates."""
        from repro import DiscretePareto, generate_graph, \
            sample_degree_sequence
        from repro.graphs.analysis import degree_assortativity
        dist = DiscretePareto(2.2, 36.0).truncate(31)
        values = []
        for __ in range(5):
            degrees = sample_degree_sequence(dist, 1000, rng)
            values.append(degree_assortativity(
                generate_graph(degrees, rng)))
        assert abs(float(np.mean(values))) < 0.1

    def test_matches_networkx(self, pareto_graph):
        networkx = pytest.importorskip("networkx")
        from repro.graphs.analysis import degree_assortativity
        nx_graph = networkx.Graph()
        nx_graph.add_nodes_from(range(pareto_graph.n))
        nx_graph.add_edges_from(map(tuple, pareto_graph.edges.tolist()))
        expected = networkx.degree_assortativity_coefficient(nx_graph)
        assert degree_assortativity(pareto_graph) == pytest.approx(
            expected, abs=1e-6)


class TestEmpiricalSpread:
    def test_matches_spread_distribution(self, pareto_graph, rng):
        """Prop. 5 at graph level: edge-endpoint degrees follow J."""
        from repro.core.spread import SpreadDistribution
        from repro.distributions import EmpiricalDegreeDistribution
        from repro.graphs.analysis import empirical_spread_sample
        spread = SpreadDistribution(
            EmpiricalDegreeDistribution(pareto_graph.degrees))
        draws = empirical_spread_sample(pareto_graph, 50_000, rng)
        for x in (3.0, 8.0, 20.0):
            assert float(np.mean(draws <= x)) == pytest.approx(
                float(spread.cdf(x)), abs=0.02)

    def test_size_bias_visible(self, pareto_graph, rng):
        """Edge-endpoint degrees average above plain degrees."""
        from repro.graphs.analysis import empirical_spread_sample
        draws = empirical_spread_sample(pareto_graph, 20_000, rng)
        assert draws.mean() > pareto_graph.degrees.mean()

    def test_validation(self, rng):
        from repro.graphs.analysis import empirical_spread_sample
        with pytest.raises(ValueError):
            empirical_spread_sample(Graph(3, []), 10, rng)
