"""The degenerate totals of (7)-(9) from the smallest-last peel.

When the peel deletes a vertex, its neighbours still present are
deleted later and get smaller labels, so the degree it is deleted at
is its out-degree ``X`` under the degenerate labels. The totals under
those labels are therefore ``component_ops(X, d - X)``, with no walk
over the edges: :func:`repro.orientations.degenerate.smallest_last_peel`
returns ``X``, and the exact planner and
:func:`repro.experiments.harness.instance_cost` price the degenerate
orientation from it. These tests pin, on the compiled peel and with the
library gated, that those totals equal the key-walking
:func:`~repro.orientations.relabel.orientation_totals` under
``DegenerateOrder().labels_for(graph)`` and the ``ops`` the
instrumented Python T1/T2/T3 listers count on that orientation.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import DiscretePareto, Graph, sample_degree_sequence
from repro.core.costs import component_ops, per_node_cost
from repro.distributions.truncation import linear_truncation
from repro.engine import native
from repro.experiments.harness import SimulationSpec, instance_cost
from repro.graphs.digraph import OrientedGraph
from repro.graphs.generators import configuration_model
from repro.listing.api import list_triangles
from repro.orientations.degenerate import DegenerateOrder, smallest_last_peel
from repro.orientations.relabel import orientation_totals


def _graph(n, edges):
    return Graph(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2))


def _shape(kind, size, seed):
    """One graph of a named shape; ``size`` and ``seed`` vary it."""
    if kind == "empty":
        return Graph(0, [])
    if kind == "isolated":
        return Graph(size, [])
    if kind == "star":
        return _graph(size + 1, [(0, i) for i in range(1, size + 1)])
    if kind == "clique":
        k = size % 10 + 1
        return _graph(k, [(i, j) for i in range(k) for j in range(i + 1, k)])
    if kind == "bipartite":
        a, b = size % 5 + 1, size % 7 + 1
        return _graph(a + b, [(i, a + j) for i in range(a)
                              for j in range(b)])
    rng = np.random.default_rng(seed)
    n = size + 10
    alpha = (1.1, 1.5, 1.7, 2.5)[seed % 4]
    dist = DiscretePareto(alpha, 15.0 * (alpha - 1)).truncate(n - 1)
    degrees = sample_degree_sequence(dist, n, rng, ensure_graphical=True)
    return configuration_model(degrees, rng)


SHAPES = ["empty", "isolated", "star", "clique", "bipartite", "pareto"]


@pytest.fixture(params=["native", "gated"])
def peel_path(request, monkeypatch):
    """Run a test on the compiled peel and with the library gated."""
    if request.param == "native" and not native.available():
        pytest.skip("no C toolchain / native gated")
    if request.param == "gated":
        monkeypatch.setattr(native, "_lib", None)
    return request.param


@given(kind=st.sampled_from(SHAPES),
       size=st.integers(min_value=0, max_value=40),
       seed=st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_peel_totals_equal_the_walk_and_the_listers(peel_path, kind, size,
                                                    seed):
    graph = _shape(kind, size, seed)
    __, __, x = smallest_last_peel(graph)
    assert x.dtype == np.int64 and x.shape == (graph.n,)
    totals = component_ops(x, graph.degrees - x)
    labels = DegenerateOrder().labels_for(graph)
    walked = orientation_totals(graph, labels)[0].tolist()
    assert [totals["T1"], totals["T2"], totals["T3"]] == walked
    oriented = OrientedGraph(graph, labels)
    np.testing.assert_array_equal(oriented.out_degrees[labels], x)
    for method in ("T1", "T2", "T3"):
        result = list_triangles(oriented, method, engine="python")
        assert result.ops == totals[method]


def test_labels_with_out_degrees_matches_labels_for(peel_path):
    graph = _shape("pareto", 120, 3)
    labels, x = DegenerateOrder().labels_with_out_degrees(graph)
    np.testing.assert_array_equal(labels,
                                  DegenerateOrder().labels_for(graph))
    oriented = OrientedGraph(graph, labels)
    np.testing.assert_array_equal(x, oriented.out_degrees[labels])


@pytest.mark.parametrize("method", ["T1", "E1", "L3"])
def test_instance_cost_prices_the_peel(peel_path, method):
    """The cell step's degenerate cost equals the oriented graph's."""
    spec = SimulationSpec(
        base_dist=DiscretePareto.paper_parameterization(1.5),
        truncation=linear_truncation, method=method,
        permutation=DegenerateOrder(), limit_map="descending",
        generator="configuration")
    graph = _shape("pareto", 200, 8)
    oriented = OrientedGraph(graph, DegenerateOrder().labels_for(graph))
    assert instance_cost(spec, graph, np.random.default_rng(0)) == \
        per_node_cost(method, oriented.out_degrees, oriented.in_degrees)
