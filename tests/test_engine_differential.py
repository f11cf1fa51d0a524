"""Differential suite: the Python reference against the native engine.

The instrumented Python listers are the ground truth for the paper's
cost metric; the native engine lists the same triangles with one
method-independent kernel and prices each method in closed form. Over
Hypothesis-drawn graphs of every shape that breaks listing code
(empty, isolated nodes, stars, cliques, complete bipartite and other
triangle-free graphs, small Pareto graphs), every method and every
ordering of :data:`repro.orientations.NAMED_ORDERINGS`, these tests
pin that

* ``engine="python"`` and ``engine="native"`` agree on ``count``,
  ``ops``, ``hash_inserts`` and the triangle set, collecting and
  counting, at 1 and 2 threads and at two block decompositions
  (:data:`repro.engine.native.DEFAULT_BLOCKS`);
* the closed forms of eqs. (7)-(9) -- :func:`repro.core.costs.component_ops`,
  :func:`repro.engine.native.oriented_sums` and
  :func:`repro.orientations.relabel.orientation_totals` -- equal the
  ``ops`` the instrumented T1/T2/T3 listers count.

Native cases skip where no C toolchain exists or under
``REPRO_NATIVE=0``; the closed forms are also checked with the library
gated.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import DiscretePareto, Graph, sample_degree_sequence
from repro.core.costs import component_ops
from repro.engine import native
from repro.graphs.digraph import OrientedGraph
from repro.graphs.generators import configuration_model
from repro.listing.api import ALL_METHODS, list_triangles
from repro.orientations import NAMED_ORDERINGS
from repro.orientations.relabel import orient, orientation_totals

needs_native = pytest.mark.skipif(not native.available(),
                                  reason="no C toolchain / native gated")

#: Two block decompositions: a few blocks (most of them empty or
#: holding one hub on small graphs) and the library default.
BLOCKS = (3, native.DEFAULT_BLOCKS)


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
        k = size % 9 + 1
        return _graph(k, [(i, j) for i in range(k) for j in range(i + 1, k)])
    if kind == "bipartite":
        a, b = size % 5 + 1, size % 7 + 1
        return _graph(a + b, [(i, a + j) for i in range(a)
                              for j in range(b)])
    if kind == "triangle-free":
        # an even cycle with a pendant path: bipartite, so no triangle
        k = 2 * (size % 10) + 4
        edges = [(i, (i + 1) % k) for i in range(k)]
        return _graph(k + 2, edges + [(0, k), (k, k + 1)])
    rng = np.random.default_rng(seed)
    n = size + 10
    alpha = (1.1, 1.5, 1.7, 2.5)[seed % 4]
    dist = DiscretePareto(alpha, 15.0 * (alpha - 1)).truncate(n - 1)
    degrees = sample_degree_sequence(dist, n, rng, ensure_graphical=True)
    return configuration_model(degrees, rng)


SHAPES = ["empty", "isolated", "star", "clique", "bipartite",
          "triangle-free", "pareto"]

GRAPHS = dict(kind=st.sampled_from(SHAPES),
              size=st.integers(min_value=0, max_value=30),
              seed=st.integers(min_value=0, max_value=2**31 - 1))


def _orientations(graph, seed):
    """``(name, OrientedGraph)`` under every named ordering."""
    for name, ordering in NAMED_ORDERINGS.items():
        yield name, orient(graph, ordering(),
                           rng=np.random.default_rng(seed))


@pytest.fixture(params=["native", "gated"])
def library(request, monkeypatch):
    """Run a test on the compiled library and with it gated."""
    if request.param == "native" and not native.available():
        pytest.skip("no C toolchain / native gated")
    if request.param == "gated":
        monkeypatch.setattr(native, "_lib", None)
    return request.param


@needs_native
@given(**GRAPHS)
@settings(max_examples=30, deadline=None)
def test_python_and_native_agree(kind, size, seed):
    graph = _shape(kind, size, seed)
    for name, oriented in _orientations(graph, seed):
        refs = {m: list_triangles(oriented, m, engine="python")
                for m in ALL_METHODS}
        expected = set(refs["T1"].triangles)
        for ref in refs.values():
            assert set(ref.triangles) == expected, name
        for blocks in BLOCKS:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(native, "DEFAULT_BLOCKS", blocks)
                # a fresh graph: the block decomposition is cached on it
                fresh = OrientedGraph(graph, oriented.labels)
                for threads in (1, 2):
                    mp.setenv("REPRO_NATIVE_THREADS", str(threads))
                    for method, ref in refs.items():
                        case = (name, blocks, threads, method)
                        listed = list_triangles(fresh, method,
                                                engine="native")
                        counted = list_triangles(fresh, method,
                                                 collect=False,
                                                 engine="native")
                        assert native.last_stats()["blocks"] == min(
                            blocks, max(graph.n, 1)), case
                        for result in (listed, counted):
                            assert result.extra["engine"] == "native"
                            assert (result.count, result.ops,
                                    result.hash_inserts) == (
                                ref.count, ref.ops, ref.hash_inserts), case
                        assert len(listed.triangles) == listed.count
                        assert set(listed.triangles) == expected, case


@given(**GRAPHS)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_closed_forms_equal_the_instrumented_counters(library, kind, size,
                                                      seed):
    graph = _shape(kind, size, seed)
    for name, oriented in _orientations(graph, seed):
        counted = {c: list_triangles(oriented, c, collect=False,
                                     engine="python").ops
                   for c in ("T1", "T2", "T3")}
        assert component_ops(oriented.out_degrees,
                             oriented.in_degrees) == counted, name
        row = [counted["T1"], counted["T2"], counted["T3"]]
        labels = oriented.labels[np.newaxis]
        assert orientation_totals(graph, labels).tolist() == [row], name
        sums = native.oriented_sums(graph.keys, graph.degrees, labels)
        assert (sums is None) is (library == "gated"), name
        if sums is not None:
            assert sums.tolist() == [row], name
