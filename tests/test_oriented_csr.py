"""``OrientedGraph``'s CSR from the edge keys, differentially.

:class:`~repro.graphs.digraph.OrientedGraph` builds its out- and in-CSR
in one place, ``digraph._oriented_csr``: the native counting pass over
the graph's sorted keys (``native.oriented_csr``) when the compiled
library is available, else the sorting reference
(``digraph._sorted_oriented_csr``). These tests hold three builds
against each other -- the native pass, the reference (with
``native.available`` patched off) and an independent ``np.lexsort``
build written here -- element for element and dtype for dtype:

* on fixed shapes (empty, isolated vertices, star, clique, complete
  bipartite, triangle-free, Pareto) under every named ordering, a
  uniform-random one and the degenerate one, and on Hypothesis-drawn
  graphs and label maps;
* the listing counters (count, ``ops``, ``hash_inserts``, triangle set)
  on both builds;
* labels out of range raise ValueError from the native wrapper, and
  labels that are no permutation from ``OrientedGraph`` on either path
  (malformed keys are in ``test_graph_keys.py``, with the other key
  kernels).

The reference-versus-lexsort tests run everywhere (also under
``REPRO_NATIVE=0``); the native ones skip where no C toolchain exists.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import DiscretePareto, Graph, UniformRandom, sample_degree_sequence
from repro.engine import native
from repro.graphs import digraph
from repro.graphs.digraph import OrientedGraph
from repro.graphs.generators import configuration_model
from repro.listing.api import ALL_METHODS, list_triangles
from repro.planner.candidates import GRAPH_ORDERINGS, Candidate

needs_native = pytest.mark.skipif(not native.available(),
                                  reason="no C toolchain / native gated")


def _pareto(n=500, seed=23):
    """A Pareto alpha = 1.5 configuration graph."""
    rng = np.random.default_rng(seed)
    dist = DiscretePareto.paper_parameterization(1.5).truncate(n - 1)
    return configuration_model(sample_degree_sequence(dist, n, rng), rng)


#: ``(n, edges)`` per shape.
SHAPES = {
    "empty": (0, []),
    "isolated": (9, []),
    "isolated+triangle": (9, [(7, 2), (2, 4), (4, 7)]),
    "star": (9, [(0, i) for i in range(1, 9)]),
    "clique": (8, [(i, j) for i in range(8) for j in range(i + 1, 8)]),
    "bipartite": (9, [(i, 4 + j) for i in range(4) for j in range(5)]),
    "cycle": (10, [(i, (i + 1) % 10) for i in range(10)]),
    "pareto": None,
}

#: Every named ordering, the degenerate one included, and a
#: uniform-random map.
ORDERINGS = (*GRAPH_ORDERINGS, "uniform")


@pytest.fixture(params=sorted(SHAPES))
def graph(request):
    if SHAPES[request.param] is None:
        return _pareto()
    return Graph(*SHAPES[request.param])


def _labels(graph, ordering):
    if ordering == "uniform":
        return UniformRandom().labels_for(graph,
                                          rng=np.random.default_rng(5))
    return Candidate("E1", ordering).permutation().labels_for(graph)


def _lexsort_csr(graph, labels):
    """The four CSR arrays from ``np.lexsort``, independent of both
    builds under test."""
    n = graph.n
    lo, hi = graph.edges.T
    tail = np.maximum(labels[lo], labels[hi])
    head = np.minimum(labels[lo], labels[hi])

    def csr(rows, cols):
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        return (cols[np.lexsort((cols, rows))].astype(np.uint32),
                indptr)

    return (*csr(tail, head), *csr(head, tail))


def _reference_csr(graph, labels, monkeypatch):
    """The four CSR arrays from the sorting build (native gated)."""
    with monkeypatch.context() as patch:
        patch.setattr(native, "available", lambda: False)
        return digraph._oriented_csr(graph, labels)


def _assert_same(built, expected):
    assert len(built) == len(expected) == 4
    for mine, theirs in zip(built, expected):
        assert mine.dtype == theirs.dtype
        np.testing.assert_array_equal(mine, theirs)


@pytest.mark.parametrize("ordering", ORDERINGS)
def test_reference_matches_lexsort(graph, ordering, monkeypatch):
    labels = _labels(graph, ordering)
    _assert_same(_reference_csr(graph, labels, monkeypatch),
                 _lexsort_csr(graph, labels))


@needs_native
@pytest.mark.parametrize("ordering", ORDERINGS)
def test_native_matches_reference_and_lexsort(graph, ordering,
                                              monkeypatch):
    labels = _labels(graph, ordering)
    built = native.oriented_csr(graph.keys, labels)
    _assert_same(built, _reference_csr(graph, labels, monkeypatch))
    _assert_same(built, _lexsort_csr(graph, labels))
    _assert_same(digraph._oriented_csr(graph, labels), built)


@needs_native
def test_native_build_runs_no_sort(graph, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the native build fell back to the sort")

    labels = _labels(graph, "descending")
    monkeypatch.setattr(digraph, "_sorted_oriented_csr", refuse)
    monkeypatch.setattr(digraph, "_sorted_csr", refuse)
    oriented = OrientedGraph(graph, labels)
    _assert_same((*oriented.out_csr(), *oriented.in_csr()),
                 _lexsort_csr(graph, labels))


@st.composite
def _graph_and_labels(draw):
    n = draw(st.integers(min_value=0, max_value=40))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True,
                          max_size=len(pairs))) if pairs else []
    labels = np.array(draw(st.permutations(range(n))), dtype=np.int64)
    return Graph(n, edges), labels


@given(case=_graph_and_labels())
@settings(max_examples=150, deadline=None)
def test_drawn_graphs_agree(case):
    graph, labels = case
    expected = _lexsort_csr(graph, labels)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(native, "available", lambda: False)
        _assert_same(digraph._oriented_csr(graph, labels), expected)
    if native.available():
        _assert_same(native.oriented_csr(graph.keys, labels), expected)


def test_attributes_and_dtypes(graph, monkeypatch):
    labels = _labels(graph, "descending")
    built = OrientedGraph(graph, labels)
    with monkeypatch.context() as patch:
        patch.setattr(native, "available", lambda: False)
        reference = OrientedGraph(graph, labels)
    for name in ("out_degrees", "in_degrees", "degrees", "labels"):
        mine, theirs = getattr(built, name), getattr(reference, name)
        assert mine.dtype == theirs.dtype == np.int64
        np.testing.assert_array_equal(mine, theirs)
    _assert_same((*built.out_csr(), *built.in_csr()),
                 (*reference.out_csr(), *reference.in_csr()))


@pytest.mark.parametrize("method", ALL_METHODS)
def test_listing_unchanged(method, monkeypatch):
    graph = _pareto(n=200)
    labels = _labels(graph, "descending")
    built = OrientedGraph(graph, labels)
    with monkeypatch.context() as patch:
        patch.setattr(native, "available", lambda: False)
        reference = OrientedGraph(graph, labels)
    mine = list_triangles(built, method, engine="python")
    theirs = list_triangles(reference, method, engine="python")
    assert mine.count == theirs.count == graph.triangle_count_reference()
    assert mine.ops == theirs.ops
    assert mine.hash_inserts == theirs.hash_inserts
    assert set(mine.triangles) == set(theirs.triangles)
    assert (list_triangles(built, method, collect=False).count
            == mine.count)


@needs_native
@pytest.mark.parametrize("bad", [-1, 6, 2**40])
def test_native_rejects_labels_out_of_range(bad):
    labels = np.arange(6, dtype=np.int64)
    labels[3] = bad
    keys = np.array([0 * 6 + 1, 1 * 6 + 2, 3 * 6 + 4], dtype=np.int64)
    with pytest.raises(ValueError, match=r"\[0, n\)"):
        native.oriented_csr(keys, labels)


@needs_native
def test_native_wants_contiguous_int64():
    keys = np.array([1, 8], dtype=np.int64)
    with pytest.raises(ValueError, match="int64"):
        native.oriented_csr(keys, np.arange(6, dtype=np.int32))
    with pytest.raises(ValueError, match="int64"):
        native.oriented_csr(keys, np.arange(12, dtype=np.int64)[::2])


@pytest.mark.parametrize("gated", [False, True])
@pytest.mark.parametrize("labels", [[0, 0, 1, 2], [1, 2, 3, 4],
                                    [-1, 0, 1, 2], [0, 1, 2]])
def test_non_permutation_labels_raise(labels, gated, monkeypatch):
    if gated:
        monkeypatch.setattr(native, "available", lambda: False)
    graph = Graph(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(ValueError, match="labels"):
        OrientedGraph(graph, labels)
