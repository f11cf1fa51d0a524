"""Native smallest-last order against the Python reference loop.

:func:`repro.orientations.degenerate.smallest_last_order` runs the
Matula-Beck bucket queue in C whenever the compiled library is
available, and :func:`_smallest_last_python` otherwise. The port is
bit-identical: both return the same deletion order (ties included) and
the same degeneracy, so every caller -- ``DegenerateOrder``, the
planner's exact backend, ``graphs.analysis`` -- gives the same answer
on either path. The Python reference is forced by monkeypatching
``native._lib`` away, as in ``test_generators_native.py``.

The differential tests skip where no C toolchain exists; the gating
tests run everywhere.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import DiscretePareto, Graph, sample_degree_sequence
from repro.engine import native
from repro.graphs import analysis
from repro.graphs.generators import configuration_model
from repro.orientations.degenerate import (DegenerateOrder,
                                           _smallest_last_python,
                                           smallest_last_order)
from repro.planner import GRAPH_ORDERINGS, plan_for_graph

needs_native = pytest.mark.skipif(not native.available(),
                                  reason="no C toolchain / native gated")


def _graph(n, edges):
    return Graph(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2))


def _complete(n):
    return _graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def _bipartite(a, b):
    return _graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def _circulant(n, hops):
    """Every vertex joined to its ``hops`` nearest on each side: all
    degrees equal, so every deletion breaks a tie."""
    return _graph(n, [(i, (i + h) % n) for i in range(n)
                      for h in range(1, hops + 1)])


def _pareto(alpha, n, seed):
    rng = np.random.default_rng(seed)
    dist = DiscretePareto(alpha, 15.0 * (alpha - 1)).truncate(n - 1)
    degrees = sample_degree_sequence(dist, n, rng, ensure_graphical=True)
    return configuration_model(degrees, rng)


def _assert_identical(graph):
    order, k = smallest_last_order(graph)
    ref_order, ref_k = _smallest_last_python(graph)
    np.testing.assert_array_equal(order, ref_order)
    assert order.dtype == ref_order.dtype == np.int64
    assert type(k) is int and k == ref_k


FIXTURES = {
    "empty": Graph(0, []),
    "isolated": Graph(6, []),
    "path": _graph(9, [(i, i + 1) for i in range(8)]),
    "cycle": _graph(9, [(i, (i + 1) % 9) for i in range(9)]),
    "star": _graph(9, [(0, i) for i in range(1, 9)]),
    "clique": _complete(7),
    "bipartite": _bipartite(3, 5),
    "equal-degrees": _circulant(40, 3),
    "isolated-plus-clique": _graph(10, [(i, j) for i in range(3, 10)
                                        for j in range(i + 1, 10)]),
}


@needs_native
class TestBitIdentity:
    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_fixtures(self, name):
        _assert_identical(FIXTURES[name])

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1),
           alpha=st.sampled_from([1.1, 1.5, 1.7, 2.5]))
    @settings(max_examples=40, deadline=None)
    def test_pareto_sweep(self, seed, alpha):
        _assert_identical(_pareto(alpha, 400, seed))

    def test_dispatches_to_native(self, monkeypatch):
        calls = []
        real = native.smallest_last

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(native, "smallest_last", spy)
        smallest_last_order(FIXTURES["clique"])
        assert len(calls) == 1

    def test_self_test_covers_smallest_last(self):
        assert native.self_test()


class TestCallersUnchanged:
    """Every caller answers the same with the library monkeypatched away."""

    @pytest.fixture(scope="class")
    def graph(self):
        return _pareto(1.7, 600, 11)

    def _both(self, monkeypatch, fn):
        fast = fn()
        monkeypatch.setattr(native, "_lib", None)
        return fast, fn()

    def test_labels_for(self, graph, monkeypatch):
        fast, ref = self._both(
            monkeypatch, lambda: DegenerateOrder().labels_for(graph))
        np.testing.assert_array_equal(fast, ref)

    def test_degeneracy(self, graph, monkeypatch):
        fast, ref = self._both(monkeypatch,
                               lambda: analysis.degeneracy(graph))
        assert fast == ref

    def test_exact_plan(self, graph, monkeypatch):
        fast, ref = self._both(
            monkeypatch,
            lambda: plan_for_graph(graph, orderings=GRAPH_ORDERINGS))
        assert fast.to_rows() == ref.to_rows()
        assert fast.best.key == ref.best.key


class TestGating:
    def test_gated_library_runs_the_reference(self, monkeypatch):
        monkeypatch.setattr(native, "_lib", None)
        graph = FIXTURES["bipartite"]
        indices, indptr = graph.csr()
        assert native.smallest_last(indptr, indices, graph.degrees) is None
        order, k = smallest_last_order(graph)
        ref_order, ref_k = _smallest_last_python(graph)
        np.testing.assert_array_equal(order, ref_order)
        assert k == ref_k == 3
        assert not native.self_test()

    @needs_native
    def test_rejects_arguments_the_c_loop_cannot_take(self):
        indices, indptr = FIXTURES["cycle"].csr()
        degrees = FIXTURES["cycle"].degrees
        with pytest.raises(ValueError, match="int64"):
            native.smallest_last(indptr.astype(np.int32), indices, degrees)
        with pytest.raises(ValueError, match="int64"):
            native.smallest_last(indptr, indices, degrees.astype(float))
        with pytest.raises(ValueError, match="int64"):
            native.smallest_last(indptr, indices.tolist(), degrees)
        with pytest.raises(ValueError, match="int64"):
            native.smallest_last(indptr, np.repeat(indices, 2)[::2],
                                 degrees)
        with pytest.raises(ValueError, match="index 0..n-1"):
            native.smallest_last(indptr, indices + 1, degrees)
        with pytest.raises(ValueError, match="index 0..n-1"):
            native.smallest_last(indptr, indices - 1, degrees)
        with pytest.raises(ValueError, match="row lengths"):
            native.smallest_last(indptr, indices, degrees + 1)
        with pytest.raises(ValueError, match="row lengths"):
            native.smallest_last(indptr[:-1], indices, degrees[:-1])
        with pytest.raises(ValueError, match="row lengths"):
            native.smallest_last(indptr, indices[:-1], degrees)

    @needs_native
    def test_rejects_negative_degrees(self):
        indptr = np.array([0, 2, 1, 3], dtype=np.int64)
        degrees = np.diff(indptr)
        with pytest.raises(ValueError, match="row lengths"):
            native.smallest_last(indptr, np.zeros(3, dtype=np.int64),
                                 degrees)

    @needs_native
    def test_asymmetric_adjacency_is_a_typed_error(self):
        rows = [[1, 1], [1], [4], [0], []]
        degrees = np.array([len(r) for r in rows], dtype=np.int64)
        indptr = np.concatenate([[0], np.cumsum(degrees)])
        indices = np.array(sum(rows, []), dtype=np.int64)
        with pytest.raises(ValueError, match="not symmetric"):
            native.smallest_last(indptr, indices, degrees)
