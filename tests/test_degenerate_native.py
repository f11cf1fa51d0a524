"""Native smallest-last order against the Python reference loop.

:func:`repro.orientations.degenerate.smallest_last_order` runs the
Matula-Beck bucket queue in C whenever the compiled library is
available, and :func:`_smallest_last_python` otherwise. The C pass reads
the graph's sorted edge keys and lays its own neighbour rows out in
``Graph.csr()``'s order, so it never builds or caches the graph's CSR.
The port is bit-identical: both return the same deletion order (ties
included) and the same degeneracy, so every caller --
``DegenerateOrder``, the planner's exact backend, ``graphs.analysis``
-- gives the same answer on either path. The Python reference is
forced by monkeypatching ``native._lib`` away, as in
``test_generators_native.py``.

The differential tests skip where no C toolchain exists; the gating
tests run everywhere.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import DiscretePareto, Graph, sample_degree_sequence
from repro.engine import native
from repro.graphs import analysis
from repro.graphs.generators import configuration_model
from repro.orientations.degenerate import (DegenerateOrder,
                                           _smallest_last_python,
                                           smallest_last_order,
                                           smallest_last_peel)
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
    order, k, out_degrees = smallest_last_peel(graph)
    assert graph._csr is None
    ref_order, ref_k, ref_out = _smallest_last_python(graph)
    np.testing.assert_array_equal(order, ref_order)
    np.testing.assert_array_equal(out_degrees, ref_out)
    assert order.dtype == ref_order.dtype == np.int64
    assert out_degrees.dtype == ref_out.dtype == np.int64
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


def _shape(kind, size, seed):
    """One graph of a named shape; ``size`` and ``seed`` vary it."""
    if kind == "empty":
        return Graph(0, [])
    if kind == "isolated":
        return Graph(size, [])
    if kind == "star":
        return _graph(size + 1, [(0, i) for i in range(1, size + 1)])
    if kind == "clique":
        return _complete(size % 12 + 1)
    if kind == "bipartite":
        return _bipartite(size % 5 + 1, size % 7 + 1)
    if kind == "circulant":
        hops = seed % 3 + 1
        return _circulant(size + 2 * hops + 1, hops)
    return _pareto((1.1, 1.5, 1.7, 2.5)[seed % 4], size + 20, seed)


SHAPES = ["empty", "isolated", "star", "clique", "bipartite", "circulant",
          "pareto"]


@needs_native
class TestDifferential:
    """The keys pass against the Python loop on drawn shapes."""

    @given(kind=st.sampled_from(SHAPES),
           size=st.integers(min_value=0, max_value=150),
           seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=120, deadline=None)
    def test_order_and_degeneracy(self, kind, size, seed):
        _assert_identical(_shape(kind, size, seed))

    @given(kind=st.sampled_from(SHAPES),
           size=st.integers(min_value=0, max_value=60),
           seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_exact_plan(self, kind, size, seed):
        graph = _shape(kind, size, seed)
        plan = plan_for_graph(graph, orderings=GRAPH_ORDERINGS)
        assert graph._csr is None
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(native, "_lib", None)
            ref = plan_for_graph(graph, orderings=GRAPH_ORDERINGS)
        assert plan.to_rows() == ref.to_rows()
        assert plan.best.key == ref.best.key


class TestGating:
    def test_gated_library_runs_the_reference(self, monkeypatch):
        monkeypatch.setattr(native, "_lib", None)
        graph = FIXTURES["bipartite"]
        assert native.smallest_last(graph.keys, graph.degrees) is None
        order, k = smallest_last_order(graph)
        ref_order, ref_k, __ = _smallest_last_python(graph)
        np.testing.assert_array_equal(order, ref_order)
        assert k == ref_k == 3
        assert not native.self_test()

    @needs_native
    def test_rejects_arguments_the_c_loop_cannot_take(self):
        graph = FIXTURES["cycle"]
        keys, degrees = graph.keys, graph.degrees
        with pytest.raises(ValueError, match="int64"):
            native.smallest_last(keys.astype(np.int32), degrees)
        with pytest.raises(ValueError, match="int64"):
            native.smallest_last(keys, degrees.astype(float))
        with pytest.raises(ValueError, match="int64"):
            native.smallest_last(keys.tolist(), degrees)
        with pytest.raises(ValueError, match="int64"):
            native.smallest_last(np.repeat(keys, 2)[::2], degrees)
        with pytest.raises(ValueError, match=r"\(m,\)"):
            native.smallest_last(keys.reshape(1, -1), degrees)
        # the cycle's keys are 1, 8, 11, 21, ..., 71 (n = 9), each fault
        # put in with the cycle's own degrees
        n = graph.n
        for index, key in ((0, 8), (1, 1), (0, 0), (-1, n * n), (0, -1),
                           (3, 2 * n + 1), (-1, -2**63)):
            bad = keys.copy()
            bad[index] = key
            with pytest.raises(ValueError, match="strictly increasing"):
                native.smallest_last(bad, degrees)
        with pytest.raises(ValueError, match="degrees of the edge keys"):
            native.smallest_last(keys, degrees + 1)
        with pytest.raises(ValueError, match="degrees of the edge keys"):
            native.smallest_last(keys[:-1], degrees)
        with pytest.raises(ValueError, match="degrees of the edge keys"):
            native.smallest_last(keys, np.roll(FIXTURES["path"].degrees, 1))

    @needs_native
    def test_rejects_negative_degrees(self):
        keys = np.array([1, 2], dtype=np.int64)  # edges 0-1, 0-2
        for degrees in ([3, -1, 2], [-1, 2, 3]):
            with pytest.raises(ValueError, match="degrees of the edge keys"):
                native.smallest_last(keys, np.array(degrees,
                                                    dtype=np.int64))

    @needs_native
    def test_asymmetric_adjacency_is_a_typed_error(self):
        """Degrees that count each edge at one end only describe an
        asymmetric adjacency; the pass refuses them before a row is
        overrun."""
        graph = FIXTURES["star"]
        lo, __ = graph.endpoints()
        one_sided = np.bincount(lo, minlength=graph.n).astype(np.int64)
        one_sided[1] += one_sided.sum()  # keep the sum at 2m
        one_sided[0] = 0
        with pytest.raises(ValueError, match="degrees of the edge keys"):
            native.smallest_last(graph.keys, one_sided)

    @needs_native
    def test_codes_raise(self, monkeypatch):
        graph = FIXTURES["path"]
        for code, error, text in ((-1, MemoryError, "allocation"),
                                  (-3, ValueError, "2\\*\\*31")):
            monkeypatch.setattr(native, "_lib", SimpleNamespace(
                smallest_last=lambda *a, code=code: code))
            with pytest.raises(error, match=text):
                smallest_last_order(graph)

    @needs_native
    def test_c_entry_refuses_wide_n_before_reading(self):
        """n above INT32_MAX returns -3 before any array is read."""
        out = np.full(1, -7, dtype=np.int64)
        ptr = out.ctypes.data_as(native._I64P)
        assert native._lib.smallest_last(2**31, 0, ptr, ptr, ptr,
                                         ptr) == -3
        assert native._lib.smallest_last(-1, 0, ptr, ptr, ptr, ptr) == -2
        assert out.tolist() == [-7]
