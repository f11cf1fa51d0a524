"""The exact boxed list that ``collect=True`` returns.

Collecting runs turn the engine's ``(count, 3)`` triangle arrays into a
list of ``(x, y, z)`` tuples. The equivalence suites compare triangle
*sets*, so they cannot see a reordering or a NumPy scalar slipping into
a tuple. These tests pin the list itself: on every collect path of the
vectorized engine, ``result.triangles`` must equal the row-wise boxing
``list(map(tuple, arr.tolist()))`` of the array the path produced --
same tuples, same order -- with every tuple a ``tuple`` and every
element a Python ``int``.

The paths are the compiled kernel (``run_numpy`` by default, and
``engine="native"``), the pure-NumPy chunk loop (``use_native=False``),
and the fallback taken when the library is gone (``native._lib``
monkeypatched away). The native tests skip where no C toolchain
exists; the NumPy tests run everywhere.
"""

import numpy as np
import pytest

from repro import DescendingDegree, DiscretePareto, Graph, \
    sample_degree_sequence
from repro.engine import native, run_numpy
from repro.engine.kernels import _KERNELS, _run_kernel
from repro.graphs.generators import configuration_model
from repro.listing.api import list_triangles
from repro.orientations.relabel import orient
from repro.pipeline import _ORDERS, run_pipeline

needs_native = pytest.mark.skipif(not native.available(),
                                  reason="no C toolchain / native gated")

METHODS = ("T1", "E1", "E4", "L6")


def _graph(n, edges):
    return Graph(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2))


def _pareto(alpha=1.5, n=2000, seed=11):
    rng = np.random.default_rng(seed)
    dist = DiscretePareto(alpha, 15.0 * (alpha - 1)).truncate(n - 1)
    degrees = sample_degree_sequence(dist, n, rng, ensure_graphical=True)
    return configuration_model(degrees, rng)


GRAPHS = {
    "n0": _graph(0, []),
    "m0": _graph(5, []),
    "triangle-free": _graph(7, [(i, 3 + j) for i in range(3)
                                for j in range(4)]),
    "K5": _graph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)]),
    "pareto": _pareto(),
}


@pytest.fixture(scope="module", params=list(GRAPHS))
def oriented(request):
    return orient(GRAPHS[request.param], DescendingDegree())


def _rowwise(arr):
    """The reference boxing: one list per row, then one tuple."""
    return list(map(tuple, arr.tolist()))


def _stacked_batches(oriented, method):
    __, batches = _run_kernel(oriented, _KERNELS[method], collect=True)
    if not batches:
        return np.empty((0, 3), dtype=np.int64)
    return np.concatenate(batches, axis=0)


def _assert_boxed(triangles, expected):
    assert type(triangles) is list
    assert triangles == expected
    for t in triangles:
        assert type(t) is tuple and len(t) == 3
        assert all(type(v) is int for v in t)


@needs_native
class TestNativePath:
    @pytest.mark.parametrize("method", METHODS)
    def test_run_numpy_default(self, oriented, method):
        expected = _rowwise(native.list_triangles_array(oriented))
        result = run_numpy(oriented, method)
        assert result.extra["native"]
        assert result.count == len(expected)
        _assert_boxed(result.triangles, expected)

    def test_engine_native(self, oriented):
        expected = _rowwise(native.list_triangles_array(oriented))
        result = list_triangles(oriented, "E1", engine="native")
        _assert_boxed(result.triangles, expected)

    @pytest.mark.parametrize("name", ["K5", "pareto"])
    def test_run_pipeline(self, name):
        graph = GRAPHS[name]
        report = run_pipeline(graph, method="E1", collect=True)
        permutation = _ORDERS[report.order]
        assert not permutation.is_random
        arr = native.list_triangles_array(orient(graph, permutation))
        _assert_boxed(report.triangles, _rowwise(arr))


class TestNumpyPath:
    @pytest.mark.parametrize("method", METHODS)
    def test_use_native_false(self, oriented, method):
        expected = _rowwise(_stacked_batches(oriented, method))
        result = run_numpy(oriented, method, use_native=False)
        assert not result.extra["native"]
        assert result.count == len(expected)
        _assert_boxed(result.triangles, expected)

    @pytest.mark.parametrize("method", METHODS)
    def test_library_gone(self, oriented, method, monkeypatch):
        monkeypatch.setattr(native, "_lib", None)
        expected = _rowwise(_stacked_batches(oriented, method))
        result = run_numpy(oriented, method)
        assert not result.extra["native"]
        _assert_boxed(result.triangles, expected)
        with pytest.raises(RuntimeError, match="native engine requested"):
            list_triangles(oriented, method, engine="native")

    def test_pareto_has_triangles(self):
        # the fixture would prove little if the big graph were empty
        assert _stacked_batches(orient(GRAPHS["pareto"],
                                       DescendingDegree()), "E1").shape[0]
