"""The exact boxed list that ``collect=True`` returns.

Collecting runs turn the engine's ``(count, 3)`` triangle arrays into a
list of ``(x, y, z)`` tuples. The equivalence suites compare triangle
*sets*, so they cannot see a reordering or a NumPy scalar slipping into
a tuple. These tests pin the list itself: on the compiled collect
path, ``result.triangles`` must equal the Python reference's triangles
ordered by ``(z, y)`` and then ascending ``x`` -- the order the
kernel's stream emits them -- with every tuple a ``tuple`` and every
element a Python ``int``; without the kernel it must be the Python
reference's own list.

The paths are the compiled kernel (``run_numpy`` by default, and
``engine="native"``), the opt-out (``use_native=False``), and the
fallback taken when the library is gone (``native._lib``
monkeypatched away). The native tests skip where no C toolchain
exists; the fallback tests run everywhere.

The native path boxes in C (``native.collect_triangles``), so its own
tests also pin what the C code could get wrong and ``==`` cannot see:
ids past 2**16, empty results, thread counts, that every tuple is
untracked by the garbage collector, and that every reference it takes
is given back.
"""

import gc
import sys

import numpy as np
import pytest

from repro import DescendingDegree, DiscretePareto, Graph, \
    sample_degree_sequence
from repro.engine import native, run_numpy
from repro.graphs.generators import configuration_model
from repro.listing.api import _run_python, list_triangles
from repro.graphs.digraph import OrientedGraph
from repro.orientations.relabel import orient
from repro.orientations import NAMED_ORDERINGS
from repro.pipeline import run_pipeline

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


def _reference(oriented):
    """The Python reference's triangles in the stream's order: by
    ``(z, y)``, then ascending ``x``."""
    return sorted(_run_python(oriented, "E1", True).triangles,
                  key=lambda t: (t[2], t[1], t[0]))


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
        expected = _reference(oriented)
        result = run_numpy(oriented, method)
        assert result.extra["engine"] == "native"
        assert result.count == len(expected)
        _assert_boxed(result.triangles, expected)

    def test_engine_native(self, oriented):
        expected = _reference(oriented)
        result = list_triangles(oriented, "E1", engine="native")
        _assert_boxed(result.triangles, expected)

    @pytest.mark.parametrize("name", ["K5", "pareto"])
    def test_run_pipeline(self, name):
        graph = GRAPHS[name]
        report = run_pipeline(graph, method="E1", collect=True)
        permutation = NAMED_ORDERINGS[report.order]()
        assert not permutation.is_random
        _assert_boxed(report.triangles,
                      _reference(orient(graph, permutation)))


def _wide_ids(n=70_000, triangles=3000, seed=3):
    """Random triangles over ``n`` nodes, oriented by id: the emitted ids
    spread over the whole range, far past 2**16."""
    rng = np.random.default_rng(seed)
    tri = rng.choice(n, size=(triangles, 3))
    tri = tri[(tri[:, 0] != tri[:, 1]) & (tri[:, 1] != tri[:, 2])
              & (tri[:, 0] != tri[:, 2])]
    pairs = np.concatenate([tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [0, 2]]])
    pairs.sort(axis=1)
    graph = _graph(n, np.unique(pairs, axis=0))
    return OrientedGraph(graph, np.arange(n))


@needs_native
class TestBoxer:
    @pytest.fixture(scope="class")
    def wide(self):
        oriented = _wide_ids()
        expected = _reference(oriented)
        arr = np.array(expected, dtype=np.uint32)
        assert arr.shape[0] > 1000 and arr.max() >= 1 << 16
        return oriented, arr, expected

    def test_matches_rowwise_past_16_bits(self, wide):
        oriented, __, expected = wide
        result = run_numpy(oriented, "E1", collect=True)
        assert result.extra["engine"] == "native"
        _assert_boxed(result.triangles, expected)

    @pytest.mark.parametrize("name", ["n0", "m0", "triangle-free"])
    def test_empty_is_a_fresh_list(self, name):
        oriented = orient(GRAPHS[name], DescendingDegree())
        assert list(native.stream_triangles(oriented)) == []
        first = native.collect_triangles(oriented)
        second = run_numpy(oriented, "E1", collect=True).triangles
        assert first == second == [] and type(first) is list
        assert type(second) is list and first is not second
        first.append(1)
        assert second == []

    def test_threads_agree(self, wide, monkeypatch):
        oriented, __, expected = wide
        lists = []
        for threads in (1, 2):
            monkeypatch.setenv("REPRO_NATIVE_THREADS", str(threads))
            assert native.resolve_threads() == threads
            result = run_numpy(oriented, "E1")
            assert native.last_stats()["threads"] == threads
            lists.append(result.triangles)
        assert lists[0] == lists[1]
        _assert_boxed(lists[0], expected)

    def test_tuples_are_untracked(self, wide):
        result = native.collect_triangles(wide[0])
        assert not any(gc.is_tracked(t) for t in result)

    def test_references_are_balanced(self, wide):
        oriented, arr, __ = wide
        ids, counts = np.unique(arr, return_counts=True)
        counts[ids <= 256] = 0  # small ints are interned by CPython
        uses = int(counts.max())
        assert uses > 1
        i, c = np.argwhere(arr == ids[counts.argmax()])[0]
        result = native.collect_triangles(oriented)
        shared = result[i][c]
        # its tuples, plus ``shared`` and getrefcount's own argument: the
        # boxer's id table kept nothing
        assert sys.getrefcount(shared) == uses + 2
        assert sys.getrefcount(result) == 2
        del result
        assert sys.getrefcount(shared) == 2

    def test_ids_are_shared(self, wide):
        oriented, arr, __ = wide
        result = run_numpy(oriented, "E1", collect=True).triangles
        by_id = {}
        for t in result:
            for v in t:
                assert by_id.setdefault(v, v) is v
        assert len(by_id) == np.unique(arr).size


class TestNumpyPath:
    """``run_numpy`` without the kernel returns the Python reference's
    own list."""

    @pytest.mark.parametrize("method", METHODS)
    def test_use_native_false(self, oriented, method):
        expected = _run_python(oriented, method, True).triangles
        result = run_numpy(oriented, method, use_native=False)
        assert "engine" not in result.extra
        assert result.count == len(expected)
        _assert_boxed(result.triangles, expected)

    @pytest.mark.parametrize("method", METHODS)
    def test_library_gone(self, oriented, method, monkeypatch):
        monkeypatch.setattr(native, "_lib", None)
        expected = _run_python(oriented, method, True).triangles
        result = run_numpy(oriented, method)
        assert "engine" not in result.extra
        _assert_boxed(result.triangles, expected)
        with pytest.raises(RuntimeError, match="native engine requested"):
            list_triangles(oriented, method, engine="native")

    def test_pareto_has_triangles(self):
        # the fixture would prove little if the big graph were empty
        assert _run_python(orient(GRAPHS["pareto"], DescendingDegree()),
                           "E1", False).count
