"""The streamed collect: one pass of the forward stream, boxed beside it.

``collect=True`` on the native path runs
:func:`repro.engine.native.collect_triangles`: a worker thread drives
the resumable ``repro_forward_stream`` cursor into a small ring of chunk
buffers, and the calling thread boxes each filled chunk into one list
through one id table. There is no count pass, so nothing here can lean
on one. These tests pin:

* **the list** -- on generated and adversarial graphs, at chunk sizes
  down to the max out-degree (so chunks end mid-row) and at 1 and 2
  threads, ``result`` and the concatenated :func:`stream_triangles`
  batches equal the Python reference's triangles ordered by ``(z, y)``
  and then ascending ``x``, and the ops the stream counted equal the
  count pass's;
* **the boxing** -- ints are shared across chunks, tuples are
  untracked, and every reference the id table took is given back;
* **the worker** -- it is joined before every return, on a producer
  error, a boxing error or an interrupt too; its exceptions reach the
  caller, a failed thread start is a ``MemoryError``, and with one
  native thread or the library gated no thread starts at all.

The native tests skip where no C toolchain exists; the gated tests run
everywhere (and are what a ``REPRO_NATIVE=0`` run exercises).
"""

import gc
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import DescendingDegree, DiscretePareto, Graph, \
    sample_degree_sequence
from repro.engine import native, run_numpy
from repro.graphs.digraph import OrientedGraph
from repro.graphs.generators import configuration_model
from repro.listing.api import list_triangles
from repro.orientations.relabel import orient

needs_native = pytest.mark.skipif(not native.available(),
                                  reason="no C toolchain / native gated")

WORKER = "repro-collect"


def _graph(n, edges):
    return Graph(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2))


def _shape(kind, size, seed):
    """One graph of a named shape; ``size`` and ``seed`` vary it."""
    if kind == "empty":
        return Graph(0, [])
    if kind == "star":
        return _graph(size + 1, [(0, i) for i in range(1, size + 1)])
    if kind == "clique":
        k = size % 12 + 1
        return _graph(k, [(i, j) for i in range(k) for j in range(i + 1, k)])
    if kind == "bipartite":
        a, b = size % 5 + 1, size % 7 + 1
        return _graph(a + b, [(i, a + j) for i in range(a)
                              for j in range(b)])
    if kind == "triangle-free":  # a cycle of length >= 4
        k = size + 4
        return _graph(k, [(i, (i + 1) % k) for i in range(k)])
    rng = np.random.default_rng(seed)
    n = size + 30
    alpha = (1.1, 1.5, 1.7, 2.5)[seed % 4]
    dist = DiscretePareto(alpha, 15.0 * (alpha - 1)).truncate(n - 1)
    degrees = sample_degree_sequence(dist, n, rng, ensure_graphical=True)
    return configuration_model(degrees, rng)


SHAPES = ["empty", "star", "clique", "bipartite", "triangle-free",
          "pareto"]


def _pareto(n=2000, seed=11):
    rng = np.random.default_rng(seed)
    dist = DiscretePareto(1.5, 7.5).truncate(n - 1)
    degrees = sample_degree_sequence(dist, n, rng, ensure_graphical=True)
    return orient(configuration_model(degrees, rng), DescendingDegree())


def _wide_ids(n=70_000, triangles=3000, seed=3):
    """Random triangles over ``n`` nodes, oriented by id: ids far past
    2**16 (and past CPython's small-int cache) in every chunk."""
    rng = np.random.default_rng(seed)
    tri = rng.choice(n, size=(triangles, 3))
    tri = tri[(tri[:, 0] != tri[:, 1]) & (tri[:, 1] != tri[:, 2])
              & (tri[:, 0] != tri[:, 2])]
    pairs = np.concatenate([tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [0, 2]]])
    pairs.sort(axis=1)
    return OrientedGraph(_graph(n, np.unique(pairs, axis=0)), np.arange(n))


def _rowwise(arr):
    return list(map(tuple, arr.tolist()))


def _reference(oriented):
    """The Python reference's triangles in the stream's order: by
    ``(z, y)``, then ascending ``x``."""
    triangles = list_triangles(oriented, "E1", collect=True,
                               engine="python").triangles
    return sorted(triangles, key=lambda t: (t[2], t[1], t[0]))


def _streamed(oriented, chunk_triangles=1 << 20):
    """The stream's batches, concatenated and boxed row-wise."""
    return [t for batch in native.stream_triangles(oriented,
                                                   chunk_triangles)
            for t in _rowwise(batch)]


def _workers():
    return [t for t in threading.enumerate() if t.name == WORKER]


def _bounded(fn, timeout=60.0):
    """Run ``fn`` on a helper thread, so a worker that is never joined
    fails the test instead of hanging it; returns what ``fn`` returned
    or raised."""
    outcome = []

    def run():
        try:
            outcome.append(("ok", fn()))
        except BaseException as exc:  # handed back to the test
            outcome.append(("raised", exc))

    helper = threading.Thread(target=run)
    helper.start()
    helper.join(timeout)
    assert not helper.is_alive(), "collect did not return"
    return outcome[0]


@pytest.fixture
def chunk(monkeypatch):
    """Set the collect's chunk size (the stream raises it to the max
    out-degree, its smallest legal value)."""
    def set_chunk(triangles):
        monkeypatch.setattr(native, "_COLLECT_CHUNK", triangles)
    return set_chunk


@needs_native
@given(kind=st.sampled_from(SHAPES),
       size=st.integers(min_value=0, max_value=60),
       seed=st.integers(min_value=0, max_value=2**31 - 1),
       chunk_kind=st.sampled_from(["max-out-degree", "one-more", "small",
                                   "default"]),
       threads=st.sampled_from([1, 2]))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_stream_equals_the_array_path(kind, size, seed, chunk_kind,
                                      threads):
    """The collect's list and the stream's concatenated batches are the
    reference triangles, ordered by ``(z, y)`` then ascending ``x``."""
    graph = _shape(kind, size, seed)
    labels = np.random.default_rng(seed).permutation(graph.n)
    oriented = OrientedGraph(graph, labels)
    expected = _reference(oriented)
    assert native.count_triangles(oriented, threads=1) == len(expected)
    count_ops = native.last_stats()["ops"]
    max_out = int(oriented.out_degrees.max()) if graph.n else 0
    triangles = {"max-out-degree": max_out, "one-more": max_out + 1,
                 "small": 3, "default": native._COLLECT_CHUNK}[chunk_kind]
    assert _streamed(oriented, triangles) == expected
    assert native.last_stats() == {
        "threads": 1, "blocks": 1, "ops": count_ops,
        "ops_per_thread": [count_ops], "triangles": len(expected)}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(native, "_COLLECT_CHUNK", triangles)
        result = native.collect_triangles(oriented, threads=threads)
    assert type(result) is list and result == expected
    assert all(type(t) is tuple and len(t) == 3 for t in result)
    assert all(type(v) is int for t in result for v in t)
    assert not any(gc.is_tracked(t) for t in result)
    shared = {}
    assert all(shared.setdefault(v, v) is v for t in result for v in t)
    assert native.last_stats() == {
        "threads": threads, "blocks": 1, "ops": count_ops,
        "ops_per_thread": [count_ops] + [0] * (threads - 1),
        "triangles": len(expected)}
    assert not _workers()


@needs_native
class TestBoxingAcrossChunks:
    @pytest.fixture(scope="class")
    def wide(self):
        oriented = _wide_ids()
        arr = np.array(_reference(oriented), dtype=np.uint32)
        assert arr.shape[0] > 1000 and arr.max() >= 1 << 16
        return oriented, arr

    @pytest.mark.parametrize("threads", [1, 2])
    def test_ints_are_shared_across_chunks(self, wide, chunk, threads):
        oriented, arr = wide
        chunk(64)  # ~50 chunks
        result = native.collect_triangles(oriented, threads=threads)
        assert result == _rowwise(arr)
        by_value = {}
        for t in result:
            for v in t:
                assert by_value.setdefault(v, v) is v
        assert len(by_value) == np.unique(arr).size

    @pytest.mark.parametrize("threads", [1, 2])
    def test_references_are_balanced(self, wide, chunk, threads):
        oriented, arr = wide
        ids, counts = np.unique(arr, return_counts=True)
        counts[ids <= 256] = 0  # small ints are interned by CPython
        # the most used id, and the rows it sits in: far apart, so in
        # different chunks of 64
        value, uses = ids[counts.argmax()], int(counts.max())
        rows = np.flatnonzero((arr == value).any(axis=1))
        assert uses > 1 and rows[-1] // 64 > rows[0] // 64
        chunk(64)
        result = native.collect_triangles(oriented, threads=threads)
        shared = result[rows[0]][list(arr[rows[0]]).index(value)]
        # its tuples, plus ``shared`` and getrefcount's own argument: the
        # id table kept nothing
        assert sys.getrefcount(shared) == uses + 2
        assert sys.getrefcount(result) == 2
        del result
        assert sys.getrefcount(shared) == 2

    def test_run_numpy_reports_the_threads(self, wide, monkeypatch):
        oriented, arr = wide
        for threads in (1, 2):
            monkeypatch.setenv("REPRO_NATIVE_THREADS", str(threads))
            result = run_numpy(oriented, "E1")
            assert result.triangles == _rowwise(arr)
            assert result.count == arr.shape[0]
            assert result.extra["native_threads"] == threads
            assert native.last_stats()["threads"] == threads


@needs_native
class TestWorker:
    @pytest.fixture(scope="class")
    def oriented(self):
        return _pareto()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_no_worker_outlives_a_call(self, oriented, chunk, threads):
        chunk(1)
        expected = _reference(oriented)
        for __ in range(3):
            assert native.collect_triangles(oriented, threads) == expected
            assert not _workers()

    def test_serial_starts_no_thread(self, oriented, monkeypatch):
        def no_thread(*args, **kwargs):
            raise AssertionError("a serial collect started a thread")

        monkeypatch.setattr(native.threading, "Thread", no_thread)
        monkeypatch.setenv("REPRO_NATIVE_THREADS", "1")
        result = list_triangles(oriented, "E1", collect=True)
        assert result.extra["engine"] == "native"
        assert result.triangles == _reference(oriented)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_producer_exception_reaches_the_caller(self, oriented, chunk,
                                                   monkeypatch, threads):
        chunk(1)
        real, calls = native._lib.forward_stream, []

        def third_call_fails(*args):
            calls.append(threading.current_thread().name)
            if len(calls) == 3:
                raise ValueError("kernel boom")
            return real(*args)

        monkeypatch.setattr(native._lib, "forward_stream", third_call_fails)
        status, exc = _bounded(
            lambda: native.collect_triangles(oriented, threads))
        assert status == "raised" and isinstance(exc, ValueError)
        assert str(exc) == "kernel boom"
        # every kernel call ran on one thread: the worker when threaded
        assert len(set(calls)) == 1
        assert (calls[0] == WORKER) == (threads == 2)
        assert not _workers()

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    @pytest.mark.parametrize("worker", ["mid-call", "waiting"])
    def test_boxing_exception_joins_the_worker(self, oriented, chunk,
                                               monkeypatch, error, worker):
        """The caller fails boxing while the worker is inside a kernel
        call (a slowed one), or waits for a buffer once the ring is
        full: either way it is gone when the error reaches the caller.
        """
        chunk(1)
        real_fill, alive = native._lib.forward_stream, []

        def slow_fill(*args):
            time.sleep(0.05)
            return real_fill(*args)

        def first_chunk_fails(self, *args):
            if worker == "waiting":
                time.sleep(0.05)  # the worker fills the ring meanwhile
            raise error("boxing boom")

        if worker == "mid-call":
            monkeypatch.setattr(native._lib, "forward_stream", slow_fill)
        monkeypatch.setattr(native._IdTable, "box", first_chunk_fails)

        def collect():
            try:
                native.collect_triangles(oriented, threads=2)
            finally:  # as the error leaves the call
                alive.extend(_workers())

        status, exc = _bounded(collect)
        assert status == "raised" and isinstance(exc, error)
        assert not alive and not _workers()

    def test_stress_concurrent_collects(self, oriented, chunk):
        """Six callers collecting one graph at a 1 us switch interval:
        each has its own stream, ring and id table, so all agree."""
        chunk(1)
        expected = _reference(oriented)
        results = [None] * 6

        def work(i):
            results[i] = [native.collect_triangles(oriented, threads=2)
                          for __ in range(2)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=work, args=(i,))
                       for i in range(len(results))]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=120)
                assert not caller.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert results == [[expected] * 2] * len(results)
        assert not _workers()


class TestGated:
    """With the library gone a collect never reaches the stream."""

    @pytest.mark.parametrize("engine", ["auto", "python"])
    def test_gated_collect_starts_no_thread(self, monkeypatch, engine):
        monkeypatch.setattr(native, "_lib", None)

        def no_thread(*args, **kwargs):
            raise AssertionError("a gated collect started a thread")

        monkeypatch.setattr(native.threading, "Thread", no_thread)
        oriented = _pareto(n=300)
        assert native.collect_triangles(oriented) is None
        result = list_triangles(oriented, "E1", collect=True, engine=engine)
        assert "engine" not in result.extra
        reference = list_triangles(oriented, "E1", collect=True,
                                   engine="python")
        assert result.count == reference.count
        assert set(result.triangles) == set(reference.triangles)
        assert not _workers()
