"""Compiled-kernel suite: equivalence, determinism, gating, fallback.

The contract of :mod:`repro.engine.native` v2, pinned three ways:

* **Equivalence** -- for every method x ordering the native listing
  path returns the same sorted triangle set, count, and closed-form
  ``ops`` as ``run_numpy(use_native=False)``, the instrumented Python
  loops.
* **Determinism** -- counts and ops are *bit-identical* across thread
  counts (1, 2, 8), and streaming chunks of any capacity concatenate
  to the Python reference's triangles in the order the stream emits
  them: by ``(z, y)``, then ascending ``x``.
* **Gating** -- ``REPRO_NATIVE=0``, a missing compiler, and a failed
  compile each degrade cleanly (cached per process, one structured
  warning for the failure case) while ``engine="native"`` raises
  instead of silently falling back.

Kernel tests skip where no C toolchain exists; the gating/fallback
tests run everywhere.
"""

import logging
import subprocess
import tempfile

import numpy as np
import pytest

from repro import (
    AscendingDegree,
    ComplementaryRoundRobin,
    DescendingDegree,
    DiscretePareto,
    RoundRobin,
    UniformRandom,
    generate_graph,
    orient,
)
from repro.distributions import root_truncation
from repro.distributions.sampling import sample_degree_sequence
from repro.engine import native, run_numpy
from repro.graphs.graph import Graph
from repro.listing.api import ALL_METHODS, list_triangles

ORDERINGS = {
    "ascending": AscendingDegree,
    "descending": DescendingDegree,
    "uniform": UniformRandom,
    "rr": RoundRobin,
    "crr": ComplementaryRoundRobin,
}

needs_native = pytest.mark.skipif(
    not native.available(), reason="no C toolchain in this environment")


def _reference(oriented):
    """The Python reference's triangles as a uint32 ``(k, 3)`` array, in
    the stream's order: by ``(z, y)``, then ascending ``x``."""
    triangles = list_triangles(oriented, "E1", collect=True,
                               engine="python").triangles
    ordered = sorted(triangles, key=lambda t: (t[2], t[1], t[0]))
    return np.array(ordered, dtype=np.uint32).reshape(-1, 3)


def _streamed(oriented, chunk_triangles=1 << 20):
    """The stream's batches, concatenated (``(0, 3)`` when empty)."""
    return np.concatenate(
        [np.empty((0, 3), dtype=np.uint32),
         *native.stream_triangles(oriented, chunk_triangles)])


@pytest.fixture(scope="module")
def pareto_graph():
    n = 500
    rng = np.random.default_rng(17)
    dist = DiscretePareto(1.7, 21.0).truncate(root_truncation(n))
    return generate_graph(sample_degree_sequence(dist, n, rng), rng)


@pytest.fixture(scope="module", params=sorted(ORDERINGS))
def oriented(request, pareto_graph):
    return orient(pareto_graph, ORDERINGS[request.param](),
                  rng=np.random.default_rng(23))


@needs_native
class TestMethodOrderingEquivalence:
    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_matches_numpy_engine(self, oriented, method):
        """Sorted triangles, count, and ops agree for every cell."""
        ref = run_numpy(oriented, method, collect=True,
                        use_native=False)
        nat = run_numpy(oriented, method, collect=True, use_native=True)
        assert nat.extra["engine"] == "native"
        assert nat.count == ref.count
        assert nat.ops == ref.ops
        assert nat.hash_inserts == ref.hash_inserts
        assert sorted(nat.triangles) == sorted(ref.triangles)

    def test_count_matches_listing(self, oriented):
        count = native.count_triangles(oriented)
        arr = _streamed(oriented)
        assert count == arr.shape[0]
        assert (arr[:, 0] < arr[:, 1]).all()
        assert (arr[:, 1] < arr[:, 2]).all()


@needs_native
class TestDeterminism:
    def test_thread_count_invariance(self, oriented):
        """1, 2, and 8 threads produce bit-identical counts/stats."""
        runs = {}
        for threads in (1, 2, 8):
            count = native.count_triangles(oriented, threads=threads)
            stats = native.last_stats()
            assert stats["threads"] == min(threads, stats["blocks"])
            assert stats["triangles"] == count
            runs[threads] = (count, stats["ops"], stats["blocks"])
        assert runs[2] == runs[1] and runs[8] == runs[1]

    def test_count_thread_invariance(self, oriented):
        counts = {t: native.count_triangles(oriented, threads=t)
                  for t in (1, 2, 8)}
        assert len(set(counts.values())) == 1

    def test_per_thread_ops_partition_total(self, oriented):
        native.count_triangles(oriented, threads=4)
        stats = native.last_stats()
        assert len(stats["ops_per_thread"]) == stats["threads"]
        assert sum(stats["ops_per_thread"]) == stats["ops"]


@needs_native
class TestStreaming:
    def test_chunks_concatenate_to_full_array(self, oriented):
        full = _reference(oriented)
        chunks = list(native.stream_triangles(oriented,
                                              chunk_triangles=64))
        assert len(chunks) > 1  # the cap actually forced spill-back
        assert all(c.dtype == np.uint32 for c in chunks)
        streamed = np.concatenate(chunks, axis=0)
        assert np.array_equal(streamed, full)
        assert native.last_stats()["triangles"] == full.shape[0]

    @pytest.mark.parametrize("chunk", [1, 2, 64, 1 << 20])
    def test_any_chunk_streams_identically(self, oriented, chunk):
        """Below the max out-degree the cap is raised to it, so chunks
        end mid-row; the bytes never depend on where they end."""
        full = _reference(oriented)
        native.count_triangles(oriented)
        ops = native.last_stats()["ops"]
        chunks = list(native.stream_triangles(oriented,
                                              chunk_triangles=chunk))
        streamed = np.concatenate(chunks, axis=0)
        assert streamed.tobytes() == full.tobytes()
        assert native.last_stats() == {
            "threads": 1, "blocks": 1, "ops": ops, "ops_per_thread": [ops],
            "triangles": full.shape[0]}


@needs_native
class TestDegenerateGraphs:
    def test_empty_graph(self):
        g = orient(Graph(5, []), DescendingDegree())
        assert native.count_triangles(g) == 0
        assert list(native.stream_triangles(g)) == []
        assert _streamed(g).shape == (0, 3)

    def test_star_has_no_triangles(self):
        g = orient(Graph(6, [(0, i) for i in range(1, 6)]),
                   DescendingDegree())
        assert native.count_triangles(g) == 0

    def test_clique(self):
        edges = [(i, j) for i in range(6) for j in range(i + 1, 6)]
        g = orient(Graph(6, edges), DescendingDegree())
        assert native.count_triangles(g) == 20  # C(6,3)
        arr = _streamed(g)
        assert sorted(map(tuple, arr.tolist())) == sorted(
            (x, y, z) for x in range(6) for y in range(x + 1, 6)
            for z in range(y + 1, 6))

    def test_self_test(self):
        assert native.self_test()

    def test_reads_graph_csr_without_copy(self):
        g = orient(Graph(6, [(0, 1), (1, 2), (0, 2)]), DescendingDegree())
        assert native.count_triangles(g) == 1
        arrays = native._graph_arrays(g)
        assert arrays.indices is g.out_csr()[0]
        assert arrays.indptr is g.out_csr()[1]

    def test_rejects_a_csr_of_another_layout(self):
        g = orient(Graph(3, [(0, 1), (1, 2), (0, 2)]), DescendingDegree())

        class Wide:
            n, out_degrees = g.n, g.out_degrees

            def out_csr(self):
                indices, indptr = g.out_csr()
                return indices.astype(np.int64), indptr

        with pytest.raises(ValueError, match="uint32"):
            native.count_triangles(Wide())


class TestKnobs:
    def test_resolve_threads_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_THREADS", "8")
        assert native.resolve_threads() == 8
        assert native.resolve_threads(2) == 2  # explicit wins
        monkeypatch.setenv("REPRO_NATIVE_THREADS", "junk")
        assert native.resolve_threads() >= 1


@pytest.fixture
def fresh_native(monkeypatch, tmp_path):
    """Reset the module-level resolution cache (restored afterwards).

    The temp dir points at ``tmp_path`` too, so the per-user library
    cache starts empty and a warm cache cannot hide the compile path.
    """
    monkeypatch.setattr(native, "_lib", native._UNSET)
    monkeypatch.setattr(native, "_status",
                        {"state": "unresolved", "reason": None,
                         "compiler": None, "cache": "off"})
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))


class TestGatingAndFallback:
    def test_repro_native_zero_gates(self, fresh_native, monkeypatch,
                                     pareto_graph):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        assert not native.available()
        assert native.status()["state"] == "gated"
        g = orient(pareto_graph, DescendingDegree())
        assert native.count_triangles(g) is None
        assert native.stream_triangles(g) is None
        assert native.collect_triangles(g) is None
        # auto + collect silently keeps the python reference engine
        result = list_triangles(g, "T1", collect=True)
        assert result.extra.get("engine") is None

    @pytest.mark.parametrize("word", ["", "0", " 0", "false", "FALSE",
                                      "no", "No", "off", " OFF "])
    def test_repro_native_off_words_gate(self, fresh_native, monkeypatch,
                                         caplog, word):
        monkeypatch.setenv("REPRO_NATIVE", word)
        with caplog.at_level(logging.DEBUG, logger=native.__name__):
            assert not native.available()
        assert native.status()["state"] == "gated"
        # the log line reports the resolved decision, not the raw value
        (record,) = [r for r in caplog.records
                     if r.message == "native kernel resolution"]
        assert record.fields["gated"] is True

    def test_missing_compiler_degrades(self, fresh_native, monkeypatch):
        monkeypatch.delenv("REPRO_NATIVE", raising=False)
        monkeypatch.setattr(native.shutil, "which", lambda name: None)
        assert not native.available()
        assert native.status()["state"] == "no-compiler"

    def test_failed_compile_cached_and_warned_once(
            self, fresh_native, monkeypatch, caplog):
        monkeypatch.delenv("REPRO_NATIVE", raising=False)
        calls = []

        def fake_run(cmd, **kwargs):
            calls.append(cmd)
            raise subprocess.CalledProcessError(
                1, cmd, stderr=b"kernel.c:1: error: boom")

        monkeypatch.setattr(native.subprocess, "run", fake_run)
        with caplog.at_level(logging.DEBUG, logger=native.__name__):
            assert not native.available()
            assert not native.available()  # cached: no second compile
        assert len(calls) == 1
        status = native.status()
        assert status["state"] == "compile-failed"
        assert "boom" in status["reason"]
        warnings = [r for r in caplog.records
                    if r.levelno == logging.WARNING]
        assert len(warnings) == 1

    def test_native_engine_raises_when_unavailable(
            self, monkeypatch, pareto_graph):
        monkeypatch.setattr(native, "_lib", None)
        g = orient(pareto_graph, DescendingDegree())
        with pytest.raises(RuntimeError, match="native engine"):
            list_triangles(g, "T1", collect=True, engine="native")
        with pytest.raises(RuntimeError, match="native engine"):
            list_triangles(g, "T1", collect=False, engine="native")

    @needs_native
    def test_forward_failure_raises(self, monkeypatch, pareto_graph):
        """A failed allocation or thread start in the kernel is a
        MemoryError, never the gated None every engine falls back on."""
        g = orient(pareto_graph, DescendingDegree())
        monkeypatch.setattr(native._lib, "forward", lambda *args: -1)
        with pytest.raises(MemoryError, match="forward"):
            native.count_triangles(g)
        for engine in ("auto", "native"):
            with pytest.raises(MemoryError, match="forward"):
                list_triangles(g, "T1", collect=False, engine=engine)

    @needs_native
    @pytest.mark.parametrize("engine", ["auto", "native"])
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_collect_failure_raises(self, monkeypatch, pareto_graph, engine,
                                    threads):
        """A collect streams (no count pass): a failing stream
        call, on the calling thread or the collect's worker, is raised
        as it is, never the gated None every engine falls back on."""
        g = orient(pareto_graph, DescendingDegree())
        monkeypatch.setenv("REPRO_NATIVE_THREADS", threads)

        def no_scratch(*args):
            raise MemoryError("forward_stream: no scratch")

        monkeypatch.setattr(native._lib, "forward_stream", no_scratch)
        with pytest.raises(MemoryError, match="forward_stream"):
            list_triangles(g, "T1", collect=True, engine=engine)

    @needs_native
    @pytest.mark.parametrize("engine", ["auto", "native"])
    def test_collect_thread_start_failure_raises(self, monkeypatch,
                                                 pareto_graph, engine):
        g = orient(pareto_graph, DescendingDegree())
        monkeypatch.setenv("REPRO_NATIVE_THREADS", "2")

        def cannot_start(self):
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr(native.threading.Thread, "start", cannot_start)
        with pytest.raises(MemoryError, match="thread start"):
            list_triangles(g, "T1", collect=True, engine=engine)

    def test_numpy_engine_falls_back_silently(self, monkeypatch,
                                              pareto_graph):
        """``run_numpy`` without the library returns the Python
        reference's result, with no warning or error."""
        monkeypatch.setattr(native, "_lib", None)
        g = orient(pareto_graph, DescendingDegree())
        result = run_numpy(g, "T1", collect=True)
        assert "engine" not in result.extra
        ref = list_triangles(g, "T1", collect=True, engine="python")
        assert result.triangles == ref.triangles


@needs_native
class TestNativeEngineValue:
    def test_native_engine_runs(self, oriented):
        result = list_triangles(oriented, "E4", collect=True,
                                engine="native")
        assert result.extra["engine"] == "native"
        ref = list_triangles(oriented, "E4", collect=True,
                             engine="python")
        assert sorted(result.triangles) == sorted(ref.triangles)
        assert result.ops == ref.ops
