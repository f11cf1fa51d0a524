"""Tests for the memory observability layer (`repro.obs.memory`).

Covers the array ledger (check-in/out accounting, tag/span
attribution, weakref auto-release), the footprint conformance model
against real pipeline allocations, the `REPRO_*` env knobs, the RAM
budget the chunked loops poll (RSS over budget aborts them; no budget
reads nothing), the per-span allocation attribution hook, and the
disabled-is-bit-identical guarantee.
"""

import concurrent.futures
import dataclasses
import gc
import json
import multiprocessing
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro import DescendingDegree, DiscretePareto, obs
from repro.distributions import root_truncation
from repro.distributions.sampling import sample_degree_sequence
from repro.experiments.harness import SimulationSpec, sweep_n
from repro.graphs.generators import generate_graph
from repro.obs import jsonl, memory, metrics, records
from repro.orientations.relabel import orient


@pytest.fixture(autouse=True)
def clean_memory():
    """Every test starts and ends with the whole obs stack off."""
    obs.disable()
    obs.reset()
    memory.disable()
    memory.reset()
    yield
    obs.disable()
    obs.reset()
    memory.disable()
    memory.reset()


def _oriented(n=2000, seed=3):
    rng = np.random.default_rng(seed)
    dist = DiscretePareto(1.7, 21.0).truncate(root_truncation(n))
    degrees = sample_degree_sequence(dist, n, rng)
    graph = generate_graph(degrees, rng)
    return orient(graph, DescendingDegree(), rng=rng)


class TestLedger:
    def test_disabled_checkin_is_none(self):
        assert memory.check_in("x", nbytes=100) is None
        assert memory.track(object(), "x", [np.zeros(4)]) == ()
        assert memory.attributed_bytes() == 0
        assert memory.ledger_rows() == []

    def test_checkin_checkout_accounting(self):
        memory.enable()
        a = np.zeros(1000, dtype=np.int64)
        token = memory.check_in("test.a", a)
        assert memory.attributed_bytes() == 8000
        assert memory.peak_bytes() == 8000
        (row,) = memory.ledger_rows()
        assert row["tag"] == "test.a"
        assert row["live_bytes"] == 8000
        assert row["dtypes"] == "int64"
        memory.check_out(token)
        assert memory.attributed_bytes() == 0
        (row,) = memory.ledger_rows()
        assert row["live_bytes"] == 0
        assert row["peak_bytes"] == 8000
        assert row["checkouts"] == 1

    def test_checkout_none_and_unknown_are_noops(self):
        memory.enable()
        memory.check_out(None)
        memory.check_out(12345)
        assert memory.attributed_bytes() == 0

    def test_nbytes_and_bytes_like(self):
        memory.enable()
        memory.check_in("raw", nbytes=512, dtype="blob")
        memory.check_in("buf", b"abcd")
        rows = {r["tag"]: r for r in memory.ledger_rows()}
        assert rows["raw"]["live_bytes"] == 512
        assert rows["buf"]["live_bytes"] == 4
        assert rows["buf"]["dtypes"] == "bytes"

    def test_unsizable_object_raises(self):
        memory.enable()
        with pytest.raises(TypeError):
            memory.check_in("bad", object())

    def test_track_releases_on_gc(self):
        memory.enable()

        class Owner:
            pass

        owner = Owner()
        tokens = memory.track(owner, "tracked",
                              [np.zeros(10, dtype=np.int64),
                               np.zeros(5, dtype=np.int64)])
        assert len(tokens) == 2
        assert memory.attributed_bytes() == 120
        del owner
        gc.collect()
        assert memory.attributed_bytes() == 0
        assert memory.peak_bytes() == 120

    def test_span_attribution(self):
        memory.enable()
        obs.enable()
        with obs.span("phase-x"):
            memory.check_in("inner", nbytes=64)
        summary = memory.ledger_summary()
        assert summary["spans"]["phase-x"]["peak_bytes"] == 64

    def test_metrics_gauges_published(self):
        memory.enable()
        metrics.enable()
        token = memory.check_in("g", nbytes=100)
        snap = metrics.snapshot()
        assert snap["gauges"]["mem.attributed_bytes"] == 100.0
        assert snap["counters"]["mem.ledger.checkins"] == 1
        memory.check_out(token)
        snap = metrics.snapshot()
        assert snap["gauges"]["mem.attributed_bytes"] == 0.0
        assert snap["gauges"]["mem.attributed_peak_bytes"] == 100.0

    def test_env_knob_resolved_lazily(self, monkeypatch):
        monkeypatch.setenv(memory.MEM_LEDGER_ENV, "1")
        monkeypatch.setattr(memory, "_enabled", None)
        assert memory.is_enabled()
        monkeypatch.setenv(memory.MEM_LEDGER_ENV, "0")
        monkeypatch.setattr(memory, "_enabled", None)
        assert not memory.is_enabled()

    def test_summary_is_json_serializable(self):
        memory.enable()
        memory.check_in("j", np.zeros(3, dtype=np.float64))
        json.dumps(memory.ledger_summary())


class TestFootprintConformance:
    def test_predict_python_engine_graph_only(self):
        pred = memory.predict_footprint(100, 400)
        assert set(pred["components"]) == {"graph.csr", "graph.degrees",
                                           "ugraph.keys", "ugraph.degrees"}
        # uint32 indices (2m), int64 indptr (2(n + 1))
        assert pred["components"]["graph.csr"] == 4 * 800 + 8 * 202
        assert pred["components"]["graph.degrees"] == 24 * 100
        # the undirected graph: int64 keys (m) and degrees (n)
        assert pred["components"]["ugraph.keys"] == 8 * 400
        assert pred["components"]["ugraph.degrees"] == 8 * 100

    def test_native_count_adds_no_graph_copy(self):
        """The compiled kernels read the graph's own CSR by pointer."""
        from repro.engine import native
        if not native.available():
            pytest.skip("no compiled kernel in this environment")
        memory.enable()
        oriented = _oriented()
        assert native.count_triangles(oriented) > 0
        rows = {r["tag"]: r for r in memory.ledger_rows()}
        assert set(rows) == {"graph.csr", "graph.degrees", "ugraph.keys",
                             "ugraph.degrees"}
        pred = memory.predict_footprint(oriented.n, oriented.m)
        for tag, nbytes in pred["components"].items():
            assert rows[tag]["live_bytes"] == nbytes, tag

    @pytest.mark.parametrize("method", ["E1", "E4", "L6"])
    def test_pipeline_matches_prediction(self, method):
        from repro.listing.api import list_triangles
        memory.enable()
        oriented = _oriented()
        list_triangles(oriented, method, collect=False)
        report = memory.conformance_report(oriented.n, oriented.m,
                                           method=method)
        assert report["verdict"] == "pass", report
        for row in report["components"]:
            assert row["within"], row

    def test_missing_tag_fails_not_passes(self):
        # an unobserved predicted component is a conformance failure
        report = memory.conformance_report(2000, 10000, method="E1",
                                           rows=[])
        assert report["verdict"] == "fail"
        assert all(r["actual_bytes"] == 0 for r in report["components"])

    @pytest.mark.parametrize("n", [0, 5], ids=["n0", "m0"])
    def test_empty_graph_conforms(self, n):
        # components that are exactly right at 0 == 0 bytes pass, and
        # the report stays strict JSON (no inf ratios)
        from repro.graphs.graph import Graph
        from repro.listing.api import list_triangles
        memory.enable()
        graph = Graph(n, np.empty((0, 2), dtype=np.int64))
        oriented = orient(graph, DescendingDegree())
        list_triangles(oriented, "E1", collect=False)
        report = memory.conformance_report(oriented.n, oriented.m,
                                           method="E1")
        assert report["verdict"] == "pass", report
        for row in report["components"]:
            assert row["within"], row
        assert any(row["predicted_bytes"] == 0
                   for row in report["components"])
        json.dumps(report, allow_nan=False)

    def test_bytes_against_zero_prediction_miss(self):
        rows = [{"tag": "ugraph.keys", "peak_bytes": 64}]
        report = memory.conformance_report(5, 0, method="E1", rows=rows)
        keys, = [r for r in report["components"]
                 if r["tag"] == "ugraph.keys"]
        assert keys["ratio"] == float("inf") and not keys["within"]

    def test_unmodeled_tags_listed_but_never_gate(self):
        memory.enable()
        oriented = _oriented()
        from repro.listing.api import list_triangles
        list_triangles(oriented, "E1", collect=False)
        memory.check_in("custom.scratch", nbytes=123)
        report = memory.conformance_report(oriented.n, oriented.m,
                                           method="E1")
        assert report["verdict"] == "pass"
        assert {u["tag"] for u in report["unmodeled"]} == \
            {"custom.scratch"}

    def test_degenerate_order_builds_no_undirected_csr(self):
        """The native smallest-last order reads the graph's keys and
        frees its own rows, so no ordering builds ``Graph.csr()``: its
        bytes are not predicted, and the verdict passes. The Python
        loop (no compiled kernels) does build it, and the ledger lists
        it as unmodeled, which never gates."""
        from repro.engine import native
        from repro.listing.api import list_triangles
        from repro.orientations.degenerate import DegenerateOrder
        memory.enable()
        rng = np.random.default_rng(3)
        dist = DiscretePareto(1.7, 21.0).truncate(root_truncation(2000))
        graph = generate_graph(sample_degree_sequence(dist, 2000, rng), rng)
        oriented = orient(graph, DegenerateOrder())
        list_triangles(oriented, "E1", collect=False)
        report = memory.conformance_report(oriented.n, oriented.m,
                                           method="E1")
        assert report["verdict"] == "pass", report
        assert "ugraph.csr" not in {r["tag"] for r in report["components"]}
        if native.available():
            assert graph._csr is None
            assert report["unmodeled"] == []
        else:
            assert [u["tag"] for u in report["unmodeled"]] == ["ugraph.csr"]

    def test_formatters_render(self):
        memory.enable()
        memory.check_in("fmt", nbytes=2048, dtype="int64")
        assert "fmt" in memory.format_ledger(memory.ledger_rows())
        report = memory.conformance_report(10, 20, method="E1")
        text = memory.format_conformance(report)
        assert "footprint conformance" in text
        summary_text = memory.format_summary(memory.ledger_summary(),
                                             report)
        assert "attributed" in summary_text
        assert memory.format_ledger([]).startswith("ledger empty")


class TestParseBytes:
    @pytest.mark.parametrize("text,expected", [
        ("", 0), ("0", 0), ("off", 0), ("garbage", 0),
        ("1048576", 1048576), ("512", 512),
        ("1k", 1024), ("512M", 512 * 1024 ** 2),
        ("2g", 2 * 1024 ** 3), ("1T", 1024 ** 4),
        ("512mb", 512 * 1024 ** 2), ("512MiB", 512 * 1024 ** 2),
        ("1.5k", 1536), ("100b", 100),
    ])
    def test_cases(self, text, expected):
        assert memory.parse_bytes(text) == expected

    def test_budget_from_env(self, monkeypatch):
        monkeypatch.setenv(memory.MEM_BUDGET_ENV, "4M")
        assert memory.budget_bytes_from_env() == 4 * 1024 ** 2
        monkeypatch.delenv(memory.MEM_BUDGET_ENV)
        assert memory.budget_bytes_from_env() == 0


def _budget_child(body: str) -> subprocess.CompletedProcess:
    """Run ``body`` in a fresh interpreter whose only obs knob is
    ``REPRO_MEM_BUDGET=1`` (1 byte: any RSS is over it)."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") or k == "REPRO_NATIVE"}
    env["REPRO_MEM_BUDGET"] = "1"
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath(src)] + [p for p in (env.get("PYTHONPATH"),) if p])
    prelude = textwrap.dedent("""
        import numpy as np
        from repro import DescendingDegree, DiscretePareto
        from repro.distributions import root_truncation
        from repro.distributions.sampling import sample_degree_sequence
        from repro.graphs.generators import generate_graph
        from repro.obs.memory import MemoryBudgetExceeded
        from repro.orientations.relabel import orient
        rng = np.random.default_rng(3)
        dist = DiscretePareto(1.7, 21.0).truncate(root_truncation(2000))
        degrees = sample_degree_sequence(dist, 2000, rng)
        oriented = orient(generate_graph(degrees, rng),
                          DescendingDegree())
    """)
    return subprocess.run([sys.executable, "-c",
                           prelude + textwrap.dedent(body)],
                          env=env, capture_output=True, text=True,
                          timeout=120)


class TestBudget:
    """``REPRO_MEM_BUDGET`` alone stops the polled loops on RSS."""

    @pytest.fixture
    def tiny_budget(self, monkeypatch):
        monkeypatch.setenv(memory.MEM_BUDGET_ENV, "1")  # 1 B: any RSS
        memory.reset()  # re-resolve the budget on the next poll

    def test_fresh_process_native_collect_aborts(self):
        from repro.engine import native
        if not native.available():
            pytest.skip("no compiled kernel in this environment")
        proc = _budget_child("""
            from repro.listing.api import list_triangles
            try:
                result = list_triangles(oriented, "E1", collect=True)
            except MemoryBudgetExceeded as err:
                print("aborted:", err)
            else:
                print("listed", result.count)
        """)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("aborted:"), proc.stdout
        assert "native streaming listing" in proc.stdout
        assert "budget 1 bytes" in proc.stdout

    def test_fresh_process_ooc_loop_aborts(self):
        proc = _budget_child("""
            from repro.external.ooc_listing import external_e1
            try:
                result, io = external_e1(oriented, 3, collect=True)
            except MemoryBudgetExceeded as err:
                print("aborted:", err)
            else:
                print("listed", result.count)
        """)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("aborted:"), proc.stdout
        assert "out-of-core E1 partition loop" in proc.stdout

    def test_spawn_worker_resolves_the_budget(self, tiny_budget):
        ctx = multiprocessing.get_context("spawn")
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=1, mp_context=ctx) as pool:
            future = pool.submit(memory.check_budget, "spawned worker")
            with pytest.raises(memory.MemoryBudgetExceeded,
                               match="spawned worker"):
                future.result(timeout=120)

    def test_no_budget_poll_reads_nothing(self, monkeypatch):
        monkeypatch.delenv(memory.MEM_BUDGET_ENV, raising=False)
        opened = []

        def spy(path, *args, **kwargs):
            opened.append(str(path))
            return open(path, *args, **kwargs)

        monkeypatch.setattr(memory, "open", spy, raising=False)
        for __ in range(100):
            memory.check_budget("unit test")
        assert opened == []
        assert memory._budget == 0
        # the spy does see the read once a budget is set
        monkeypatch.setenv(memory.MEM_BUDGET_ENV, "1T")
        memory.reset()
        memory.check_budget("unit test")
        assert opened == ["/proc/self/statm"]

    def test_budget_resolves_once_per_process(self, monkeypatch):
        monkeypatch.setenv(memory.MEM_BUDGET_ENV, "1T")
        memory.check_budget("unit test")
        monkeypatch.setenv(memory.MEM_BUDGET_ENV, "1")
        memory.check_budget("unit test")  # still the 1T budget
        memory.reset()
        with pytest.raises(memory.MemoryBudgetExceeded) as err:
            memory.check_budget("unit test")
        assert "unit test" in str(err.value)
        assert "budget 1 bytes" in str(err.value)

    def test_rss_is_current_not_peak(self):
        rss = memory._rss_bytes()
        assert 0 < rss
        big = np.ones(64 * 1024 ** 2 // 8)  # 64 MiB, touched
        assert memory._rss_bytes() > rss
        del big

    def test_engine_chunk_loop_aborts_gracefully(self, tiny_budget):
        """The native collect polls the budget between chunks."""
        from repro.engine import native
        from repro.listing.api import list_triangles
        if not native.available():
            pytest.skip("no compiled kernel in this environment")
        oriented = _oriented(n=500)
        with pytest.raises(memory.MemoryBudgetExceeded):
            list_triangles(oriented, "E1", collect=True)

    def test_ooc_loop_aborts_gracefully(self, tiny_budget):
        from repro.external.ooc_listing import external_e1
        oriented = _oriented(n=300)
        with pytest.raises(memory.MemoryBudgetExceeded):
            external_e1(oriented, 3, collect=False)


class TestAllocAttribution:
    def test_env_knob(self, monkeypatch):
        monkeypatch.delenv(memory.TRACEMALLOC_ENV, raising=False)
        obs.spans.enable()
        assert obs.spans._alloc_top_k == 0
        for raw, expected in (("1", memory.DEFAULT_ALLOC_TOP_K),
                              ("7", 7), ("bogus", 0)):
            monkeypatch.setenv(memory.TRACEMALLOC_ENV, raw)
            obs.spans.enable()
            assert obs.spans._alloc_top_k == expected

    def test_span_carries_top_allocations(self):
        obs.spans.enable(alloc=5)
        with obs.span("alloc-test"):
            _ = np.zeros(200_000, dtype=np.int64)  # ~1.6 MB
        (root,) = obs.spans.pop_finished()
        assert root.alloc, "no allocation sites attached"
        top = root.alloc[0]
        assert set(top) == {"file", "line", "size_bytes", "count"}
        assert top["size_bytes"] > 10_000
        data = root.to_dict()
        assert data["alloc"] == root.alloc
        back = obs.spans.Span.from_dict(data)
        assert back.alloc == root.alloc

    def test_alloc_off_by_default(self, monkeypatch):
        monkeypatch.delenv(memory.TRACEMALLOC_ENV, raising=False)
        obs.enable()
        with obs.span("no-alloc"):
            _ = np.zeros(1000)
        (root,) = obs.spans.pop_finished()
        assert root.alloc is None
        assert "alloc" not in root.to_dict()


class TestDisabledParity:
    def test_disabled_bit_identical(self, monkeypatch):
        """Counts/ops are byte-identical with memory obs on or off."""
        spec = SimulationSpec(
            base_dist=DiscretePareto(1.7, 21.0),
            truncation=root_truncation,
            method="T1",
            permutation=DescendingDegree(),
            limit_map="descending",
            n_sequences=2,
            n_graphs=2,
        )
        baseline = sweep_n(spec, [200], seed=11)
        memory.enable()
        monkeypatch.setenv(memory.MEM_BUDGET_ENV, "1G")
        with_mem = sweep_n(spec, [200], seed=11)
        memory.disable()
        memory.reset()
        monkeypatch.delenv(memory.MEM_BUDGET_ENV)
        again = sweep_n(spec, [200], seed=11)
        assert with_mem == baseline
        assert again == baseline

    def test_pooled_sweep_ledger_matches_serial(self):
        """Pooled workers ship their ledger rows home: the run's tags,
        peaks, totals and check-ins equal the serial run's."""
        from repro.experiments.parallel import sweep_n_parallel
        spec = SimulationSpec(
            base_dist=DiscretePareto(1.7, 21.0),
            truncation=root_truncation, method="T1",
            permutation=DescendingDegree(), limit_map="descending",
            n_sequences=2, n_graphs=2)
        tables = []
        for workers in (1, 2):
            memory.reset()
            memory.enable()
            tables.append(sweep_n_parallel(spec, [300], seed=4,
                                           max_workers=workers))
            rows = {r["tag"]: (r["peak_bytes"], r["total_bytes"],
                               r["checkins"]) for r in memory.ledger_rows()}
            tables.append(rows)
            memory.disable()
        serial_table, serial_rows, pooled_table, pooled_rows = tables
        assert pooled_table == serial_table
        assert set(serial_rows) == {"ugraph.keys", "ugraph.degrees"}
        assert pooled_rows == serial_rows

    def test_listing_identical_with_ledger(self):
        from repro.listing.api import list_triangles
        oriented = _oriented(n=800)
        off = list_triangles(oriented, "E1", collect=True)
        memory.enable()
        oriented2 = _oriented(n=800)
        on = list_triangles(oriented2, "E1", collect=True)
        assert on.count == off.count
        assert on.ops == off.ops
        assert set(on.triangles) == set(off.triangles)


class TestRecordsAndExports:
    def test_ledger_rides_run_record(self):
        memory.enable()
        memory.check_in("rec.tag", nbytes=4096, dtype="int64")
        record = records.collect("mem-test")
        summary = record.metrics["memory"]
        assert summary["current_bytes"] == 4096
        assert summary["tags"][0]["tag"] == "rec.tag"
        json.loads(jsonl.dumps(dataclasses.asdict(record)))

    def test_trace_gets_memory_counter_track(self):
        from repro.obs import export, records
        record = records.RunRecord(
            name="mem-trace",
            spans=[{"name": "root", "start_ns": 1000,
                    "duration_ns": 5_000_000}],
            metrics={
                "memory": {"current_bytes": 300, "peak_bytes": 400},
            })
        trace = export.records_to_trace([record])
        export.validate_trace(trace)
        counters = [e for e in trace["traceEvents"]
                    if e.get("cat") == "memory"]
        assert {e["name"]: e["args"]["value"] for e in counters} == {
            "mem.attributed_current_bytes": 300,
            "mem.attributed_peak_bytes": 400}

    def test_validate_trace_rejects_bad_memory_counter(self):
        from repro.obs import export
        trace = {"traceEvents": [
            {"name": "mem.attributed_current_bytes", "cat": "memory",
             "ph": "C",
             "pid": 1, "tid": 1, "ts": 0.0, "args": {"value": -5}},
        ]}
        with pytest.raises(ValueError, match="non-negative"):
            export.validate_trace(trace)

