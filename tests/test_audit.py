"""Tests for the model-conformance audit layer (:mod:`repro.obs.audit`).

Covers the acceptance criteria of the audit PR: zero-overhead when
disabled (bit-identical auto-routed runs, no audit I/O), schema-valid
records for every auto-routed call, realized regret matching the
regret-harness definition bit-for-bit on the committed suite, the
misplan diagnosis taxonomy, the rolling calibration store (round-trip
through ``speed_ratio="calibrated"``, staleness, host matching, the
lru cache), speed-ratio resolution precedence, the deterministic
histogram reservoir, the trend auto columns, the audit line's schema
row, and the ``repro audit`` CLI from cold and populated history.
"""

import json
import math
from types import SimpleNamespace

import pytest

from repro import cli, obs
from repro.core.decision import PAPER_SPEED_RATIO, resolve_speed_ratio
from repro.engine import benchmark as bench
from repro.listing.api import list_triangles
from repro.obs import audit, jsonl, metrics, records, report
from repro.orientations.permutations import DescendingDegree
from repro.orientations.relabel import orient
from repro.pipeline import run_pipeline
from repro.planner.regret import default_suite, run_regret_suite


@pytest.fixture(autouse=True)
def clean_state(monkeypatch):
    """Isolate every test from the process env and module globals."""
    obs.disable()
    obs.reset()
    for var in ("REPRO_AUDIT", "REPRO_RUNS_FILE",
                "REPRO_CALIBRATION_FILE", "REPRO_SPEED_RATIO"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setattr(audit, "_enabled", None)
    bench.calibrated_speed_ratio.cache_clear()
    yield
    obs.disable()
    obs.reset()
    bench.calibrated_speed_ratio.cache_clear()


def enable_audit(monkeypatch, tmp_path):
    """Turn auditing on with an isolated stream; returns its path."""
    sink = tmp_path / "runs.jsonl"
    monkeypatch.setenv(records.RUNS_FILE_ENV, str(sink))
    monkeypatch.setattr(audit, "_enabled", True)
    return sink


# --------------------------------------------------------------- gating

class TestGating:
    def test_off_by_default(self):
        assert audit.is_enabled() is False

    def test_env_resolved_lazily_once(self, monkeypatch):
        monkeypatch.setenv(audit.AUDIT_ENV, "1")
        assert audit.is_enabled() is True
        # resolved exactly once: later env changes don't flip it
        monkeypatch.setenv(audit.AUDIT_ENV, "0")
        assert audit.is_enabled() is True

    @pytest.mark.parametrize("value", ["0", "", "no", "off"])
    def test_falsy_env_values(self, monkeypatch, value):
        monkeypatch.setenv(audit.AUDIT_ENV, value)
        assert audit.is_enabled() is False

    def test_enable_disable(self):
        audit.enable()
        assert audit.is_enabled()
        audit.disable()
        assert not audit.is_enabled()

    def test_disabled_hook_is_inert(self, tmp_path, monkeypatch):
        monkeypatch.setenv(records.RUNS_FILE_ENV,
                           str(tmp_path / "runs.jsonl"))
        assert audit.record_auto_route(None, "list_triangles") is None
        assert not (tmp_path / "runs.jsonl").exists()

    def test_audit_path_precedence(self, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)  # the default path is relative
        audit.write_audit_record({"route": "default"})
        monkeypatch.setenv(records.RUNS_FILE_ENV, str(tmp_path / "a"))
        audit.write_audit_record({"route": "env"})
        audit.write_audit_record({"route": "explicit"}, tmp_path / "b")
        for path, route in ((records.DEFAULT_RUNS_PATH, "default"),
                            (None, "env"), (tmp_path / "b", "explicit")):
            assert [r["route"] for r in audit.load_audit(path)] == [route]


class TestZeroOverheadOff:
    def test_auto_runs_bit_identical_and_no_io(self, pareto_graph,
                                               tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # catch any default-path writes
        oriented = orient(pareto_graph, DescendingDegree())
        off = list_triangles(oriented, method="auto")
        assert not (tmp_path / "benchmarks").exists()

        sink = enable_audit(monkeypatch, tmp_path)
        on = list_triangles(oriented, method="auto")
        assert (on.count, on.ops) == (off.count, off.ops)
        assert on.extra["auto_method"] == off.extra["auto_method"]
        assert sink.exists()


# ------------------------------------------------------ record lifecycle

class TestAutoRouteRecords:
    def test_list_triangles_route(self, pareto_graph, tmp_path,
                                  monkeypatch):
        sink = enable_audit(monkeypatch, tmp_path)
        oriented = orient(pareto_graph, DescendingDegree())
        result = list_triangles(oriented, method="auto")
        recs = audit.load_audit(sink)
        assert len(recs) == 1
        rec = recs[0]
        assert validate_clean(rec)
        assert rec["route"] == "list_triangles"
        assert rec["picked"]["method"] == result.extra["auto_method"]
        # the routing plan is its own exact table: regret is exactly 0
        assert rec["realized"]["regret"] == 0.0
        assert rec["actual"]["ops"] == result.ops
        assert rec["actual"]["triangles"] == result.count
        assert rec["entries"][0]["rank"] == 1
        assert rec["entries"][0]["method"] == rec["picked"]["method"]

    def test_run_pipeline_route(self, pareto_graph, tmp_path,
                                monkeypatch):
        sink = enable_audit(monkeypatch, tmp_path)
        report_obj = run_pipeline(pareto_graph, method="auto")
        recs = audit.load_audit(sink)
        assert len(recs) == 1
        rec = recs[0]
        assert validate_clean(rec)
        assert rec["route"] == "run_pipeline"
        assert rec["realized"]["regret"] == 0.0
        assert rec["actual"]["triangles"] == report_obj.count
        assert rec["n"] == pareto_graph.n
        assert rec["m"] == pareto_graph.m

    def test_validate_file_accepts_real_records(self, pareto_graph,
                                                tmp_path, monkeypatch):
        sink = enable_audit(monkeypatch, tmp_path)
        run_pipeline(pareto_graph, method="auto")
        oriented = orient(pareto_graph, DescendingDegree())
        list_triangles(oriented, method="auto")
        count, errors = jsonl.validate(sink, validate_record)
        assert count == 2
        assert errors == []

    def test_ratios_present_on_executed_route(self, pareto_graph,
                                              tmp_path, monkeypatch):
        sink = enable_audit(monkeypatch, tmp_path)
        run_pipeline(pareto_graph, method="auto")
        rec = audit.load_audit(sink)[0]
        assert rec["ratios"]["ops"] > 0
        assert rec["ratios"]["model_ops"] == pytest.approx(1.0)
        assert rec["ratios"]["time_unit_ns"] > 0


def validate_record(rec) -> list[str]:
    return jsonl.check(audit.AUDIT_RECORD, rec)


def validate_clean(rec) -> bool:
    errors = validate_record(rec)
    assert errors == []
    return True


class TestHarnessMatch:
    def test_regret_matches_harness_bit_for_bit(self, tmp_path,
                                                monkeypatch):
        sink = enable_audit(monkeypatch, tmp_path)
        cases = default_suite(n=200)
        rows = run_regret_suite(cases, seed=2017)
        recs = [r for r in audit.load_audit(sink)
                if r["route"] == "regret_case"]
        assert len(recs) == len(rows) == len(cases)
        by_label = {r["label"]: r for r in recs}
        for row in rows:
            rec = by_label[row["label"]]
            realized = rec["realized"]
            # exact float equality: same arithmetic, same inputs
            assert realized["regret"] == row["regret"]
            assert realized["oracle"] == row["oracle"]
            assert realized["picked_time"] == row["planner_time"]
            assert realized["oracle_time"] == row["oracle_time"]
            assert validate_clean(rec)

    def test_pure_pricing_route_has_no_actual(self, tmp_path,
                                              monkeypatch):
        sink = enable_audit(monkeypatch, tmp_path)
        run_regret_suite(default_suite(n=120)[:1], seed=3)
        rec = audit.load_audit(sink)[0]
        assert rec["actual"] is None
        assert "model_ops" in rec["ratios"]


# ---------------------------------------------------------- graph class

class TestGraphClass:
    @pytest.mark.parametrize("n, m, dmax, expected", [
        (None, 5, None, "unknown"),
        (10, None, None, "unknown"),
        (0, 0, None, "empty"),
        (10, 0, None, "empty"),
        (100, 50, None, "sparse"),         # avg 1 < 10
        (100, 5000, None, "dense"),        # avg 100 > 10
        (100, 50, 3, "sparse-light"),
        (100, 50, 90, "sparse-heavy"),     # 90 > 8 * max(1, 1)
        (100, 5000, 99, "dense-light"),
        (16, 64, 15, "dense-heavy"),       # avg 8 > 4; 15 > 8? no...
    ])
    def test_labels(self, n, m, dmax, expected):
        if expected == "dense-heavy":
            # avg = 8 > sqrt(16) = 4 -> dense; heavy needs > 64
            assert audit.graph_class(16, 64, 65) == "dense-heavy"
        else:
            assert audit.graph_class(n, m, dmax) == expected


# ------------------------------------------------------- realized regret

def _fake_plan(best_time, entry_time, key="T1+D"):
    method, ordering = key.split("+")
    entry = SimpleNamespace(method=method, ordering=ordering,
                            predicted_time=entry_time,
                            predicted_cost=entry_time)
    best = SimpleNamespace(method="E1", ordering="D", key="E1+D",
                           predicted_time=best_time,
                           predicted_cost=best_time)
    return SimpleNamespace(
        best=best,
        entry=lambda m, o: entry if (m, o) == (method, ordering)
        else (_ for _ in ()).throw(KeyError(f"{m}+{o}")))


class TestRealizedRegret:
    def test_pick_missing_from_table(self):
        plan = _fake_plan(1.0, 2.0)
        assert audit.realized_regret(
            {"method": "ZZ", "ordering": "D"}, plan) is None

    def test_basic_arithmetic(self):
        out = audit.realized_regret(
            {"method": "T1", "ordering": "D"}, _fake_plan(2.0, 3.0))
        assert out["regret"] == pytest.approx(0.5)
        assert out["oracle"] == "E1+D"

    def test_zero_best_guards(self):
        # both zero: perfect pick on a free graph
        assert audit.realized_regret(
            {"method": "T1", "ordering": "D"},
            _fake_plan(0.0, 0.0))["regret"] == 0.0
        # free oracle, costly pick: infinite regret
        assert math.isinf(audit.realized_regret(
            {"method": "T1", "ordering": "D"},
            _fake_plan(0.0, 5.0))["regret"])


# -------------------------------------------------------------- diagnose

def _misplan_record(**overrides):
    rec = {
        "speed_ratio": 94.8,
        "confidence": 0.5,
        "picked": {"method": "E1", "ordering": "D", "family": "sei"},
        "entries": [
            {"method": "E1", "ordering": "D", "family": "sei",
             "cost": 100.0},
            {"method": "T1", "ordering": "D", "family": "hash",
             "cost": 5.0},
        ],
        "realized": {"regret": 0.5},
        "ratios": {},
    }
    rec.update(overrides)
    return rec


class TestDiagnose:
    def test_ok_when_regret_small_or_absent(self):
        assert audit.diagnose({"realized": {"regret": 0.05}})["kind"] \
            == "ok"
        assert audit.diagnose({"realized": None})["kind"] == "ok"
        assert audit.diagnose({})["kind"] == "ok"

    def test_model_divergence(self):
        rec = _misplan_record(ratios={"model_ops": 2.0})
        assert audit.diagnose(rec)["kind"] == "model_divergence"

    def test_speed_ratio_drift_needs_winner_flip(self):
        rec = _misplan_record()
        # stored 2.0 vs assumed 94.8: factor >> 2, and re-ranking at
        # 2.0 makes T1 (5.0) beat E1 (100/2 = 50)
        out = audit.diagnose(rec, stored_ratio=2.0)
        assert out["kind"] == "speed_ratio_drift"
        assert "T1+D" in out["detail"]

    def test_drift_without_flip_falls_through(self):
        rec = _misplan_record(entries=[
            {"method": "E1", "ordering": "D", "family": "sei",
             "cost": 1.0},
            {"method": "T1", "ordering": "D", "family": "hash",
             "cost": 500.0}])
        # huge factor but E1 still wins under the stored ratio
        assert audit.diagnose(rec, stored_ratio=2.0)["kind"] \
            == "unexplained"

    def test_tie_margin(self):
        rec = _misplan_record(confidence=0.01)
        assert audit.diagnose(rec)["kind"] == "tie_margin"

    def test_unexplained(self):
        assert audit.diagnose(_misplan_record())["kind"] == "unexplained"

    def test_rerank_winner(self):
        entries = _misplan_record()["entries"]
        assert audit._rerank_winner(entries, 94.8) == "E1+D"
        assert audit._rerank_winner(entries, 2.0) == "T1+D"
        assert audit._rerank_winner([], 2.0) is None


# ------------------------------------------------------------ validation

class TestValidation:
    def test_not_a_dict(self):
        assert validate_record([1, 2])

    def test_missing_and_mistyped_fields(self, pareto_graph, tmp_path,
                                         monkeypatch):
        sink = enable_audit(monkeypatch, tmp_path)
        run_pipeline(pareto_graph, method="auto")
        rec = audit.load_audit(sink)[0]
        assert validate_record(rec) == []
        bad = dict(rec)
        del bad["route"]
        assert any("route" in e for e in validate_record(bad))
        bad = dict(rec, confidence="high")
        assert any("confidence" in e
                   for e in validate_record(bad))
        bad = dict(rec, entries=[])
        assert any("entries" in e
                   for e in validate_record(bad))
        # booleans are not acceptable stand-ins for numbers
        bad = dict(rec, schema=True)
        assert any("schema" in e for e in validate_record(bad))

    def test_validate_file_flags_corrupt_lines(self, tmp_path):
        sink = tmp_path / "audit.jsonl"
        sink.write_text('{"schema": 1}\nnot json\n', encoding="utf-8")
        count, errors = jsonl.validate(sink, validate_record)
        assert count == 2
        assert any("not JSON" in e for e in errors)
        assert any("line 1" in e for e in errors)  # missing fields


# ----------------------------------------------------------- aggregation

def _rec(method="T1", ordering="D", cls="sparse-light", regret=0.0,
         ratio=1.0, kind="ok", route="list_triangles", label=None):
    return {
        "route": route, "label": label, "graph_class": cls,
        "picked": {"method": method, "ordering": ordering},
        "confidence": 0.4,
        "realized": {"regret": regret, "oracle": "E1+D"},
        "ratios": {"ops": ratio},
        "diagnosis": {"kind": kind, "detail": ""},
    }


class TestAnalyzer:
    def test_prediction_ratio_prefers_measured_ops(self):
        rec = {"ratios": {"ops": 2.0, "model_ops": 3.0}}
        assert audit.prediction_ratio(rec) == 2.0
        assert audit.prediction_ratio({"ratios": {"model_ops": 3.0}}) \
            == 3.0
        assert audit.prediction_ratio({"ratios": {"ops": math.inf}}) \
            is None
        assert audit.prediction_ratio({}) is None

    def test_conformance_rows_group_and_sort(self):
        recs = [_rec(ratio=0.8), _rec(ratio=1.2),
                _rec(method="E1", cls="dense-light", regret=0.5,
                     kind="unexplained")]
        rows = audit.conformance_rows(recs)
        assert len(rows) == 2
        assert rows[0]["method"] == "T1"          # biggest group first
        assert rows[0]["count"] == 2
        assert rows[0]["ratio_median"] == pytest.approx(1.0)
        assert rows[0]["calibration_error"] == pytest.approx(0.2)
        assert rows[0]["misplans"] == 0
        assert rows[1]["misplans"] == 1
        assert rows[1]["regret_max"] == pytest.approx(0.5)

    def test_misplan_rows_threshold_and_order(self):
        recs = [_rec(), _rec(regret=0.2, kind="tie_margin"),
                _rec(regret=math.inf, kind="unexplained")]
        rows = audit.misplan_rows(recs)
        assert len(rows) == 2
        assert math.isinf(rows[0]["regret"])      # worst first
        # a clean diagnosis can still be flagged by a tighter threshold
        assert len(audit.misplan_rows([_rec(regret=0.05)],
                                      threshold=0.01)) == 1

    def test_summary_headlines(self):
        recs = [_rec(), _rec(regret=0.04, route="run_pipeline"),
                _rec(regret=math.inf, kind="unexplained")]
        summary = audit.audit_summary(recs)
        assert summary["records"] == 3
        assert summary["routes"] == {"list_triangles": 2,
                                     "run_pipeline": 1}
        assert summary["misplans"] == 1
        assert summary["median_regret"] == pytest.approx(0.02)
        assert math.isinf(summary["worst_regret"])

    def test_formatters_smoke(self):
        recs = [_rec(), _rec(regret=0.9, kind="tie_margin",
                             label="ring/n=64")]
        assert "misplan" in audit.format_summary(recs)
        assert "tie_margin" in audit.format_misplans(
            audit.misplan_rows(recs))
        assert "T1" in audit.format_conformance(
            audit.conformance_rows(recs))
        assert audit.format_misplans([]) == "no misplans recorded"
        assert audit.format_conformance([]) == "no audit records"


# ------------------------------------------------------------- jsonl I/O

class TestAppendJsonl:
    def test_creates_parents_and_appends(self, tmp_path):
        sink = tmp_path / "deep" / "dir" / "log.jsonl"
        jsonl.append(sink, {"a": 1})
        jsonl.append(sink, {"a": 2})
        lines = sink.read_text(encoding="utf-8").splitlines()
        assert [json.loads(l)["a"] for l in lines] == [1, 2]


# ----------------------------------------------------- calibration store

class TestCalibrationStore:
    def test_round_trip(self, tmp_path):
        store = tmp_path / "speed_ratio.json"
        bench.store_calibration(3.5, path=store, now=1000.0)
        assert bench.stored_speed_ratio(path=store, now=1001.0) == 3.5

    def test_median_of_fresh_entries(self, tmp_path):
        store = tmp_path / "speed_ratio.json"
        for ratio in (2.0, 10.0, 3.0):
            bench.store_calibration(ratio, path=store, now=1000.0)
        assert bench.stored_speed_ratio(path=store, now=1001.0) == 3.0

    def test_staleness_returns_none(self, tmp_path):
        store = tmp_path / "speed_ratio.json"
        bench.store_calibration(3.5, path=store, now=1000.0)
        assert bench.stored_speed_ratio(
            path=store, max_age_s=60.0, now=5000.0) is None

    def test_other_host_entries_ignored(self, tmp_path):
        store = tmp_path / "speed_ratio.json"
        bench.store_calibration(3.5, path=store, now=1000.0)
        data = json.loads(store.read_text(encoding="utf-8"))
        data["entries"][0]["host"] = "128-sparc-py9.9"
        store.write_text(json.dumps(data), encoding="utf-8")
        assert bench.stored_speed_ratio(path=store, now=1001.0) is None

    def test_engine_entries_separate(self, tmp_path):
        # a store written when the ratio could be timed on another
        # engine may hold "native" entries: the reader skips them, and
        # an entry without an engine reads as a python one
        store = tmp_path / "speed_ratio.json"
        bench.store_calibration(2.0, path=store, now=1000.0)
        data = json.loads(store.read_text(encoding="utf-8"))
        assert data["entries"][0]["engine"] == "python"
        native = dict(data["entries"][0], engine="native", ratio=9.0)
        bare = {k: v for k, v in data["entries"][0].items()
                if k != "engine"}
        data["entries"] += [native, native, bare]
        store.write_text(json.dumps(data), encoding="utf-8")
        assert bench.stored_speed_ratio(path=store, now=1001.0) == 2.0
        data["entries"] = [native]
        store.write_text(json.dumps(data), encoding="utf-8")
        assert bench.stored_speed_ratio(path=store, now=1001.0) is None

    def test_rolling_window_trims(self, tmp_path):
        store = tmp_path / "speed_ratio.json"
        for i in range(bench.MAX_STORE_ENTRIES + 5):
            bench.store_calibration(float(i + 1), path=store,
                                    now=1000.0 + i)
        entries = bench.load_calibration_store(store)["entries"]
        assert len(entries) == bench.MAX_STORE_ENTRIES
        # the oldest measurements fell off the window
        assert min(e["ratio"] for e in entries) == 6.0

    def test_corrupt_store_degrades_to_empty(self, tmp_path):
        store = tmp_path / "speed_ratio.json"
        store.write_text("{broken", encoding="utf-8")
        assert bench.load_calibration_store(store) \
            == {"version": 1, "entries": []}
        assert bench.stored_speed_ratio(path=store) is None

    def test_calibrated_prefers_store_over_measuring(self, tmp_path,
                                                     monkeypatch):
        store = tmp_path / "speed_ratio.json"
        bench.store_calibration(4.25, path=store)
        monkeypatch.setenv(bench.CALIBRATION_FILE_ENV, str(store))

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("measured despite a fresh store")

        monkeypatch.setattr(bench, "measure_speed_ratio", boom)
        bench.calibrated_speed_ratio.cache_clear()
        assert bench.calibrated_speed_ratio() == 4.25

    def test_no_write_back_without_opt_in(self, tmp_path, monkeypatch):
        # "calibrated" is read-only: a cold store is measured, never
        # written, whatever the environment says
        store = tmp_path / "speed_ratio.json"
        monkeypatch.setenv(bench.CALIBRATION_FILE_ENV, str(store))
        monkeypatch.setenv("REPRO_CALIBRATION_WRITE", "1")
        monkeypatch.setattr(bench, "measure_speed_ratio",
                            lambda *a, **kw: 7.5)
        bench.calibrated_speed_ratio.cache_clear()
        assert bench.calibrated_speed_ratio() == 7.5
        assert not store.exists()

    def test_lru_cache_pins_resolution(self, tmp_path, monkeypatch):
        store = tmp_path / "speed_ratio.json"
        bench.store_calibration(4.0, path=store)
        monkeypatch.setenv(bench.CALIBRATION_FILE_ENV, str(store))
        bench.calibrated_speed_ratio.cache_clear()
        assert bench.calibrated_speed_ratio() == 4.0
        # store changes are invisible until the cache is cleared
        bench.store_calibration(400.0, path=store)
        assert bench.calibrated_speed_ratio() == 4.0
        bench.calibrated_speed_ratio.cache_clear()
        assert bench.calibrated_speed_ratio() > 4.0


class TestSpeedRatioResolution:
    def test_explicit_float_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SPEED_RATIO", "50")
        assert resolve_speed_ratio(5.0) == 5.0

    def test_env_beats_paper_default(self, monkeypatch):
        assert resolve_speed_ratio(None) == PAPER_SPEED_RATIO
        monkeypatch.setenv("REPRO_SPEED_RATIO", "12.5")
        assert resolve_speed_ratio(None) == 12.5

    def test_paper_keyword(self):
        assert resolve_speed_ratio("paper") == PAPER_SPEED_RATIO

    def test_calibrated_goes_through_store(self, tmp_path, monkeypatch):
        store = tmp_path / "speed_ratio.json"
        bench.store_calibration(6.5, path=store)
        monkeypatch.setenv(bench.CALIBRATION_FILE_ENV, str(store))
        bench.calibrated_speed_ratio.cache_clear()
        assert resolve_speed_ratio("calibrated") == 6.5

    @pytest.mark.parametrize("bad", ["fast", "-1", "0", "inf"])
    def test_invalid_values_raise(self, bad):
        with pytest.raises(ValueError):
            resolve_speed_ratio(bad)


# --------------------------------------------------- histogram reservoir

class TestReservoir:
    def test_identical_streams_identical_samples(self):
        a, b = metrics.Histogram(), metrics.Histogram()
        stream = [float(i % 997) for i in range(metrics.MAX_SAMPLES
                                                + 2000)]
        for v in stream:
            a.observe(v)
            b.observe(v)
        assert a.samples == b.samples
        assert a.summary() == b.summary()

    def test_exact_stats_survive_sampling(self):
        h = metrics.Histogram()
        n = metrics.MAX_SAMPLES + 321
        for i in range(n):
            h.observe(float(i))
        assert h.count == n
        assert h.total == float(n * (n - 1) // 2)
        assert h.min == 0.0
        assert h.max == float(n - 1)
        assert len(h.samples) == metrics.MAX_SAMPLES

    def test_late_values_can_enter_the_reservoir(self):
        h = metrics.Histogram()
        for _ in range(metrics.MAX_SAMPLES):
            h.observe(0.0)
        for _ in range(metrics.MAX_SAMPLES):
            h.observe(1.0)
        # deterministic with RESERVOIR_SEED: the second half displaces
        # a healthy share of the first
        ones = sum(1 for s in h.samples if s == 1.0)
        assert 0 < ones < metrics.MAX_SAMPLES

    def test_seed_changes_selection(self):
        a, b = metrics.Histogram(seed=1), metrics.Histogram(seed=2)
        for i in range(metrics.MAX_SAMPLES + 2000):
            a.observe(float(i))
            b.observe(float(i))
        assert a.samples != b.samples
        assert (a.count, a.min, a.max) == (b.count, b.min, b.max)


# ------------------------------------------------------ trend auto column

def _run_record(name="sweep", counters=None, gauges=None, config=None,
                ts=1.0):
    return records.RunRecord(
        name=name,
        config=config or {},
        spans=[{"name": "total", "duration_ns": 1_000_000}],
        metrics={"counters": counters or {}, "gauges": gauges or {}},
        meta={"git_rev": "abc1234", "timestamp_unix": ts})


class TestTrendAutoColumns:
    def test_counters_and_gauge(self):
        rows = report.trend_rows([_run_record(
            counters={"planner.auto.E1": 3, "planner.auto_routes": 3},
            gauges={"planner.auto_confidence": 0.4})])
        row = rows[0]
        assert row["auto_method"] == "E1"
        assert row["auto_routes"] == 3.0
        assert row["auto_confidence"] == pytest.approx(0.4)
        rendered = report.format_trends(rows)
        assert "E1x3" in rendered
        assert "0.40" in rendered

    def test_config_extra_fallback(self):
        rows = report.trend_rows([_run_record(config={
            "extra": {"auto_method": "T3", "auto_confidence": 0.2}})])
        assert rows[0]["auto_method"] == "T3"
        assert rows[0]["auto_routes"] == 1.0

    def test_absent_shows_dashes(self):
        rendered = report.format_trends(
            report.trend_rows([_run_record()]))
        assert rows_have_dash(rendered)


def rows_have_dash(rendered: str) -> bool:
    data_line = rendered.splitlines()[1]
    return " -- " in data_line


# ------------------------------------------------ audit lines in the stream

def _audit_line(picked="E1+D", regret=0.0, kind="ok", drift=None,
                ts=1.0, confidence=0.3):
    """One stream line as :func:`audit.write_audit_record` writes it."""
    method, ordering = picked.split("+")
    line = {"type": "audit", "schema": 1, "ts": ts, "pid": 1,
            "route": "x", "source": "graph", "speed_ratio": 94.8,
            "graph_class": "sparse-light", "confidence": confidence,
            "picked": {"method": method, "ordering": ordering,
                       "family": "hash", "predicted_cost": 1.0,
                       "predicted_time": 1.0},
            "entries": [{"method": method, "ordering": ordering,
                         "cost": 1.0, "time": 1.0, "rank": 1}],
            "actual": None,
            "realized": {"regret": regret, "oracle": "E1+D",
                         "oracle_time": 1.0, "picked_time": 1.0},
            "diagnosis": {"kind": kind}}
    if drift is not None:
        line["drift"] = {"assumed": 94.8, "calibrated": 94.8 / drift,
                         "factor": drift}
    return line


class TestBusSchema:
    """The audit line is the planner event: one schema row, ``audit``."""

    @pytest.mark.parametrize("event", [
        _audit_line(),
        _audit_line("T1+D", regret=0.5, kind="tie_margin"),
        _audit_line(drift=47.4),
    ])
    def test_new_events_validate(self, event):
        assert records.check_line(event) == []
        assert audit.drifted(event) == ("drift" in event)

    def test_missing_field_rejected(self):
        line = _audit_line(drift=47.4)
        del line["diagnosis"]
        assert records.check_line(line)


# ------------------------------------------------------------------- CLI

class TestAuditCLI:
    def _populate(self, monkeypatch, tmp_path, graph):
        sink = enable_audit(monkeypatch, tmp_path)
        run_pipeline(graph, method="auto")
        oriented = orient(graph, DescendingDegree())
        list_triangles(oriented, method="auto")
        return sink

    def test_cold_summary_exits_with_message(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["audit", "summary", "--runs",
                      str(tmp_path / "none.jsonl")])
        assert "no audit records" in str(exc.value)

    def test_summary_and_fail_over(self, pareto_graph, tmp_path,
                                   monkeypatch, capsys):
        sink = self._populate(monkeypatch, tmp_path, pareto_graph)
        assert cli.main(["audit", "summary", "--runs", str(sink)]) == 0
        assert "audit: 2 record(s)" in capsys.readouterr().out
        # auto routes re-price on their own table: zero regret passes
        assert cli.main(["audit", "summary", "--runs", str(sink),
                         "--fail-over", "0.25"]) == 0

    def test_fail_over_trips_on_high_regret(self, pareto_graph,
                                            tmp_path, monkeypatch,
                                            capsys):
        sink = self._populate(monkeypatch, tmp_path, pareto_graph)
        bad = audit.load_audit(sink)[0]
        bad["realized"]["regret"] = 0.9
        bad_sink = tmp_path / "bad.jsonl"
        audit.write_audit_record(bad, bad_sink)
        assert cli.main(["audit", "summary", "--runs", str(bad_sink),
                         "--fail-over", "0.25"]) == 1
        assert "FAIL" in capsys.readouterr().err

    def test_summary_json(self, pareto_graph, tmp_path, monkeypatch,
                          capsys):
        sink = self._populate(monkeypatch, tmp_path, pareto_graph)
        assert cli.main(["audit", "summary", "--runs", str(sink),
                         "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["summary"]["records"] == 2
        assert data["conformance"]

    def test_misplans_and_validate(self, pareto_graph, tmp_path,
                                   monkeypatch, capsys):
        sink = self._populate(monkeypatch, tmp_path, pareto_graph)
        assert cli.main(["audit", "misplans", "--runs",
                         str(sink)]) == 0
        assert "no misplans" in capsys.readouterr().out
        assert cli.main(["report", "validate", "--runs",
                         str(sink)]) == 0
        assert "2 line(s) OK" in capsys.readouterr().out

    def test_validate_rejects_corrupt(self, tmp_path, capsys):
        sink = tmp_path / "runs.jsonl"
        sink.write_text("garbage\n", encoding="utf-8")
        assert cli.main(["report", "validate", "--runs",
                         str(sink)]) == 1
        assert "not JSON" in capsys.readouterr().err
        sink.write_text(json.dumps({"type": "audit", "route": "x"})
                        + "\n", encoding="utf-8")
        assert cli.main(["report", "validate", "--runs",
                         str(sink)]) == 1
        assert "'schema'" in capsys.readouterr().err

    def test_calibration_cold_and_populated(self, tmp_path, capsys):
        store = tmp_path / "speed_ratio.json"
        with pytest.raises(SystemExit) as exc:
            cli.main(["audit", "calibration", "--store", str(store)])
        assert "no calibration entries" in str(exc.value)
        bench.store_calibration(4.5, path=store)
        assert cli.main(["audit", "calibration", "--store",
                         str(store)]) == 0
        assert "4.5" in capsys.readouterr().out
        assert cli.main(["audit", "calibration", "--store", str(store),
                         "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["stored_ratio"] == 4.5
        assert data["entries"]

    def test_calibration_measure_record_is_the_write_path(
            self, tmp_path, monkeypatch, capsys):
        store = tmp_path / "speed_ratio.json"
        bench.store_calibration(4.5, path=store)
        before = store.read_text(encoding="utf-8")
        monkeypatch.setattr(bench, "measure_speed_ratio",
                            lambda *a, **kw: 6.25)
        # --measure alone reports the ratio but leaves the store alone
        assert cli.main(["audit", "calibration", "--store", str(store),
                         "--measure"]) == 0
        assert "6.25x" in capsys.readouterr().out
        assert store.read_text(encoding="utf-8") == before
        # --measure --record appends exactly that entry for this host
        assert cli.main(["audit", "calibration", "--store", str(store),
                         "--measure", "--record"]) == 0
        assert f"recorded to {store}" in capsys.readouterr().out
        entries = bench.load_calibration_store(store)["entries"]
        assert [e["ratio"] for e in entries] == [4.5, 6.25]
        assert entries[-1]["engine"] == "python"
        assert entries[-1]["host"] == bench.host_fingerprint()

