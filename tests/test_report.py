"""Tests for the run-history analytics layer and regression gate.

Covers :mod:`repro.obs.report` (query/aggregation, robust statistics,
trend and divergence tables), :mod:`repro.obs.baselines` (store +
comparison engine), and the ``repro report`` CLI family -- including
the acceptance scenario: ``compare --fail-on-regress`` exits non-zero
on an injected slowdown and zero on identical runs.
"""

import json

import pytest

from repro import cli, obs
from repro.obs import baselines, records, report


@pytest.fixture(autouse=True)
def clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def make_record(name="table06", wall_ns=100_000_000, ops=5000,
                error=0.02, git_rev="abc1234", ts=1.0, sim=10.0):
    """A synthetic run record shaped like the sim benches produce."""
    return records.RunRecord(
        name=name,
        config={"rows": [{"label": "T1+D", "n": 1000, "sim": sim,
                          "model": sim * (1.0 + error),
                          "error": error}]},
        spans=[{"name": "table", "duration_ns": wall_ns,
                "children": [{"name": "list",
                              "duration_ns": wall_ns // 2}]}],
        metrics={"counters": {"lister.ops": ops, "orient.runs": 8},
                 "gauges": {"engine.native": 0.0}},
        meta={"git_rev": git_rev, "timestamp_unix": ts})


class TestRobustStats:
    def test_median_odd_even(self):
        assert report.median([3, 1, 2]) == 2
        assert report.median([1, 2, 3, 4]) == 2.5

    def test_median_empty_raises(self):
        with pytest.raises(ValueError):
            report.median([])

    def test_mad(self):
        assert report.mad([1, 2, 3, 4, 100]) == 1.0  # outlier-immune

    def test_summarize(self):
        s = report.summarize_values([10, 12, 11])
        assert s == {"median": 11.0, "mad": 1.0, "count": 3,
                     "min": 10.0, "max": 12.0}


class TestMetricKind:
    @pytest.mark.parametrize("name, kind", [
        ("wall_ms", "time"),
        ("python_ns_per_edge", "time"),
        ("duration_ns", "time"),
        ("error", "error"),
        ("model_error", "error"),
        ("lister.ops", "value"),
        ("sim", "value"),
        ("engine.bloom_hits", "value"),
        ("parallel.busy_share", "time"),
        ("parallel.idle_share", "time"),
        ("parallel.imbalance_ratio", "time"),
        ("parallel.workers", "value"),
    ])
    def test_kinds(self, name, kind):
        assert report.metric_kind(name) == kind


class TestRecordCells:
    def test_phase_counter_and_row_cells(self):
        cells = report.record_cells(make_record())
        assert cells["phase:table"]["wall_ms"] == pytest.approx(100.0)
        assert cells["phase:list"]["wall_ms"] == pytest.approx(50.0)
        assert cells["counters"]["lister.ops"] == 5000
        assert cells["gauges"]["engine.native"] == 0.0
        row = cells["cell:T1+D/n=1000"]
        assert row["sim"] == 10.0 and row["error"] == 0.02

    def test_limit_row_skipped(self):
        rec = make_record()
        rec.config["rows"].append({"label": "T1+D", "n": "inf",
                                   "sim": None, "model": 1.0,
                                   "error": None})
        assert "cell:T1+D/n=inf" not in report.record_cells(rec)

    def test_methods_config_cells_drop_speedup(self):
        rec = records.RunRecord(
            name="BENCH", config={"methods": {"E1": {
                "ops": 100, "python_ns_per_edge": 900.0,
                "numpy_ns_per_edge": 30.0, "speedup": 30.0}}})
        cells = report.record_cells(rec)
        assert cells["method:E1"]["ops"] == 100
        assert "speedup" not in cells["method:E1"]

    def test_memory_cell_only_with_the_ledger(self):
        from repro.obs import memory
        memory.reset()
        memory.enable()
        try:
            memory.check_in("graph.csr", nbytes=10_000, dtype="int64")
            memory.check_in("graph.keys", nbytes=4_000, dtype="uint64")
            ledger_on = records.collect("mem-on")
        finally:
            memory.disable()
            memory.reset()
        cell = report.record_cells(ledger_on)["memory"]
        assert cell == {"peak_bytes": 14_000.0,
                        "graph.csr.peak_bytes": 10_000.0,
                        "graph.keys.peak_bytes": 4_000.0}
        assert all(report.metric_kind(k) == "value" for k in cell)
        assert "memory" not in report.record_cells(
            records.collect("mem-off"))


class TestFilterAndAggregate:
    def test_filter_by_name_rev_last(self):
        recs = [make_record(name="a", git_rev="r1", ts=1),
                make_record(name="a", git_rev="r2", ts=2),
                make_record(name="b", git_rev="r2", ts=3)]
        assert len(report.filter_records(recs, names=["a"])) == 2
        assert len(report.filter_records(recs, git_rev="r2")) == 2
        assert report.filter_records(recs, last=1)[0].name in ("a", "b")
        assert len(report.filter_records(recs, last=1)) == 2  # per name

    def test_aggregate_median_over_repeats(self):
        recs = [make_record(wall_ns=100_000_000),
                make_record(wall_ns=120_000_000),
                make_record(wall_ns=90_000_000)]
        agg = report.aggregate(recs)
        cell = agg["table06"]["phase:table"]["wall_ms"]
        assert cell["median"] == pytest.approx(100.0)
        assert cell["count"] == 3


class TestTrendsAndDivergence:
    def test_trend_rows_group_by_rev(self):
        recs = [make_record(git_rev="r1", ts=1),
                make_record(git_rev="r1", ts=2),
                make_record(git_rev="r2", ts=3)]
        rows = report.trend_rows(recs)
        assert [(r["git_rev"], r["runs"]) for r in rows] == [
            ("r1", 2), ("r2", 1)]
        assert rows[0]["counters"]["lister.ops"] == 5000

    def test_format_trends_smoke(self):
        text = report.format_trends(report.trend_rows([make_record()]))
        assert "table06" in text and "abc1234" in text
        assert report.format_trends([]) == "run history is empty"

    def test_divergence_rows(self):
        recs = [make_record(error=0.02), make_record(error=0.04)]
        (row,) = report.divergence_rows(recs)
        assert (row["name"], row["label"], row["n"]) == \
            ("table06", "T1+D", 1000)
        assert row["error"] == pytest.approx(0.03)
        assert row["runs"] == 2
        assert "T1+D" in report.format_divergence([row])


class TestBaselineStore:
    def test_roundtrip(self, tmp_path):
        base = baselines.build_baseline([make_record()], label="x")
        path = baselines.save_baseline(base, tmp_path / "b" / "x.json")
        assert path.exists()
        loaded = baselines.load_baseline(path)
        assert loaded.meta["label"] == "x"
        assert loaded.names() == ["table06"]
        assert loaded.cells["table06"]["counters"]["lister.ops"][
            "median"] == 5000

    def test_baseline_json_is_plain(self, tmp_path):
        base = baselines.build_baseline([make_record()])
        path = baselines.save_baseline(base, tmp_path / "x.json")
        json.loads(path.read_text())  # valid standalone JSON


class TestCompare:
    def _baseline(self):
        return baselines.build_baseline(
            [make_record(wall_ns=100_000_000),
             make_record(wall_ns=102_000_000)])

    def test_identical_is_unchanged(self):
        base = self._baseline()
        deltas = baselines.compare([make_record(wall_ns=101_000_000)],
                                   base)
        assert deltas and not baselines.has_regressions(deltas)
        assert {d.classification for d in deltas} == {"unchanged"}

    def test_slowdown_regresses(self):
        deltas = baselines.compare([make_record(wall_ns=300_000_000)],
                                   self._baseline())
        regressed = [d for d in deltas if d.is_regression]
        assert {d.metric for d in regressed} == {"wall_ms"}
        assert all(d.kind == "time" for d in regressed)

    def test_speedup_improves(self):
        deltas = baselines.compare([make_record(wall_ns=30_000_000)],
                                   self._baseline())
        assert any(d.classification == "improved" for d in deltas)
        assert not baselines.has_regressions(deltas)

    def test_counter_drift_regresses_even_without_time(self):
        deltas = baselines.compare([make_record(ops=5001)],
                                   self._baseline(),
                                   include_time=False)
        assert all(d.kind != "time" for d in deltas)
        regressed = [d for d in deltas if d.is_regression]
        assert [d.metric for d in regressed] == ["lister.ops"]

    def test_pool_share_gauges_are_wall_clock(self):
        """The pool's busy/idle/imbalance gauges come from wall time:
        a rerun that moves only them regresses nothing without time."""
        def pooled(busy, imbalance):
            record = make_record()
            record.metrics["gauges"].update({
                "parallel.busy_share": busy,
                "parallel.idle_share": 1.0 - busy,
                "parallel.imbalance_ratio": imbalance})
            return record

        base = baselines.build_baseline([pooled(0.98, 1.01)])
        deltas = baselines.compare([pooled(0.60, 1.70)], base,
                                   include_time=False)
        assert deltas
        assert baselines.summarize_deltas(deltas)["regressed"] == 0
        assert not any(d.metric.startswith("parallel.") for d in deltas)

    def test_error_growth_regresses_shrink_improves(self):
        base = self._baseline()
        grown = baselines.compare([make_record(error=0.30)], base)
        assert any(d.is_regression and d.kind == "error"
                   for d in grown)
        # shrinking |error| against a high-error baseline improves
        noisy = baselines.build_baseline([make_record(error=0.30)])
        shrunk = baselines.compare([make_record(error=0.02)], noisy)
        assert any(d.classification == "improved" and d.kind == "error"
                   for d in shrunk)

    def test_added_missing_never_fatal(self):
        base = self._baseline()
        extra = make_record()
        extra.config["rows"].append({"label": "T2+RR", "n": 1000,
                                     "sim": 5.0, "model": 5.0,
                                     "error": 0.0})
        deltas = baselines.compare([extra], base)
        assert any(d.classification == "added" for d in deltas)
        assert not baselines.has_regressions(deltas)
        # a bench present in the baseline but absent now -> missing
        other = baselines.build_baseline([make_record(name="gone"),
                                          make_record()])
        deltas = baselines.compare([make_record()], other)
        assert any(d.classification == "missing" for d in deltas)
        assert not baselines.has_regressions(deltas)

    def test_metric_on_one_side_of_a_shared_cell(self):
        """A counter that only one side of a cell published (as
        ``generator.swap_repaired_stubs`` does when a stream first
        reaches swap repair) is added or missing, not a crash."""
        now = make_record()
        now.metrics["counters"]["generator.swap_repaired_stubs"] = 4
        deltas = baselines.compare([now], self._baseline())
        (added,) = [d for d in deltas
                    if d.metric == "generator.swap_repaired_stubs"]
        assert added.classification == "added"
        assert (added.baseline, added.current) == (None, 4.0)
        deltas = baselines.compare([make_record()],
                                   baselines.build_baseline([now]))
        (missing,) = [d for d in deltas
                      if d.metric == "generator.swap_repaired_stubs"]
        assert missing.classification == "missing"
        assert not baselines.has_regressions(deltas)

    def test_unknown_benches_ignored(self):
        deltas = baselines.compare(
            [make_record(), make_record(name="unrelated")],
            self._baseline())
        assert {d.name for d in deltas} == {"table06"}

    def test_summary_and_format(self):
        deltas = baselines.compare([make_record(wall_ns=300_000_000)],
                                   self._baseline())
        counts = baselines.summarize_deltas(deltas)
        assert counts["regressed"] >= 1
        text = baselines.format_deltas(deltas, show="changed")
        assert "regressed" in text and "summary:" in text


class TestReportCLI:
    """End-to-end through ``repro report`` (the acceptance scenario)."""

    def _write_runs(self, path, wall_ns=100_000_000, ops=5000,
                    error=0.02, repeats=2):
        for i in range(repeats):
            records.write_record(
                make_record(wall_ns=wall_ns + i * 1_000_000, ops=ops,
                            error=error), path)

    def test_gate_exit_codes(self, tmp_path, capsys):
        runs = tmp_path / "runs.jsonl"
        self._write_runs(runs)
        base = tmp_path / "base.json"
        assert cli.main(["report", "baseline", "--runs", str(runs),
                         "--out", str(base), "--label", "t"]) == 0
        # identical runs -> exit 0
        assert cli.main(["report", "compare", "--runs", str(runs),
                         "--baseline", str(base),
                         "--fail-on-regress"]) == 0
        # injected slowdown -> exit non-zero
        slow = tmp_path / "slow.jsonl"
        self._write_runs(slow, wall_ns=400_000_000)
        assert cli.main(["report", "compare", "--runs", str(slow),
                         "--baseline", str(base),
                         "--fail-on-regress"]) == 1
        # without the flag the same comparison only warns
        assert cli.main(["report", "compare", "--runs", str(slow),
                         "--baseline", str(base)]) == 0
        assert "WARNING: regressions" in capsys.readouterr().out

    def test_counter_gate_ignores_time(self, tmp_path):
        runs = tmp_path / "runs.jsonl"
        self._write_runs(runs)
        base = tmp_path / "base.json"
        cli.main(["report", "baseline", "--runs", str(runs),
                  "--out", str(base)])
        drift = tmp_path / "drift.jsonl"
        self._write_runs(drift, wall_ns=900_000_000, ops=4999)
        # --no-time: the 9x slowdown is ignored, the ops drift gates
        assert cli.main(["report", "compare", "--runs", str(drift),
                         "--baseline", str(base), "--no-time",
                         "--rtol-time", "100",
                         "--fail-on-regress"]) == 1

    def test_trends_and_divergence_cli(self, tmp_path, capsys):
        runs = tmp_path / "runs.jsonl"
        self._write_runs(runs)
        assert cli.main(["report", "trends", "--runs", str(runs)]) == 0
        assert "table06" in capsys.readouterr().out
        assert cli.main(["report", "divergence", "--runs",
                         str(runs)]) == 0
        assert "T1+D" in capsys.readouterr().out

    def test_divergence_fail_over(self, tmp_path):
        runs = tmp_path / "runs.jsonl"
        self._write_runs(runs, error=0.40)
        assert cli.main(["report", "divergence", "--runs", str(runs),
                         "--fail-over", "0.25"]) == 1
        assert cli.main(["report", "divergence", "--runs", str(runs),
                         "--fail-over", "0.50"]) == 0

    def test_baseline_requires_records(self, tmp_path):
        with pytest.raises(SystemExit):
            cli.main(["report", "baseline", "--runs",
                      str(tmp_path / "empty.jsonl"),
                      "--out", str(tmp_path / "b.json")])

    def test_name_filter(self, tmp_path, capsys):
        runs = tmp_path / "runs.jsonl"
        records.write_record(make_record(name="table06"), runs)
        records.write_record(make_record(name="other"), runs)
        cli.main(["report", "trends", "--runs", str(runs),
                  "--name", "table*"])
        out = capsys.readouterr().out
        assert "table06" in out and "other" not in out
