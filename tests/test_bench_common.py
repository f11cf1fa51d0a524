"""Tests for the benchmark-suite shared helpers (``benchmarks/_common``)."""

import importlib
import json
import pathlib
import sys

import pytest

from repro import obs

BENCHMARKS_DIR = pathlib.Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.fixture(scope="module")
def common():
    sys.path.insert(0, str(BENCHMARKS_DIR))
    try:
        module = importlib.import_module("_common")
    finally:
        sys.path.remove(str(BENCHMARKS_DIR))
    return module


@pytest.fixture(autouse=True)
def clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def test_emit_returns_path_and_creates_dirs(common, tmp_path, capsys):
    target = tmp_path / "nested" / "results"  # does not exist yet
    path = common.emit("unit_table", "row one\nrow two",
                       results_dir=target)
    assert path == target / "unit_table.txt"
    assert path.read_text() == "row one\nrow two\n"
    assert "row one" in capsys.readouterr().out


def test_emit_writes_json_sidecar(common, tmp_path):
    common.emit("unit_table", "body", results_dir=tmp_path)
    sidecar = json.loads((tmp_path / "unit_table.json").read_text())
    assert sidecar["name"] == "unit_table"
    assert sidecar["artifact"] == "unit_table.txt"
    assert sidecar["lines"] == 1
    assert "created_unix" in sidecar


def test_emit_sidecar_is_strict_json(common, tmp_path):
    data = {"summary": {"max_regret": float("inf"), "median": 0.5},
            "rows": [{"regret": float("-inf")}, {"regret": float("nan")},
                     (1.0, float("inf"))]}
    common.emit("unit_table", "body", results_dir=tmp_path, data=data)

    def refuse(constant):
        raise ValueError(f"non-JSON constant {constant}")

    sidecar = json.loads((tmp_path / "unit_table.json").read_text(),
                         parse_constant=refuse)
    assert sidecar["data"] == {
        "summary": {"max_regret": None, "median": 0.5},
        "rows": [{"regret": None}, {"regret": None}, [1.0, None]]}


def test_emit_appends_run_record(common, tmp_path):
    common.emit("first", "a", results_dir=tmp_path,
                config={"seed": 1})
    common.emit("second", "b", results_dir=tmp_path)
    runs = tmp_path / "runs.jsonl"
    assert runs.exists()
    recs = [json.loads(line) for line in runs.read_text().splitlines()]
    assert [r["name"] for r in recs] == ["first", "second"]
    assert recs[0]["config"] == {"seed": 1}
    assert "git_rev" in recs[0]["meta"]


def test_emit_record_carries_spans_and_metrics(common, tmp_path):
    with common.traced_run("unit", seed=3):
        with obs.span("list", method="T1"):
            obs.metrics.inc("lister.ops", 42)
    common.emit("unit", "text", results_dir=tmp_path)
    (rec,) = [json.loads(line) for line in
              (tmp_path / "runs.jsonl").read_text().splitlines()]
    assert rec["metrics"]["counters"]["lister.ops"] == 42
    (root,) = rec["spans"]
    assert root["name"] == "unit"
    assert root["children"][0]["name"] == "list"


def test_emit_honors_runs_file_env(common, tmp_path, monkeypatch):
    redirected = tmp_path / "isolated" / "history.jsonl"
    monkeypatch.setenv("REPRO_RUNS_FILE", str(redirected))
    common.emit("unit", "text", results_dir=tmp_path)
    assert redirected.exists()
    assert not (tmp_path / "runs.jsonl").exists()
    (rec,) = [json.loads(line)
              for line in redirected.read_text().splitlines()]
    assert rec["name"] == "unit"


def test_sim_rows_for_record(common):
    from repro.experiments import ComparisonRow

    cells = [("T1+D", "T1", None, None), ("E1+RR", "E1", None, None)]
    rows = [
        ComparisonRow(1000, [(10.0, 10.2, 0.02), (5.0, 5.0, 0.0)]),
        ComparisonRow(3000, [(20.0, 20.4, 0.02), None]),  # missing cell
        ComparisonRow("inf", [(None, 1.0, None), (None, 2.0, None)]),
    ]
    flat = common.sim_rows_for_record(rows, cells)
    assert flat == [
        {"label": "T1+D", "n": 1000, "sim": 10.0, "model": 10.2,
         "error": 0.02},
        {"label": "E1+RR", "n": 1000, "sim": 5.0, "model": 5.0,
         "error": 0.0},
        {"label": "T1+D", "n": 3000, "sim": 20.0, "model": 20.4,
         "error": 0.02},
    ]


def test_traced_run_restores_disabled_state(common):
    assert not obs.is_enabled()
    with common.traced_run("x"):
        assert obs.is_enabled()
    assert not obs.is_enabled()
