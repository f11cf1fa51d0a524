"""Checks of the pipeline benchmark at ``--smoke`` scale.

Run from the repository root with ``pytest benchmarks/pipeline``.
``--seconds 0`` makes every workload run exactly its minimum job count,
so two runs with one seed do the same jobs.
"""

import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
CLEAN_OBS = {"env": [], "obs": False, "audit": False, "mem_ledger": False}


def bench(results, *args, env=None):
    """Run ``run.py --smoke --seconds 0``; returns (process, last line)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seconds", "0",
         "--results", str(results), *args],
        capture_output=True, text=True, cwd=ROOT, env=env, timeout=300)
    return proc, json.loads(proc.stdout.splitlines()[-1])


def history(results) -> list[dict]:
    lines = (pathlib.Path(results) / "runs.jsonl").read_text().splitlines()
    return [json.loads(line) for line in lines]


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    results = tmp_path_factory.mktemp("untraced")
    return results, *bench(results)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    results = tmp_path_factory.mktemp("traced")
    return results, *bench(results, "--trace")


@pytest.mark.parametrize("group,fixture", [("end_to_end", "untraced"),
                                           ("per_layer", "traced")])
def test_every_metric_printed_for_every_workload(group, fixture, request):
    __, proc, final = request.getfixturevalue(fixture)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert final["correct"] and final["failed"] == 0
    assert final["attempted"] > 0
    assert list(final["metrics"]) == WORKLOADS
    expected = {m["name"]: m["unit"] for m in SPEC[group]}
    for metrics in final["metrics"].values():
        assert {k: v["unit"] for k, v in metrics.items()} == expected
        assert all(isinstance(v["value"], (int, float))
                   for v in metrics.values())
    for name, unit in expected.items():
        assert f"| `{name}` | {unit} |" in proc.stdout


def test_end_to_end_metrics_are_positive(untraced):
    __, __, final = untraced
    for metrics in final["metrics"].values():
        assert all(v["value"] > 0 for v in metrics.values())


def test_trace_passes_validation(traced):
    from repro.obs.export import validate_trace
    results = traced[0]
    for workload in WORKLOADS:
        document = json.loads(
            (results / f"{workload}-2017.trace.json").read_text())
        assert validate_trace(document) > 0


def test_layer_spans_cover_the_job_span(traced):
    results = traced[0]
    for workload in WORKLOADS:
        roots = json.loads(
            (results / f"{workload}-2017.spans.json").read_text())
        breakdown = tracer.job_breakdown(roots)
        busy, total = breakdown["busy_ns"], breakdown["total_ns"]
        assert breakdown["jobs"] > 0
        assert sum(busy.values()) == total
        assert busy["harness"] <= 0.05 * total, workload
        # probes and references stay outside the job spans
        for job in tracer.named(roots, "job"):
            assert {c["name"] for c in job["children"]} <= set(tracer.LAYERS)


def test_traced_replay_reproduces_untraced_run(untraced, traced):
    plain = {r["workload"]: r for r in history(untraced[0])}
    for record in history(traced[0]):
        assert record["digests"] == plain[record["workload"]]["digests"]


def test_wrong_reference_count_fails_the_run(tmp_path, monkeypatch, capsys):
    import workloads
    real = workloads.reference_count
    monkeypatch.setattr(workloads, "reference_count",
                        lambda graph: real(graph) + 1)
    monkeypatch.setattr(run, "_spawn",
                        lambda args, env, deadline: workloads.main(args))
    code = run.main(["--workload", "list-collect", "--smoke",
                     "--seconds", "0", "--results", str(tmp_path)])
    final = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code != 0
    assert not final["correct"]
    assert final["failed"] / final["attempted"] > 0
    assert any("reference" in f for f in history(tmp_path)[0]["failures"])


def test_stray_repro_knobs_do_not_reach_the_workload(tmp_path):
    clean = {k: v for k, v in os.environ.items()
             if not k.startswith("REPRO_")}
    audit_file = tmp_path / "audit.jsonl"
    stray = dict(clean, REPRO_TRACE="1", REPRO_AUDIT="1",
                 REPRO_AUDIT_FILE=str(audit_file), REPRO_MEM_LEDGER="1")
    args = ("--workload", "pipeline-auto")
    for name, env in (("clean", clean), ("stray", stray)):
        proc, final = bench(tmp_path / name, *args, env=env)
        assert proc.returncode == 0 and final["correct"], proc.stdout
    records = [history(tmp_path / name)[0] for name in ("clean", "stray")]
    assert [r["repro_env"] for r in records] == [CLEAN_OBS, CLEAN_OBS]
    assert records[0]["digests"] == records[1]["digests"]
    assert not audit_file.exists()


def test_exits_nonzero_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "pipeline",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/pipeline/run.py", "--workload",
         "mc-residual", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


STEADY = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]


@pytest.mark.parametrize("b,expected", [
    ([x * 0.8 for x in STEADY], "improved"),
    ([x * 1.02 for x in STEADY], "unchanged"),
    ([x * 1.3 for x in STEADY], "regressed"),
    ([0.5, 1.5, 0.7, 1.3, 1.0, 0.6, 1.4, 0.8, 1.2, 1.0], "unresolved"),
])
def test_compare_verdicts(b, expected):
    assert run.verdict(STEADY, b, lower_better=True, bound=0.1)[0] \
        == expected


def test_compare_cli_flags_a_regression(tmp_path, capsys):
    def write(path, scale):
        with open(path, "w") as fh:
            for x in STEADY:
                fh.write(json.dumps({
                    "workload": "list-collect", "trace": False,
                    "metrics": {"setup_s": x, "job_s_p50": x * scale,
                                "peak_rss_mb": 100 * x}}) + "\n")
    write(tmp_path / "a.jsonl", 1.0)
    write(tmp_path / "b.jsonl", 1.3)
    code = run.main(["compare", str(tmp_path / "a.jsonl"),
                     str(tmp_path / "b.jsonl")])
    out = capsys.readouterr().out
    assert code == 1
    assert "| list-collect | `job_s_p50` |" in out and "regressed" in out
    assert out.count("unchanged") == 2
