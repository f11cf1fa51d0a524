"""End-to-end pipeline benchmark: measure, check, and compare.

    python3 benchmarks/pipeline/run.py --seed 2017            # all workloads
    python3 benchmarks/pipeline/run.py --workload list-collect --seed 7 \\
        --seconds 20 --trace 0                                 # one workload
    python3 benchmarks/pipeline/run.py --seed 2017 --trace    # per-layer pass
    python3 benchmarks/pipeline/run.py --smoke --seconds 1    # tiny sizes
    python3 benchmarks/pipeline/run.py compare A.jsonl B.jsonl

Each workload runs in a fresh subprocess (``workloads.py``) with every
``REPRO_*`` variable removed from its environment, one at a time.
Set-up is timed from process start to inputs ready, three times in
fresh processes, and the median is reported. The last line of standard
output is one JSON object ``{correct, attempted, failed, metrics}``;
the exit status is non-zero when any check failed. Every measured run
appends one line (metrics, seed, host metadata) to
``<results>/runs.jsonl``, which ``compare`` reads.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Cold set-ups per untraced run; ``setup_s`` is their median.
SETUP_SAMPLES = 3

#: A run (all its processes) must end within this many seconds.
RUN_TIMEOUT_S = 170.0


class BenchmarkError(RuntimeError):
    """The benchmark could not run (missing sources, child crash)."""


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchmarkError(f"{path} not found")
    return json.loads(path.read_text())


def _spawn(args: list[str], env: dict, deadline: float) -> dict:
    """Run ``workloads.py`` with ``args``; returns its JSON result."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "workloads.py"), *args],
        stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        stdout, __ = proc.communicate(
            timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchmarkError(f"workload process timed out: {args}")
    lines = [line for line in stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(
            f"workload process exited {proc.returncode}: {args}")
    return json.loads(lines[-1])


def child_env(tmp: pathlib.Path) -> dict:
    """The parent environment minus every ``REPRO_*`` knob.

    The package is imported from this checkout's ``src`` and the
    compiled kernels build under ``tmp``, so nothing outside the
    checkout is read or written.
    """
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(tmp)
    return env


def _percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def measure(workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool, results: pathlib.Path) -> dict:
    """One run of one workload; returns its history record."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no package sources under {ROOT / 'src'}")
    deadline = time.monotonic() + RUN_TIMEOUT_S
    tmp = results / "tmp" / f"{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    args = [workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(int(trace)), "--out", str(results)]
    if smoke:
        args.append("--smoke")
    # traced runs report per-layer metrics only, so one set-up will do
    samples = 1 if trace else SETUP_SAMPLES
    setup_s = []
    try:
        for k in range(samples):
            # CLOCK_MONOTONIC is system-wide, so the child's ready stamp
            # and this one share a time base
            start = time.clock_gettime(time.CLOCK_MONOTONIC)
            out = _spawn(args if k == samples - 1
                         else [*args, "--setup-only"],
                         child_env(tmp), deadline)
            setup_s.append(out["ready"] - start)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    metrics = {
        "setup_s": statistics.median(setup_s),
        "job_s_p50": statistics.median(out["job_s"]),
        "peak_rss_mb": out["peak_rss_mb"],
    }
    if trace:
        metrics = dict(out["per_layer"],
                       **{"latency.s_p90": _percentile(out["call_s"], 90)})
    failed = len(out["failures"])
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "smoke": smoke,
        "correct": failed == 0, "attempted": out["checks"],
        "failed": failed, "failures": out["failures"],
        "metrics": metrics, "jobs": len(out["job_s"]),
        "job_s": out["job_s"], "setup_samples": setup_s,
        "digests": out["digests"],
        "repro_env": out["repro_env"], "host": out["host"],
        "time": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def result_line(record: dict, spec: dict) -> dict:
    """The contract's last stdout line for one run."""
    group = "per_layer" if record["trace"] else "end_to_end"
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": record["metrics"][m["name"]],
                                "unit": m["unit"]}
                    for m in spec[group]},
    }


def _table(columns: dict[str, dict], metrics: list[dict]) -> str:
    """Markdown table: one row per metric, one column per workload."""
    lines = ["| metric | unit | " + " | ".join(columns) + " |",
             "|---|---|" + "---:|" * len(columns)]
    for m in metrics:
        cells = [_fmt(col["metrics"][m["name"]]["value"])
                 for col in columns.values()]
        lines.append(f"| `{m['name']}` | {m['unit']} | "
                     + " | ".join(cells) + " |")
    return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, int) or (isinstance(value, float)
                                  and value.is_integer()
                                  and abs(value) >= 1000):
        return f"{int(value):,}"
    return f"{value:.4g}"


def cmd_measure(argv: list[str]) -> int:
    try:
        spec = load_spec()
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description="Run the pipeline benchmark (see README.md).")
    parser.add_argument("--workload", choices=workloads,
                        help="one workload (default: all in turn)")
    parser.add_argument("--seed", type=int, default=2017)
    parser.add_argument("--seconds", type=float,
                        help="measured time per run "
                             "(default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: traced pass, per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes (n ~ 2000) for tests")
    parser.add_argument("--results", type=pathlib.Path,
                        default=HERE / "results",
                        help="history, traces and scratch directory")
    args = parser.parse_args(argv)
    seconds = (args.seconds if args.seconds is not None
               else spec["run_seconds"])
    chosen = [args.workload] if args.workload else workloads
    try:
        records = {}
        for workload in chosen:
            record = measure(workload, args.seed, seconds,
                             bool(args.trace), args.smoke, args.results)
            with open(args.results / "runs.jsonl", "a") as fh:
                fh.write(json.dumps(record) + "\n")
            records[workload] = record
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    lines = {w: result_line(r, spec) for w, r in records.items()}
    group = "per_layer" if args.trace else "end_to_end"
    print(_table(lines, spec[group]))
    for workload, record in records.items():
        print(f"{workload}: {record['jobs']} jobs, "
              f"{record['failed']}/{record['attempted']} checks failed")
        for failure in record["failures"]:
            print(f"  FAILED {failure}")
    if args.workload:
        final = lines[args.workload]
    else:
        final = {"correct": all(r["correct"] for r in records.values()),
                 "attempted": sum(r["attempted"] for r in records.values()),
                 "failed": sum(r["failed"] for r in records.values()),
                 "metrics": {w: line["metrics"]
                             for w, line in lines.items()}}
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


# ----------------------------------------------------------------- compare

def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: list[float], b: list[float], lower_better: bool,
            bound: float | None) -> tuple[str, float]:
    """Verdict for side ``b`` against ``a`` and the share of pairs won.

    Runs pair in order of appearance. ``b`` improved when it wins at
    least 9 in 10 pairs (ties count for neither) and the medians differ
    by more than ``a``'s interquartile range. With a bound, a spread
    between quartiles wider than the bound on either side leaves the
    pair unresolved unless every ``b`` run beats every ``a`` run, and
    a median worse by more than the bound is a regression.
    """
    sign = 1.0 if lower_better else -1.0
    pairs = list(zip(a, b))
    won = sum(sign * (y - x) < 0 for x, y in pairs) / len(pairs)
    lost = sum(sign * (y - x) > 0 for x, y in pairs) / len(pairs)
    qa, qb = _quartiles(a), _quartiles(b)
    med_a, med_b = qa[1], qb[1]
    diff = sign * (med_b - med_a)  # > 0: b is worse
    separated = abs(med_b - med_a) > qa[2] - qa[0]
    if won >= 0.9 and diff < 0 and separated:
        return "improved", won
    if bound is None:
        return ("regressed" if lost >= 0.9 and diff > 0 and separated
                else "unchanged"), won
    scale = abs(med_a) or 1.0
    spread = max(qa[2] - qa[0], qb[2] - qb[0]) / scale
    if spread > bound:
        all_better = all(sign * (y - x) < 0 for x in a for y in b)
        return ("improved" if all_better else "unresolved"), won
    if diff / scale > bound:
        return "regressed", won
    return "unchanged", won


def _load_history(path: str) -> dict[tuple[str, bool], list[dict]]:
    groups: dict[tuple[str, bool], list[dict]] = {}
    with open(path) as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                groups.setdefault((record["workload"], record["trace"]),
                                  []).append(record)
    return groups


def cmd_compare(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="run.py compare",
        description="Compare two run histories (A = parent, B = change).")
    parser.add_argument("a")
    parser.add_argument("b")
    args = parser.parse_args(argv)
    spec = load_spec()
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    hist_a, hist_b = _load_history(args.a), _load_history(args.b)
    print("| workload | metric | A median [q1, q3] | B median [q1, q3] "
          "| change | won | verdict |")
    print("|---|---|---:|---:|---:|---:|---|")
    regressed = 0
    for key in sorted(set(hist_a) & set(hist_b)):
        for name, m in metrics.items():
            a = [r["metrics"][name] for r in hist_a[key]
                 if name in r["metrics"]]
            b = [r["metrics"][name] for r in hist_b[key]
                 if name in r["metrics"]]
            if not a or not b:
                continue
            result, won = verdict(a, b, m["better"] == "lower",
                                  m.get("bound"))
            regressed += result == "regressed"
            qa, qb = _quartiles(a), _quartiles(b)
            change = ((qb[1] - qa[1]) / abs(qa[1]) if qa[1]
                      else float("nan"))
            print(f"| {key[0]} | `{name}` "
                  f"| {_fmt(qa[1])} [{_fmt(qa[0])}, {_fmt(qa[2])}] "
                  f"| {_fmt(qb[1])} [{_fmt(qb[0])}, {_fmt(qb[2])}] "
                  f"| {change:+.1%} | {won:.0%} ({min(len(a), len(b))}) "
                  f"| {result} |")
    return 1 if regressed else 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        return cmd_compare(argv[1:])
    return cmd_measure(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
