"""The environment knobs ``src/`` reads equal the one documented table.

Every ``REPRO_*`` token under ``src/repro/**/*.py`` -- code, comments
and docstrings alike, so a stale mention of a deleted knob fails too --
must be a row of the "Environment knobs" table in
``docs/OBSERVABILITY.md``, and every row must name a variable ``src/``
reads. The ``REPRO_BENCH_*`` rows belong to ``benchmarks/`` and are
left out of the comparison (but must say so).
"""

from __future__ import annotations

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
TOKEN = re.compile(r"REPRO_[A-Z0-9_]+")

EXPECTED = {
    "REPRO_AUDIT", "REPRO_CALIBRATION_FILE",
    "REPRO_LOG", "REPRO_MAX_WORKERS", "REPRO_MEM_BUDGET",
    "REPRO_MEM_LEDGER", "REPRO_NATIVE",
    "REPRO_NATIVE_THREADS", "REPRO_PROFILE", "REPRO_RUNS_FILE",
    "REPRO_SPEED_RATIO", "REPRO_TRACE", "REPRO_TRACEMALLOC",
}


def _source_knobs() -> set[str]:
    return {tok for path in (ROOT / "src" / "repro").rglob("*.py")
            for tok in TOKEN.findall(path.read_text(encoding="utf-8"))}


def _table_rows() -> dict[str, str]:
    """``{variable: row}`` of the "Environment knobs" table."""
    text = (ROOT / "docs" / "OBSERVABILITY.md").read_text(encoding="utf-8")
    section = text.split("\n## Environment knobs\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        match = re.match(r"\| `(REPRO_[A-Z0-9_]+)[=`]", line)
        if match:
            assert match.group(1) not in rows, f"duplicate row {line}"
            rows[match.group(1)] = line
    return rows


def test_source_knobs_are_the_documented_table():
    rows = _table_rows()
    documented = {name for name in rows
                  if not name.startswith("REPRO_BENCH_")}
    source = _source_knobs()
    assert source == documented, (
        f"undocumented: {sorted(source - documented)}; "
        f"documented but unread: {sorted(documented - source)}")


def test_source_knob_count_is_pinned():
    assert _source_knobs() == EXPECTED


def test_benchmark_rows_are_marked():
    bench = {name: row for name, row in _table_rows().items()
             if name.startswith("REPRO_BENCH_")}
    assert bench, "the benchmark knobs belong in the table too"
    read = {tok for path in (ROOT / "benchmarks").rglob("*.py")
            for tok in TOKEN.findall(path.read_text(encoding="utf-8"))}
    for name, row in bench.items():
        assert "*Benchmark only*" in row, name
        assert name in read, f"{name} is read by no benchmark"
