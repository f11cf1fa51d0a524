"""Shared infrastructure for the table-reproduction benchmarks.

Every ``bench_table*.py`` regenerates one table of the paper's
evaluation: it computes the same rows the paper reports (at a Python-
tractable scale by default), prints them, and writes them to
``benchmarks/results/`` so the run leaves an artifact trail that
EXPERIMENTS.md references.

Each :func:`emit` call now leaves *three* artifacts: the rendered
``<name>.txt`` table, a ``<name>.json`` sidecar (git revision,
timestamp, scale flags), and one line appended to ``runs.jsonl`` -- a
full :mod:`repro.obs` run record carrying the span trees (per-phase
relabel/orient/list timings), the metrics snapshot, and the run config.

Scale control: set ``REPRO_BENCH_FULL=1`` to use larger ``n`` grids and
more Monte-Carlo instances (slower, closer to the paper's setup).
``REPRO_BENCH_EXPORT=1`` additionally drops ``<name>.trace.json``
(Chrome trace-event) and ``<name>.flame.txt`` (collapsed stacks)
viewer artifacts next to each table.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import pathlib
import time

from repro import obs

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Larger grids when REPRO_BENCH_FULL=1 is exported.
FULL = os.environ.get("REPRO_BENCH_FULL", "") == "1"

#: Graph sizes for the simulation tables (paper: 1e4 .. 1e7).
SIM_SIZES = [10**4, 3 * 10**4, 10**5] if FULL else [1000, 3000, 10_000]

#: Monte-Carlo budget per cell (paper: 100 sequences x 100 graphs).
N_SEQUENCES = 8 if FULL else 3
N_GRAPHS = 8 if FULL else 2


def bench_workers() -> int | None:
    """Worker-pool size for the simulation benches.

    ``REPRO_BENCH_WORKERS``: unset/``0`` keeps the historic serial
    path (golden values byte-identical); a positive integer fans
    cells over that many processes; ``auto`` resolves from
    ``REPRO_MAX_WORKERS`` / cpu count.
    """
    raw = os.environ.get("REPRO_BENCH_WORKERS", "").strip().lower()
    if not raw or raw == "0":
        return 0
    if raw == "auto":
        return None
    try:
        return int(raw)
    except ValueError:
        return 0


def emit(name: str, text: str, results_dir=None,
         config: dict | None = None,
         data: dict | None = None) -> pathlib.Path:
    """Print a reproduction table and persist it under results/.

    Writes ``<name>.txt``, a ``<name>.json`` sidecar, and appends a
    :class:`repro.obs.RunRecord` (collecting any finished spans and
    the current metrics snapshot) to ``runs.jsonl`` in the same
    directory. ``data`` is folded into the sidecar under ``"data"`` --
    machine-readable bench results (e.g. per-method ns/edge) that
    future runs can diff for regressions. The sidecar is strict JSON
    (RFC 8259): a non-finite float anywhere in it (the ring case's
    infinite regret, say) is written as ``null``. Returns the path of
    the ``.txt`` artifact so benches can assert on it.
    """
    out_dir = pathlib.Path(results_dir) if results_dir else RESULTS_DIR
    out_dir.mkdir(parents=True, exist_ok=True)
    print()
    print(text)
    path = out_dir / f"{name}.txt"
    path.write_text(text + "\n")
    sidecar = {
        "name": name,
        "artifact": path.name,
        "git_rev": obs.git_revision(),
        "created_unix": time.time(),
        "full_scale": FULL,
        "lines": text.count("\n") + 1,
        # Host metadata makes BENCH_*.json / runs.jsonl comparable
        # across machines (a 4-core CI runner vs. a 64-core box).
        "host": obs.records.host_meta(),
    }
    if data is not None:
        sidecar["data"] = data
    (out_dir / f"{name}.json").write_text(
        json.dumps(_finite(sidecar), indent=2, sort_keys=True,
                   allow_nan=False) + "\n")
    # REPRO_RUNS_FILE redirects the run-record trail (e.g. the CI perf
    # gate isolating its history); otherwise it rides with the tables.
    record_path = (None if os.environ.get(obs.records.RUNS_FILE_ENV,
                                          "").strip()
                   else out_dir / "runs.jsonl")
    record = obs.collect(name, config=config)
    record.meta["host"] = sidecar["host"]
    obs.records.write_record(record, record_path)
    # REPRO_BENCH_EXPORT=1 drops viewer-ready artifacts next to the
    # table: Chrome trace-event JSON and collapsed flame stacks of the
    # spans this very run just recorded (CI uploads them).
    if os.environ.get("REPRO_BENCH_EXPORT", "").strip() == "1" \
            and record.spans:
        obs.write_trace([record], out_dir / f"{name}.trace.json")
        obs.write_collapsed([record], out_dir / f"{name}.flame.txt",
                            source="spans")
    return path


def _finite(value):
    """``value`` with every non-finite float, at any depth, as None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(item) for item in value]
    return value


@contextlib.contextmanager
def traced_run(name: str, **attrs):
    """Enable the obs layer around a bench body under one root span.

    For benches that assemble their tables by hand (rather than via
    :func:`run_sim_table`): the next :func:`emit` call then finds the
    finished span tree and metric counters and folds them into the
    ``runs.jsonl`` record.
    """
    was_enabled = obs.is_enabled()
    obs.enable()
    obs.reset()
    try:
        with obs.span(name, **attrs):
            yield
    finally:
        if not was_enabled:
            obs.disable()


def run_sim_table(name: str, title: str, base_dist, truncation, cells,
                  sizes=None, seed: int = 2017):
    """Reproduce one of Tables 6-10 via the library generator.

    Thin wrapper over
    :func:`repro.experiments.paper_tables.simulation_table` that applies
    the benchmark-suite scale knobs, runs with the observability layer
    enabled (so the ``runs.jsonl`` record carries per-phase
    relabel/orient/list timings and the metric counters), and persists
    the artifacts. Returns the assembled rows for assertions.
    """
    from repro.experiments.paper_tables import simulation_table

    sizes = sizes if sizes is not None else SIM_SIZES
    workers = bench_workers()
    config = {
        "table": name,
        "title": title,
        "seed": seed,
        "sizes": list(sizes),
        "n_sequences": N_SEQUENCES,
        "n_graphs": N_GRAPHS,
        "workers": workers,
        "full_scale": FULL,
        "cells": [{"label": label, "method": method,
                   "permutation": type(perm).__name__,
                   "limit_map": str(limit_map)}
                  for label, method, perm, limit_map in cells],
    }
    was_enabled = obs.is_enabled()
    obs.enable()
    obs.reset()
    try:
        with obs.span("table", name=name, seed=seed):
            text, rows = simulation_table(
                title, base_dist, truncation, cells, sizes=sizes,
                n_sequences=N_SEQUENCES, n_graphs=N_GRAPHS, seed=seed,
                workers=workers)
    finally:
        if not was_enabled:
            obs.disable()
    config["rows"] = sim_rows_for_record(rows, cells)
    emit(name, text, config=config)
    return rows


def sim_rows_for_record(rows, cells) -> list[dict]:
    """Flatten :class:`ComparisonRow` cells for the run record.

    One dict per (label, n) with the ``sim`` / ``model`` / ``error``
    triple -- the shape ``repro report divergence`` and the baseline
    comparison consume. The ``n = "inf"`` limit row is skipped (it has
    no simulated side).
    """
    labels = [cell[0] for cell in cells]
    out = []
    for row in rows:
        if not isinstance(row.n, int):
            continue
        for label, cell in zip(labels, row.cells):
            if cell is None:
                continue
            sim, model, error = cell
            out.append({"label": label, "n": int(row.n), "sim": sim,
                        "model": model, "error": error})
    return out
