"""Baseline store and comparison engine for the perf-regression gate.

A *baseline* is the aggregated measurement cells of a set of run
records (:func:`repro.obs.report.aggregate`) frozen to a JSON file
under ``benchmarks/baselines/``, stamped with the git revision and
creation time. Comparing the current run history against a baseline
classifies every (bench, cell, metric) as

* ``improved``  -- wall-clock dropped below the tolerance band;
* ``unchanged`` -- within tolerance;
* ``regressed`` -- wall-clock rose above the band, a deterministic
  counter / cost value drifted at all, or the model-vs-simulation
  error grew in magnitude;
* ``added`` / ``missing`` -- the cell exists on only one side
  (reported, never fatal: a renamed bench is not a slowdown).

Tolerances are per metric *kind* (:func:`repro.obs.report.metric_kind`):
``rtol_time`` is the relative band for wall-clock metrics (noisy),
``rtol_value`` for deterministic counters and simulated/model costs
(tight -- for a reproduction, a drifting ``ops`` counter means the
semantics changed, so drift in *either* direction regresses), and
``atol_error`` is the absolute band for model-divergence growth.

``repro report compare --baseline <file> --fail-on-regress`` turns the
classification into a CI exit code.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import sys
import time

from repro.obs import report as _report
from repro.obs.jsonl import dumps
from repro.obs.records import git_revision

__all__ = [
    "Baseline",
    "DEFAULT_BASELINES_DIR",
    "Delta",
    "build_baseline",
    "compare",
    "format_deltas",
    "has_regressions",
    "load_baseline",
    "save_baseline",
    "summarize_deltas",
]

DEFAULT_BASELINES_DIR = pathlib.Path("benchmarks") / "baselines"

#: Default relative band for wall-clock metrics (25% slower = regressed).
RTOL_TIME_DEFAULT = 0.25

#: Default relative band for deterministic counters / cost values.
RTOL_VALUE_DEFAULT = 1e-6

#: Default absolute band for |model error| growth (5 percentage points).
ATOL_ERROR_DEFAULT = 0.05

CLASSIFICATIONS = ("improved", "unchanged", "regressed", "added",
                   "missing")


@dataclasses.dataclass
class Baseline:
    """Frozen aggregated cells: ``{name: {cell: {metric: summary}}}``."""

    cells: dict
    meta: dict = dataclasses.field(default_factory=dict)

    def names(self) -> list[str]:
        """Sorted bench names the baseline covers."""
        return sorted(self.cells)


@dataclasses.dataclass
class Delta:
    """One (bench, cell, metric) comparison outcome."""

    name: str
    cell: str
    metric: str
    kind: str
    classification: str
    baseline: float | None = None
    current: float | None = None
    rel_delta: float | None = None

    @property
    def is_regression(self) -> bool:
        return self.classification == "regressed"


def build_baseline(records, label: str | None = None) -> Baseline:
    """Aggregate records (median + MAD across repeats) into a baseline."""
    cells = _report.aggregate(records)
    return Baseline(
        cells=cells,
        meta={
            "label": label,
            "git_rev": git_revision(),
            "created_unix": time.time(),
            "python": sys.version.split()[0],
            "n_records": len(list(records)),
            "benches": sorted(cells),
        },
    )


def save_baseline(baseline: Baseline, path) -> pathlib.Path:
    """Write a baseline JSON file (parent dirs created on demand)."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {"meta": baseline.meta, "cells": baseline.cells}
    path.write_text(dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def load_baseline(path) -> Baseline:
    """Parse a baseline JSON file back into a :class:`Baseline`."""
    data = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
    return Baseline(cells=data.get("cells", {}),
                    meta=data.get("meta", {}))


def _median_of(summary) -> float | None:
    """A metric's median, or None where the side lacks the metric."""
    if isinstance(summary, dict):
        summary = summary.get("median")
    return None if summary is None else float(summary)


def _classify(kind: str, base: float, cur: float, rtol_time: float,
              rtol_value: float, atol_error: float) -> tuple[str, float]:
    """Classification + signed relative (or absolute) delta."""
    if kind == "error":
        delta = abs(cur) - abs(base)
        if delta > atol_error:
            return "regressed", delta
        if delta < -atol_error:
            return "improved", delta
        return "unchanged", delta
    if base == 0.0:
        rel = 0.0 if cur == 0.0 else float("inf")
    else:
        rel = cur / base - 1.0
    if kind == "time":
        if rel > rtol_time:
            return "regressed", rel
        if rel < -rtol_time:
            return "improved", rel
        return "unchanged", rel
    # deterministic value: drift in either direction is a change
    if abs(rel) > rtol_value:
        return "regressed", rel
    return "unchanged", rel


def compare(current_records, baseline: Baseline,
            rtol_time: float = RTOL_TIME_DEFAULT,
            rtol_value: float = RTOL_VALUE_DEFAULT,
            atol_error: float = ATOL_ERROR_DEFAULT,
            include_time: bool = True) -> list[Delta]:
    """Classify the current run history against a baseline.

    ``current_records`` is a list of :class:`~repro.obs.records.
    RunRecord` (repeats are aggregated by median first). Only benches
    the baseline knows are compared -- extra benches in the history are
    ignored, extra *cells* within a known bench are reported as
    ``added``. With ``include_time=False`` wall-clock metrics are
    skipped entirely (the cross-machine CI mode: only deterministic
    counters and model divergence gate the build).
    """
    current = _report.aggregate(
        [r for r in current_records if r.name in baseline.cells])
    deltas: list[Delta] = []
    for name, base_cells in sorted(baseline.cells.items()):
        cur_cells = current.get(name, {})
        cell_keys = sorted(set(base_cells) | set(cur_cells))
        for cell in cell_keys:
            base_metrics = base_cells.get(cell)
            cur_metrics = cur_cells.get(cell)
            if base_metrics is None or cur_metrics is None:
                classification = ("added" if base_metrics is None
                                  else "missing")
                probe = base_metrics or cur_metrics or {}
                for metric in sorted(probe):
                    kind = _report.metric_kind(metric)
                    if kind == "time" and not include_time:
                        continue
                    deltas.append(Delta(
                        name=name, cell=cell, metric=metric, kind=kind,
                        classification=classification,
                        baseline=_median_of(base_metrics.get(metric))
                        if base_metrics else None,
                        current=_median_of(cur_metrics.get(metric))
                        if cur_metrics else None))
                continue
            for metric in sorted(set(base_metrics) | set(cur_metrics)):
                kind = _report.metric_kind(metric)
                if kind == "time" and not include_time:
                    continue
                base = _median_of(base_metrics.get(metric))
                cur = _median_of(cur_metrics.get(metric))
                if base is None or cur is None:
                    deltas.append(Delta(
                        name=name, cell=cell, metric=metric, kind=kind,
                        classification=("added" if base is None
                                        else "missing"),
                        baseline=base, current=cur))
                    continue
                classification, rel = _classify(
                    kind, base, cur, rtol_time, rtol_value, atol_error)
                deltas.append(Delta(
                    name=name, cell=cell, metric=metric, kind=kind,
                    classification=classification, baseline=base,
                    current=cur, rel_delta=rel))
    return deltas


def has_regressions(deltas) -> bool:
    """Whether any delta classified as ``regressed``."""
    return any(d.is_regression for d in deltas)


def summarize_deltas(deltas) -> dict[str, int]:
    """Count of deltas per classification (zero-filled)."""
    counts = {c: 0 for c in CLASSIFICATIONS}
    for delta in deltas:
        counts[delta.classification] += 1
    return counts


def format_deltas(deltas, show: str = "changed",
                  baseline_meta: dict | None = None) -> str:
    """Render a comparison as text.

    ``show="changed"`` prints only non-``unchanged`` rows (plus the
    summary line); ``show="all"`` prints every cell.
    """
    lines = []
    if baseline_meta:
        label = baseline_meta.get("label") or "baseline"
        lines.append(
            f"baseline: {label} @ {baseline_meta.get('git_rev', '?')} "
            f"({baseline_meta.get('n_records', '?')} records)")
    visible = [d for d in deltas
               if show == "all" or d.classification != "unchanged"]
    if visible:
        lines.append(f"{'class':<10} {'bench':<24} {'cell':<28} "
                     f"{'metric':<26} {'baseline':>12} {'current':>12} "
                     f"{'delta':>9}")
        for d in visible:
            base = "--" if d.baseline is None else f"{d.baseline:.4g}"
            cur = "--" if d.current is None else f"{d.current:.4g}"
            if d.rel_delta is None:
                rel = "--"
            elif d.kind == "error":
                rel = f"{100 * d.rel_delta:+.1f}pp"
            else:
                rel = f"{100 * d.rel_delta:+.1f}%"
            lines.append(f"{d.classification:<10} {d.name:<24} "
                         f"{d.cell:<28} {d.metric:<26} {base:>12} "
                         f"{cur:>12} {rel:>9}")
    counts = summarize_deltas(deltas)
    lines.append("summary: " + "  ".join(
        f"{c}={counts[c]}" for c in CLASSIFICATIONS))
    return "\n".join(lines)
