"""Query and aggregation over the JSONL run history.

:mod:`repro.obs.records` made every benchmark append one JSON line to
``runs.jsonl``; this module is the read side. It turns a list of
:class:`~repro.obs.records.RunRecord` objects into *measurement cells*
-- per-phase wall-clock totals, metric counters/gauges, and the
sim-vs-model rows the simulation tables embed in their config -- and
aggregates repeated runs of the same benchmark with robust statistics
(median + MAD, not mean, so one noisy repeat cannot shift a baseline).

Cell keys are strings that name what was measured within one record::

    phase:list                 wall-clock total of the ``list`` spans
    counters                   the metric-counter snapshot
    gauges                     the metric-gauge snapshot
    memory                     ledger peak bytes, overall and per tag
                               (``<tag>.peak_bytes``; ledger-on runs)
    cell:T1+D/n=1000           one sim-vs-model table cell
    method:E1/engine=native    one engine-throughput bench cell

and each cell holds ``{metric_name: value}``. Metric *kind* is inferred
from the name (:func:`metric_kind`): wall-clock metrics tolerate noise,
counter/value metrics are expected to be deterministic for a fixed
seed, and ``error`` metrics compare by absolute model-vs-simulation
divergence. :mod:`repro.obs.baselines` builds on these cells to
classify runs as improved / unchanged / regressed.
"""

from __future__ import annotations

import fnmatch
import math

__all__ = [
    "aggregate",
    "divergence_rows",
    "filter_records",
    "format_divergence",
    "format_trends",
    "mad",
    "median",
    "metric_kind",
    "record_cells",
    "record_wall_ms",
    "summarize_values",
    "trend_rows",
]

#: Metric-name suffixes that mark a wall-clock (noisy) measurement.
_TIME_SUFFIXES = ("wall_ms", "_ms", "_ns", "ns_per_edge", "_seconds")

#: Gauges derived from wall-clock time whose names carry no time
#: suffix (the pool's busy/idle split and its worker imbalance).
_TIME_GAUGES = frozenset({"parallel.busy_share", "parallel.idle_share",
                          "parallel.imbalance_ratio"})


def median(values) -> float:
    """Median of a non-empty sequence (no numpy needed)."""
    ordered = sorted(float(v) for v in values)
    if not ordered:
        raise ValueError("median of empty sequence")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def mad(values, center: float | None = None) -> float:
    """Median absolute deviation around ``center`` (default: median)."""
    values = [float(v) for v in values]
    if center is None:
        center = median(values)
    return median(abs(v - center) for v in values)


def summarize_values(values) -> dict:
    """Robust summary of repeated measurements of one metric."""
    values = [float(v) for v in values]
    med = median(values)
    return {"median": med, "mad": mad(values, med), "count": len(values),
            "min": min(values), "max": max(values)}


def metric_kind(name: str) -> str:
    """``"time"``, ``"error"`` or ``"value"`` -- how to compare it.

    * ``time``   -- wall-clock; noisy, compared with a relative band.
    * ``error``  -- model-vs-simulation relative error; compared by
      absolute magnitude (drifting toward 0 is an improvement).
    * ``value``  -- everything else (counters, gauges, sim/model
      costs); deterministic for a fixed seed, so *any* drift beyond a
      tiny tolerance is a semantic change.
    """
    if (name.endswith(_TIME_SUFFIXES) or name == "time"
            or name in _TIME_GAUGES):
        return "time"
    if name == "error" or name.endswith((".error", "_error")):
        return "error"
    if name == "regret" or name.endswith((".regret", "_regret")):
        # planner-vs-oracle regret: like model error, compared by
        # absolute magnitude -- drifting toward 0 is an improvement
        return "error"
    return "value"


def record_wall_ms(record) -> float:
    """Total wall-clock of a record's root spans, in milliseconds."""
    return sum(int(s.get("duration_ns", 0)) for s in record.spans) / 1e6


def record_cells(record) -> dict[str, dict[str, float]]:
    """Extract every measurement cell of one run record.

    Returns ``{cell_key: {metric: value}}`` (see the module docstring
    for the key grammar). Non-numeric values are dropped.
    """
    cells: dict[str, dict[str, float]] = {}
    for phase, ns in record.phase_totals().items():
        cells[f"phase:{phase}"] = {"wall_ms": ns / 1e6}
    counters = _numeric(record.metrics.get("counters"))
    if counters:
        cells["counters"] = counters
    gauges = _numeric(record.metrics.get("gauges"))
    if gauges:
        cells["gauges"] = gauges
    ledger = record.metrics.get("memory")
    if isinstance(ledger, dict):
        # the array ledger rides records of REPRO_MEM_LEDGER=1 runs
        cells["memory"] = _numeric({
            "peak_bytes": ledger.get("peak_bytes"),
            **{f"{row.get('tag')}.peak_bytes": row.get("peak_bytes")
               for row in ledger.get("tags") or ()
               if isinstance(row, dict)}})
    for row in record.config.get("rows") or ():
        if not isinstance(row, dict) or not isinstance(
                row.get("n"), (int, float)):
            continue  # the table's n="inf" limit row carries no sim
        key = f"cell:{row.get('label', '?')}/n={int(row['n'])}"
        cells[key] = _numeric({k: row.get(k)
                               for k in ("sim", "model", "error")})
    for row in record.config.get("regret_rows") or ():
        if not isinstance(row, dict) or "label" not in row:
            continue
        # planner-vs-oracle rows (repro.planner.regret): the oracle
        # time and pick-agreement are deterministic values, the regret
        # compares like a model error. Infinite regret (the oracle
        # found a zero-cost candidate) is dropped by _numeric, which
        # is right: only the finite cells can regress meaningfully.
        cells[f"case:{row['label']}"] = _numeric(
            {k: row.get(k)
             for k in ("planner_time", "oracle_time", "regret",
                       "agree")})
    methods = record.config.get("methods")
    if isinstance(methods, dict):
        for name, vals in methods.items():
            if isinstance(vals, dict):
                # "speedup" is a derived higher-is-better ratio of the
                # two ns/edge metrics already tracked; comparing it
                # with either polarity convention would misclassify.
                metrics = _numeric({k: v for k, v in vals.items()
                                    if "speedup" not in k})
                if metrics:
                    cells[f"method:{name}"] = metrics
    return cells


def _numeric(mapping) -> dict[str, float]:
    out = {}
    for key, value in (mapping or {}).items():
        if isinstance(value, bool):
            out[str(key)] = float(value)
        elif isinstance(value, (int, float)) and math.isfinite(value):
            out[str(key)] = float(value)
    return out


def filter_records(records, names=None, git_rev: str | None = None,
                   config: dict | None = None,
                   last: int | None = None) -> list:
    """Select records by name pattern, git revision, and config values.

    ``names`` is a list of ``fnmatch`` patterns (``table*``); ``config``
    matches ``str(record.config[key]) == str(value)`` per entry;
    ``last`` keeps only the most recent ``last`` records *per name*
    (file order, which is append order).
    """
    out = []
    for rec in records:
        if names and not any(fnmatch.fnmatch(rec.name, p)
                             for p in names):
            continue
        if git_rev and rec.meta.get("git_rev") != git_rev:
            continue
        if config and any(str(rec.config.get(k)) != str(v)
                          for k, v in config.items()):
            continue
        out.append(rec)
    if last is not None and last > 0:
        keep: dict[str, list] = {}
        for rec in out:
            keep.setdefault(rec.name, []).append(rec)
        chosen = {id(r) for tail in keep.values() for r in tail[-last:]}
        out = [r for r in out if id(r) in chosen]
    return out


def aggregate(records) -> dict[str, dict[str, dict[str, dict]]]:
    """Aggregate repeats: ``{name: {cell: {metric: summary}}}``.

    Records sharing a ``name`` are treated as repeats of the same
    benchmark; every (cell, metric) they report is summarized with
    :func:`summarize_values` (median + MAD).
    """
    samples: dict[str, dict[str, dict[str, list]]] = {}
    for rec in records:
        by_cell = samples.setdefault(rec.name, {})
        for cell, metrics in record_cells(rec).items():
            by_metric = by_cell.setdefault(cell, {})
            for metric, value in metrics.items():
                by_metric.setdefault(metric, []).append(value)
    return {
        name: {cell: {metric: summarize_values(vals)
                      for metric, vals in metrics.items()}
               for cell, metrics in cells.items()}
        for name, cells in samples.items()
    }


# ---------------------------------------------------------------- trends

#: Headline counters shown by the trends table when present.
_TREND_COUNTERS = ("lister.ops", "lister.triangles", "harness.instances",
                   "harness.divergent_cells")

#: Histograms whose tail percentiles ride along in trend rows (the
#: worker task-time distribution is the scheduler-health headline).
_TREND_HISTOGRAMS = ("parallel.task_ms",)

#: Percentile keys surfaced from histogram snapshots.
_TREND_QUANTILES = ("p50", "p95", "p99")


def trend_rows(records) -> list[dict]:
    """Per (name, git_rev) trajectory rows, chronological per name.

    Each row summarizes the repeats of one benchmark at one revision:
    median/MAD total wall-clock plus the headline counters.
    """
    groups: dict[tuple, dict] = {}
    for rec in records:
        key = (rec.name, rec.meta.get("git_rev") or "?")
        group = groups.setdefault(key, {"records": [], "first_ts": None})
        group["records"].append(rec)
        ts = rec.meta.get("timestamp_unix")
        if isinstance(ts, (int, float)) and (
                group["first_ts"] is None or ts < group["first_ts"]):
            group["first_ts"] = ts
    rows = []
    for (name, rev), group in groups.items():
        recs = group["records"]
        walls = [record_wall_ms(r) for r in recs]
        hosts = sorted({label for label in (
            _host_label(r.meta.get("host")) for r in recs) if label})
        counters: dict[str, float] = {}
        for metric in _TREND_COUNTERS:
            vals = [r.metrics.get("counters", {}).get(metric)
                    for r in recs]
            vals = [float(v) for v in vals if v is not None]
            if vals:
                counters[metric] = median(vals)
        quantiles: dict[str, dict[str, float]] = {}
        for metric in _TREND_HISTOGRAMS:
            per_q: dict[str, list] = {}
            for rec in recs:
                summary = (rec.metrics.get("histograms", {})
                           .get(metric) or {})
                for q in _TREND_QUANTILES:
                    if isinstance(summary.get(q), (int, float)):
                        per_q.setdefault(q, []).append(summary[q])
            if per_q:
                quantiles[metric] = {q: median(vals)
                                     for q, vals in per_q.items()}
        auto_method, auto_routes, auto_confidence = _auto_summary(recs)
        rows.append({
            "name": name, "git_rev": rev, "runs": len(recs),
            "first_ts": group["first_ts"],
            "wall_ms": summarize_values(walls),
            "counters": counters,
            "quantiles": quantiles,
            "host": "+".join(hosts) if hosts else None,
            "auto_method": auto_method,
            "auto_routes": auto_routes,
            "auto_confidence": auto_confidence,
        })
    rows.sort(key=lambda r: (r["name"], r["first_ts"] or 0.0))
    return rows


def _auto_summary(recs) -> tuple[str | None, float, float | None]:
    """The planner's auto-routing footprint across a group of repeats.

    ``(dominant method, total routes, median confidence)``. Pulled
    from two places so both old and new histories answer: the
    ``planner.auto.<METHOD>`` per-pick counters plus the
    ``planner.auto_confidence`` gauge the router publishes, and -- for
    records whose producers stashed a result's
    ``extra["auto_method"]``/``extra["auto_confidence"]`` into the run
    config -- those keys as a fallback.
    """
    picks: dict[str, float] = {}
    routes = 0.0
    confidences: list[float] = []
    for rec in recs:
        counters = rec.metrics.get("counters", {}) or {}
        for name, value in counters.items():
            if name.startswith("planner.auto.") and \
                    isinstance(value, (int, float)):
                method = name[len("planner.auto."):]
                picks[method] = picks.get(method, 0.0) + float(value)
        total = counters.get("planner.auto_routes")
        if isinstance(total, (int, float)):
            routes += float(total)
        gauge = (rec.metrics.get("gauges", {}) or {}).get(
            "planner.auto_confidence")
        if isinstance(gauge, (int, float)):
            confidences.append(float(gauge))
        config = rec.config or {}
        extra = config.get("extra") if isinstance(
            config.get("extra"), dict) else {}
        method = config.get("auto_method") or extra.get("auto_method")
        if isinstance(method, str) and method:
            picks[method] = picks.get(method, 0.0) + 1.0
            routes += 1.0
        conf = (config.get("auto_confidence")
                if config.get("auto_confidence") is not None
                else extra.get("auto_confidence"))
        if isinstance(conf, (int, float)):
            confidences.append(float(conf))
    dominant = (max(sorted(picks), key=picks.get) if picks else None)
    confidence = median(confidences) if confidences else None
    return dominant, routes, confidence


def _host_label(host) -> str | None:
    """Compact ``host`` column value from a record's host metadata.

    ``<cpus>c/<machine>[/native]`` -- enough to spot that two trend
    rows came from different hardware (or toolchains) before comparing
    their wall clocks. Records written before host metadata existed
    yield ``None``.
    """
    if not isinstance(host, dict):
        return None
    cpus = host.get("cpu_count")
    machine = host.get("machine") or "?"
    label = f"{cpus}c/{machine}" if cpus else str(machine)
    if host.get("native"):
        label += "/native"
    return label


def format_trends(rows) -> str:
    """Render :func:`trend_rows` as an aligned text table."""
    if not rows:
        return "run history is empty"
    lines = [f"{'bench':<28} {'git_rev':>9} {'runs':>5} "
             f"{'wall ms (med+/-MAD)':>21} {'lister.ops':>12} "
             f"{'triangles':>10} {'instances':>10} {'divergent':>10} "
             f"{'task ms p50/p95/p99':>22} {'auto':>9} {'conf':>5} "
             f"{'host':>14}"]
    for row in rows:
        wall = row["wall_ms"]
        counters = row["counters"]

        def fmt(metric):
            value = counters.get(metric)
            return "--" if value is None else f"{value:.0f}"

        task = (row.get("quantiles") or {}).get("parallel.task_ms")
        task_col = ("--" if not task else "/".join(
            f"{task[q]:.1f}" for q in _TREND_QUANTILES if q in task))
        auto = row.get("auto_method")
        routes = row.get("auto_routes") or 0
        auto_col = f"{auto}x{routes:.0f}" if auto else "--"
        conf = row.get("auto_confidence")
        conf_col = "--" if conf is None else f"{conf:.2f}"
        lines.append(
            f"{row['name']:<28} {row['git_rev']:>9} {row['runs']:>5} "
            f"{wall['median']:>12.2f} +/- {wall['mad']:>5.2f} "
            f"{fmt('lister.ops'):>12} {fmt('lister.triangles'):>10} "
            f"{fmt('harness.instances'):>10} "
            f"{fmt('harness.divergent_cells'):>10} "
            f"{task_col:>22} {auto_col:>9} {conf_col:>5} "
            f"{row.get('host') or '--':>14}")
    return "\n".join(lines)


# ------------------------------------------------------------ divergence

def divergence_rows(records) -> list[dict]:
    """Model-vs-simulation error table across the run history.

    Collects every ``cell:<label>/n=<n>`` cell (the sim-vs-model rows
    the simulation benches embed in their run-record config) and
    summarizes the relative error per (bench, label, n) with median +
    MAD across repeats.
    """
    agg = aggregate(records)
    rows = []
    for name, cells in sorted(agg.items()):
        for cell, metrics in sorted(cells.items()):
            if not cell.startswith("cell:") or "error" not in metrics:
                continue
            label, _, n_part = cell[len("cell:"):].partition("/n=")
            rows.append({
                "name": name, "label": label,
                "n": int(n_part) if n_part.isdigit() else n_part,
                "sim": metrics.get("sim", {}).get("median"),
                "model": metrics.get("model", {}).get("median"),
                "error": metrics["error"]["median"],
                "error_mad": metrics["error"]["mad"],
                "runs": metrics["error"]["count"],
            })
    rows.sort(key=lambda r: (r["name"], r["label"],
                             r["n"] if isinstance(r["n"], int) else 0))
    return rows


def format_divergence(rows) -> str:
    """Render :func:`divergence_rows` as an aligned text table."""
    if not rows:
        return ("no sim-vs-model cells in the run history "
                "(run a simulation bench first)")
    lines = [f"{'bench':<24} {'cell':<12} {'n':>8} {'sim':>10} "
             f"{'model':>10} {'error (med+/-MAD)':>19} {'runs':>5}"]
    for row in rows:
        sim = "--" if row["sim"] is None else f"{row['sim']:.2f}"
        model = "--" if row["model"] is None else f"{row['model']:.2f}"
        lines.append(
            f"{row['name']:<24} {row['label']:<12} {row['n']:>8} "
            f"{sim:>10} {model:>10} "
            f"{100 * row['error']:>+9.1f}% +/- {100 * row['error_mad']:>4.1f}% "
            f"{row['runs']:>5}")
    return "\n".join(lines)
