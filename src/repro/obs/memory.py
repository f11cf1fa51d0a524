"""Memory observability: array ledger, footprint model, RAM budget.

The paper's cost metric *is* memory references (the AMRC model of
Definition 1), yet process RSS alone cannot say which arrays own the
bytes or whether a run's footprint matches what the CSR layout implies.
This module closes that gap with four pieces, all in the style of the
other :mod:`repro.obs` layers -- off by default, one module-global
check when disabled, and bit-identical results either way:

* an **array ledger**: large allocations (the ``OrientedGraph`` CSR
  blocks, the engine's uint32 mirrors and Bloom table, native kernel
  buffers, out-of-core partitions, compressed blobs) check in and out
  with a tag, dtype, byte count and owning span, giving exact current
  / peak attributed bytes per tag and per phase plus a ``mem.*``
  gauge/counter family;
* a **footprint conformance model**: predicted bytes for a ``(n, m,
  method, engine)`` from the dtype layout rules, compared audit-style
  against the ledger's actuals with a tolerance verdict
  (:func:`predict_footprint` / :func:`conformance_report`);
* **per-span allocation attribution**: the ``REPRO_TRACEMALLOC=K``
  knob (resolved by :func:`tracemalloc_top_k_from_env`, mirroring
  ``REPRO_PROFILE``) makes every top-level span close with its top-K
  allocation sites attached as ``span.alloc`` -- the hook itself lives
  in :mod:`repro.obs.spans`;
* a **RAM-budget watchdog**: ``REPRO_MEM_BUDGET=512M`` arms a
  :class:`BudgetWatchdog` inside the live resource sampler; it
  publishes ``mem.pressure`` / ``mem.breach`` bus events, warns once
  per breach, and (with ``REPRO_MEM_BUDGET_ABORT=1``) raises a flag
  the chunked engine and out-of-core drivers check so a run over
  budget stops gracefully with :class:`MemoryBudgetExceeded`.

The ledger switch resolves ``REPRO_MEM_LEDGER`` lazily on first use
(like ``REPRO_AUDIT``), so every entry point -- CLI, benchmarks, pool
workers under ``spawn`` -- honors the environment without wiring.
Read it back with ``repro mem summary|ledger|conformance``, the
dashboard's memory panel, the Chrome-trace memory counter track, or
``repro top``.
"""

from __future__ import annotations

import logging
import math
import os
import threading
import weakref

from repro.obs import bus as _bus
from repro.obs import metrics as _metrics
from repro.obs import spans as _spans

__all__ = [
    "BLOOM_BYTES",
    "BudgetWatchdog",
    "DEFAULT_ALLOC_TOP_K",
    "DEFAULT_TOLERANCE",
    "MEM_BUDGET_ABORT_ENV",
    "MEM_BUDGET_ENV",
    "MEM_LEDGER_ENV",
    "MemoryBudgetExceeded",
    "TRACEMALLOC_ENV",
    "abort_on_breach",
    "abort_requested",
    "attributed_bytes",
    "budget_bytes_from_env",
    "check_budget",
    "check_in",
    "check_out",
    "clear_abort",
    "conformance_report",
    "disable",
    "enable",
    "format_conformance",
    "format_ledger",
    "format_summary",
    "is_enabled",
    "ledger_rows",
    "ledger_summary",
    "parse_bytes",
    "peak_bytes",
    "predict_footprint",
    "request_abort",
    "reset",
    "top_allocations",
    "tracemalloc_top_k_from_env",
    "track",
]

#: Environment switch: truthy values turn the array ledger on.
MEM_LEDGER_ENV = "REPRO_MEM_LEDGER"

#: RAM budget for the watchdog (bytes; ``K``/``M``/``G`` suffixes ok).
MEM_BUDGET_ENV = "REPRO_MEM_BUDGET"

#: Truthy: a budget breach also raises the graceful-abort flag.
MEM_BUDGET_ABORT_ENV = "REPRO_MEM_BUDGET_ABORT"

#: Top-K allocation sites attached per top-level span (0 = off).
TRACEMALLOC_ENV = "REPRO_TRACEMALLOC"

#: Relative tolerance of the footprint conformance verdict.
DEFAULT_TOLERANCE = 0.10

#: ``REPRO_TRACEMALLOC=1`` means "on with the default top-K".
DEFAULT_ALLOC_TOP_K = 20

#: Engine Bloom table size; must equal
#: ``repro.engine.kernels._BLOOM_BYTES`` (pinned by tests -- this
#: module cannot import the engine without a cycle).
BLOOM_BYTES = 1 << 21

_TRUTHY = {"1", "true", "yes", "on"}
_FALSY = {"", "0", "false", "no", "off"}

#: ``None`` = not yet resolved from the environment (first
#: :func:`is_enabled` call reads ``REPRO_MEM_LEDGER`` exactly once).
_enabled: bool | None = None

_lock = threading.Lock()
_next_token = 0
_live: dict[int, dict] = {}
_by_tag: dict[str, dict] = {}
_by_span: dict[str, dict] = {}
_current_bytes = 0
_peak_bytes = 0

_abort_flag = False
_abort_reason = ""
_breaches = 0


class MemoryBudgetExceeded(RuntimeError):
    """A run crossed ``REPRO_MEM_BUDGET`` and graceful abort is armed."""


def enable() -> None:
    """Turn the array ledger on for this process."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Turn the array ledger off (the default)."""
    global _enabled
    _enabled = False


def is_enabled() -> bool:
    """Whether allocations are being attributed.

    Resolves ``REPRO_MEM_LEDGER`` lazily on first call so any entry
    point honors the environment without explicit wiring; after that
    it is one global check -- the zero-overhead-off guarantee of the
    rest of :mod:`repro.obs`.
    """
    global _enabled
    if _enabled is None:
        _enabled = (os.environ.get(MEM_LEDGER_ENV, "").strip().lower()
                    in _TRUTHY)
    return _enabled


def reset() -> None:
    """Drop all ledger state and the breach/abort flags."""
    global _next_token, _current_bytes, _peak_bytes, _breaches
    global _abort_flag, _abort_reason
    with _lock:
        _next_token = 0
        _live.clear()
        _by_tag.clear()
        _by_span.clear()
        _current_bytes = 0
        _peak_bytes = 0
    _breaches = 0
    _abort_flag = False
    _abort_reason = ""


# -------------------------------------------------------------- the ledger

def _sizeof(obj) -> tuple[int, str | None]:
    """``(nbytes, dtype)`` of a ledger-able object."""
    nbytes = getattr(obj, "nbytes", None)
    if nbytes is not None:
        return int(nbytes), str(getattr(obj, "dtype", None) or "")
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj), "bytes"
    raise TypeError(f"cannot size {type(obj).__name__!r}; "
                    f"pass nbytes= explicitly")


def check_in(tag: str, obj=None, *, nbytes: int | None = None,
             dtype: str | None = None,
             span: str | None = None) -> int | None:
    """Register one allocation under ``tag``; returns a ledger token.

    ``obj`` may be a numpy array (nbytes/dtype derived) or any
    bytes-like; alternatively pass ``nbytes`` directly. The owning
    span is the innermost open span of this thread unless ``span``
    overrides it. Returns ``None`` (and does nothing) while the
    ledger is disabled -- the instrumented sites pay one global check.
    """
    global _next_token, _current_bytes, _peak_bytes
    if not is_enabled():
        return None
    if obj is not None and nbytes is None:
        nbytes, obj_dtype = _sizeof(obj)
        if dtype is None:
            dtype = obj_dtype
    nbytes = int(nbytes or 0)
    if span is None:
        open_span = _spans.current_span()
        span = open_span.name if open_span is not None else None
    owner = span or "-"
    with _lock:
        _next_token += 1
        token = _next_token
        _live[token] = {"tag": tag, "dtype": dtype or "",
                        "nbytes": nbytes, "span": owner}
        t = _by_tag.setdefault(tag, {"live_bytes": 0, "peak_bytes": 0,
                                     "total_bytes": 0, "checkins": 0,
                                     "checkouts": 0, "dtypes": set()})
        t["live_bytes"] += nbytes
        t["peak_bytes"] = max(t["peak_bytes"], t["live_bytes"])
        t["total_bytes"] += nbytes
        t["checkins"] += 1
        if dtype:
            t["dtypes"].add(dtype)
        p = _by_span.setdefault(owner, {"live_bytes": 0, "peak_bytes": 0})
        p["live_bytes"] += nbytes
        p["peak_bytes"] = max(p["peak_bytes"], p["live_bytes"])
        _current_bytes += nbytes
        _peak_bytes = max(_peak_bytes, _current_bytes)
        current, peak = _current_bytes, _peak_bytes
    _metrics.inc("mem.ledger.checkins")
    _metrics.set_gauge("mem.attributed_bytes", float(current))
    _metrics.set_gauge("mem.attributed_peak_bytes", float(peak))
    return token


def check_out(token: int | None) -> None:
    """Release a prior :func:`check_in`; ``None`` tokens are ignored."""
    global _current_bytes
    if token is None:
        return
    with _lock:
        entry = _live.pop(token, None)
        if entry is None:
            return
        nbytes = entry["nbytes"]
        t = _by_tag.get(entry["tag"])
        if t is not None:
            t["live_bytes"] -= nbytes
            t["checkouts"] += 1
        p = _by_span.get(entry["span"])
        if p is not None:
            p["live_bytes"] -= nbytes
        _current_bytes -= nbytes
        current = _current_bytes
    _metrics.inc("mem.ledger.checkouts")
    _metrics.set_gauge("mem.attributed_bytes", float(current))


def _release_tokens(tokens: tuple) -> None:
    for token in tokens:
        check_out(token)


def track(owner, tag: str, arrays, *,
          span: str | None = None) -> tuple:
    """Check several arrays in under one tag, tied to ``owner``'s life.

    The returned tokens are checked out automatically when ``owner``
    is garbage-collected (a ``weakref.finalize``), so long-lived
    holders -- graphs, engine caches -- need no explicit release.
    Disabled: one :func:`is_enabled` check, nothing else.
    """
    if not is_enabled():
        return ()
    tokens = tuple(t for t in (check_in(tag, a, span=span)
                               for a in arrays) if t is not None)
    if tokens and owner is not None:
        try:
            weakref.finalize(owner, _release_tokens, tokens)
        except TypeError:  # pragma: no cover - non-weakrefable owner
            pass
    return tokens


def attributed_bytes() -> int:
    """Bytes currently checked in across all tags."""
    return _current_bytes


def peak_bytes() -> int:
    """Highest attributed total observed since the last reset."""
    return _peak_bytes


def ledger_rows() -> list[dict]:
    """Per-tag ledger table, largest peak first."""
    with _lock:
        rows = [{"tag": tag,
                 "live_bytes": t["live_bytes"],
                 "peak_bytes": t["peak_bytes"],
                 "total_bytes": t["total_bytes"],
                 "checkins": t["checkins"],
                 "checkouts": t["checkouts"],
                 "dtypes": ",".join(sorted(t["dtypes"]))}
                for tag, t in _by_tag.items()]
    rows.sort(key=lambda r: (-r["peak_bytes"], r["tag"]))
    return rows


def ledger_summary() -> dict:
    """JSON-ready snapshot of the whole ledger (rides run records)."""
    with _lock:
        spans = {name: dict(p) for name, p in _by_span.items()}
    return {
        "enabled": is_enabled(),
        "current_bytes": _current_bytes,
        "peak_bytes": _peak_bytes,
        "live_entries": len(_live),
        "tags": ledger_rows(),
        "spans": spans,
        "budget_bytes": budget_bytes_from_env(),
        "breaches": _breaches,
        "abort_requested": _abort_flag,
    }


# ------------------------------------------------- footprint conformance

#: Methods whose candidate windows force the lazy in-key array
#: (``in_lt`` / ``in_gt`` in ``repro.engine.kernels._KERNELS``).
_IN_KEY_METHODS = frozenset({"E4", "E5", "L4", "L5"})


def predict_footprint(n: int, m: int, *, method: str | None = None,
                      engine: str = "numpy") -> dict:
    """Predicted bytes per ledger tag from the dtype layout rules.

    The rules transcribe the actual allocations:

    * ``graph.csr`` -- two int64 index arrays (``m`` each) plus two
      int64 indptr arrays (``n + 1`` each);
    * ``graph.degrees`` -- three int64 degree arrays (out/in/total);
    * ``graph.keys`` -- the lazy sorted edge-key arrays: the out-keys
      always materialize under the numpy engine (the Bloom confirm
      pass binary-searches them); the in-keys only for methods with
      ``searchsorted``-bounded in-windows (E4/E5/L4/L5);
    * ``engine.cache`` -- four uint32 CSR mirrors (``m`` each);
    * ``engine.bloom`` -- the fixed :data:`BLOOM_BYTES` bit table.

    ``engine="python"`` predicts only the graph-side tags (the pure
    loops allocate no engine arrays).
    """
    n = int(n)
    m = int(m)
    components = {
        "graph.csr": 8 * (2 * m + 2 * (n + 1)),
        "graph.degrees": 8 * 3 * n,
    }
    if engine == "numpy":
        keys = 8 * m
        if method is not None and method.upper() in _IN_KEY_METHODS:
            keys += 8 * m
        components["graph.keys"] = keys
        components["engine.cache"] = 4 * 4 * m
        components["engine.bloom"] = BLOOM_BYTES
    return {"n": n, "m": m, "method": method, "engine": engine,
            "components": components,
            "total_bytes": sum(components.values())}


def _ratio(actual: int, predicted: int) -> float:
    """``actual / predicted``; exactly 0 of 0 bytes conforms (1.0),
    any bytes against a 0 prediction is a miss (``inf``)."""
    if predicted:
        return actual / predicted
    return 1.0 if actual == 0 else math.inf


def conformance_report(n: int, m: int, *, method: str | None = None,
                       engine: str = "numpy",
                       tolerance: float = DEFAULT_TOLERANCE,
                       rows: list[dict] | None = None) -> dict:
    """Audit-style predicted-vs-attributed verdict over the ledger.

    ``rows`` defaults to the live :func:`ledger_rows`. Every predicted
    tag contributes (missing actuals count as 0 -- an unobserved
    component is a conformance failure, not a free pass); ledger tags
    the model does not price are listed under ``unmodeled`` and never
    gate the verdict. The verdict passes when the attributed total is
    within ``tolerance`` of the predicted total.
    """
    predicted = predict_footprint(n, m, method=method, engine=engine)
    if rows is None:
        rows = ledger_rows()
    actual_by_tag = {r["tag"]: r for r in rows}
    table = []
    predicted_total = 0
    actual_total = 0
    for tag, pred in sorted(predicted["components"].items()):
        actual = int(actual_by_tag.get(tag, {}).get("peak_bytes", 0))
        predicted_total += pred
        actual_total += actual
        ratio = _ratio(actual, pred)
        table.append({"tag": tag, "predicted_bytes": pred,
                      "actual_bytes": actual, "ratio": ratio,
                      "within": abs(ratio - 1.0) <= tolerance})
    unmodeled = [{"tag": r["tag"], "peak_bytes": r["peak_bytes"]}
                 for r in rows
                 if r["tag"] not in predicted["components"]]
    ratio = _ratio(actual_total, predicted_total)
    return {
        "n": predicted["n"], "m": predicted["m"],
        "method": method, "engine": engine,
        "tolerance": float(tolerance),
        "predicted_bytes": predicted_total,
        "actual_bytes": actual_total,
        "ratio": ratio,
        "verdict": ("pass" if abs(ratio - 1.0) <= tolerance
                    else "fail"),
        "components": table,
        "unmodeled": unmodeled,
    }


# ------------------------------------------------------ budget watchdog

def parse_bytes(text: str) -> int:
    """Parse ``"512M"`` / ``"2G"`` / ``"1048576"`` into bytes.

    Decimal suffixes ``K``/``M``/``G``/``T`` are binary multiples
    (KiB, MiB, ...), optionally with a trailing ``B``/``iB``; empty,
    falsy or unparsable input is 0 (budget off).
    """
    raw = (text or "").strip().lower()
    if raw in _FALSY:
        return 0
    for tail in ("ib", "b"):
        if raw.endswith(tail) and not raw[:-len(tail)][-1:].isdigit():
            raw = raw[:-len(tail)]
            break
        if raw.endswith("b") and raw[:-1][-1:].isdigit():
            raw = raw[:-1]
            break
    scale = 1
    if raw[-1:] in "kmgt":
        scale = 1024 ** (1 + "kmgt".index(raw[-1]))
        raw = raw[:-1]
    try:
        value = float(raw)
    except ValueError:
        return 0
    return max(0, int(value * scale))


def budget_bytes_from_env() -> int:
    """The ``REPRO_MEM_BUDGET`` budget in bytes (0 = disarmed)."""
    return parse_bytes(os.environ.get(MEM_BUDGET_ENV, ""))


def abort_on_breach() -> bool:
    """Whether a breach should raise the graceful-abort flag."""
    return (os.environ.get(MEM_BUDGET_ABORT_ENV, "").strip().lower()
            in _TRUTHY)


def request_abort(reason: str) -> None:
    """Raise the abort flag the chunked drivers poll."""
    global _abort_flag, _abort_reason
    _abort_reason = reason
    _abort_flag = True


def clear_abort() -> None:
    """Lower the abort flag (after a handled breach)."""
    global _abort_flag, _abort_reason
    _abort_flag = False
    _abort_reason = ""


def abort_requested() -> bool:
    """Whether a graceful abort has been requested."""
    return _abort_flag


def check_budget(context: str = "") -> None:
    """Raise :class:`MemoryBudgetExceeded` if an abort is pending.

    The poll the chunked engine loop and the out-of-core partition
    loops run between batches: one module-global check when nothing
    is armed, a clean typed exception (instead of the OOM killer)
    when the watchdog tripped.
    """
    if _abort_flag:
        where = f" in {context}" if context else ""
        raise MemoryBudgetExceeded(
            f"memory budget exceeded{where}: {_abort_reason}")


class BudgetWatchdog:
    """RAM-budget state machine fed by resource samples.

    ``observe(rss_bytes)`` publishes a ``mem.pressure`` event per
    sample while armed; the first sample over budget additionally
    publishes ``mem.breach``, logs one structured WARNING, bumps the
    ``mem.breaches`` counter and -- when :func:`abort_on_breach` --
    raises the graceful-abort flag. The breach latch re-arms once RSS
    falls back under 95% of the budget, so a run oscillating around
    the limit warns once per excursion, not once per sample.
    """

    def __init__(self, budget_bytes: int | None = None):
        self.budget_bytes = (budget_bytes if budget_bytes is not None
                             else budget_bytes_from_env())
        self._breached = False

    @property
    def armed(self) -> bool:
        return self.budget_bytes > 0

    def observe(self, rss_bytes: int) -> None:
        """Feed one RSS sample through the pressure/breach machine."""
        global _breaches
        budget = self.budget_bytes
        if budget <= 0:
            return
        rss_bytes = int(rss_bytes)
        frac = rss_bytes / budget
        _metrics.set_gauge("mem.budget_bytes", float(budget))
        _metrics.set_gauge("mem.pressure", frac)
        fields = {"rss_bytes": rss_bytes, "budget_bytes": budget,
                  "frac": frac}
        if is_enabled():
            fields["attributed_bytes"] = attributed_bytes()
        _bus.emit("mem.pressure", **fields)
        if rss_bytes > budget:
            if not self._breached:
                self._breached = True
                _breaches += 1
                _metrics.inc("mem.breaches")
                action = "abort" if abort_on_breach() else "warn"
                _bus.emit("mem.breach", rss_bytes=rss_bytes,
                          budget_bytes=budget,
                          overshoot_bytes=rss_bytes - budget,
                          action=action)
                from repro.obs.logging import get_logger, log_event
                log_event(get_logger(__name__), logging.WARNING,
                          "memory budget breached",
                          rss_bytes=rss_bytes, budget_bytes=budget,
                          overshoot_bytes=rss_bytes - budget,
                          action=action)
                if action == "abort":
                    request_abort(
                        f"rss {rss_bytes} > budget {budget} bytes")
        elif rss_bytes <= 0.95 * budget:
            self._breached = False


# ------------------------------------------- per-span alloc attribution

def tracemalloc_top_k_from_env() -> int:
    """Resolve ``REPRO_TRACEMALLOC`` into a top-K site count.

    Mirrors :func:`repro.obs.profiling.profile_top_k_from_env`:
    unset/falsy -> 0 (off), a bare truthy word -> the default top-K,
    an integer -> that K, unparsable -> 0.
    """
    raw = os.environ.get(TRACEMALLOC_ENV, "").strip().lower()
    if raw in _FALSY:
        return 0
    if raw in _TRUTHY:
        return DEFAULT_ALLOC_TOP_K
    try:
        return max(0, int(raw))
    except ValueError:
        return 0


def top_allocations(before, after, top_k: int) -> list[dict]:
    """Top-K net-allocating source lines between two snapshots.

    ``before``/``after`` are :func:`tracemalloc.take_snapshot`
    results; the diff is by ``lineno`` and ordered by net size
    descending (sites that freed more than they allocated rank last
    and are dropped once K positive sites exist).
    """
    stats = after.compare_to(before, "lineno")
    stats.sort(key=lambda s: -s.size_diff)
    out = []
    for stat in stats[:max(0, int(top_k))]:
        frame = stat.traceback[0] if len(stat.traceback) else None
        out.append({
            "file": frame.filename if frame else "?",
            "line": frame.lineno if frame else 0,
            "size_bytes": int(stat.size_diff),
            "count": int(stat.count_diff),
        })
    return out


# -------------------------------------------------------------- rendering

def _fmt_bytes(value) -> str:
    if not isinstance(value, (int, float)):
        return "--"
    value = float(value)
    for unit in ("B", "KB", "MB", "GB", "TB"):
        if abs(value) < 1024.0 or unit == "TB":
            return (f"{value:.0f} {unit}" if unit == "B"
                    else f"{value:.1f} {unit}")
        value /= 1024.0
    return "--"  # pragma: no cover - unreachable


def format_ledger(rows: list[dict]) -> str:
    """Render :func:`ledger_rows` as an aligned per-tag table."""
    if not rows:
        return "ledger empty (is REPRO_MEM_LEDGER=1 set?)"
    lines = [f"{'tag':<18} {'live':>10} {'peak':>10} {'total':>10} "
             f"{'in':>4} {'out':>4} dtypes"]
    for row in rows:
        lines.append(
            f"{row['tag']:<18} {_fmt_bytes(row['live_bytes']):>10} "
            f"{_fmt_bytes(row['peak_bytes']):>10} "
            f"{_fmt_bytes(row['total_bytes']):>10} "
            f"{row['checkins']:>4} {row['checkouts']:>4} "
            f"{row['dtypes']}")
    return "\n".join(lines)


def format_conformance(report: dict) -> str:
    """Render :func:`conformance_report` as the verdict table."""
    head = (f"footprint conformance: {report['verdict'].upper()}  "
            f"(n={report['n']} m={report['m']} "
            f"method={report['method'] or '-'} "
            f"engine={report['engine']})")
    lines = [
        head,
        f"  predicted {_fmt_bytes(report['predicted_bytes'])}  "
        f"attributed {_fmt_bytes(report['actual_bytes'])}  "
        f"ratio {report['ratio']:.3f}  "
        f"tolerance ±{100 * report['tolerance']:.0f}%",
        "",
        f"{'tag':<18} {'predicted':>12} {'attributed':>12} "
        f"{'ratio':>7} within",
    ]
    for row in report["components"]:
        ratio = (f"{row['ratio']:.3f}"
                 if math.isfinite(row["ratio"]) else "inf")
        lines.append(
            f"{row['tag']:<18} "
            f"{_fmt_bytes(row['predicted_bytes']):>12} "
            f"{_fmt_bytes(row['actual_bytes']):>12} "
            f"{ratio:>7} {'yes' if row['within'] else 'NO'}")
    for row in report["unmodeled"]:
        lines.append(f"{row['tag']:<18} {'--':>12} "
                     f"{_fmt_bytes(row['peak_bytes']):>12} "
                     f"{'--':>7} unmodeled")
    return "\n".join(lines)


def format_summary(summary: dict, report: dict | None = None) -> str:
    """Headline memory text: attributed totals, budget, verdict."""
    budget = summary.get("budget_bytes") or 0
    budget_text = (f"{_fmt_bytes(budget)} "
                   f"({summary.get('breaches', 0)} breach(es))"
                   if budget else "off")
    lines = [
        f"memory: attributed {_fmt_bytes(summary['current_bytes'])} "
        f"live / {_fmt_bytes(summary['peak_bytes'])} peak across "
        f"{len(summary['tags'])} tag(s), budget {budget_text}",
    ]
    for row in summary["tags"][:8]:
        lines.append(f"  {row['tag']:<18} peak "
                     f"{_fmt_bytes(row['peak_bytes']):>10}  "
                     f"live {_fmt_bytes(row['live_bytes']):>10}")
    if report is not None:
        lines.append(
            f"  conformance: {report['verdict']} "
            f"(ratio {report['ratio']:.3f}, "
            f"±{100 * report['tolerance']:.0f}%)")
    return "\n".join(lines)
