"""Tool-readable exports of the run-record trail.

Two export formats over the spans/metrics/records stack, both consumed
by standard viewers rather than bespoke scripts:

* **Chrome trace-event JSON** (:func:`records_to_trace`) -- one
  complete (``"ph": "X"``) event per span, metric counters and gauges
  as counter (``"ph": "C"``) events, span attributes and attached
  profile stats as event ``args``. The output loads in Perfetto
  (https://ui.perfetto.dev) and ``chrome://tracing``.
* **Collapsed stacks** (:func:`collapsed_stacks`) -- the
  ``flamegraph.pl`` / speedscope text format, one ``stack weight``
  line per unique path. ``source="spans"`` weights each span path by
  its *self* time; ``source="profile"`` expands the per-span
  :mod:`cProfile` attribution (``REPRO_PROFILE=1``) into function
  leaves weighted by additive ``tottime``.

Timeline reconstruction: spans serialize their raw
``perf_counter_ns`` open timestamps, which are only meaningful within
one clock domain. The exporter keeps a child on the real timeline when
its window fits inside its parent's and otherwise falls back to
packing siblings sequentially -- so span trees merged across a process
boundary (the parallel sweep reattaching worker trees under the
parent ``cell``) still render with correct durations and hierarchy.
Worker-run spans carry a ``worker_pid`` attribute and are laid out on
their own trace *thread* rows, which is what makes pool imbalance
visible in the viewer.
"""

from __future__ import annotations

import json
import pathlib

__all__ = [
    "collapsed_stacks",
    "record_to_events",
    "records_to_trace",
    "span_tree_to_events",
    "validate_trace",
    "write_collapsed",
    "write_trace",
]

#: Main-thread trace id; worker spans use their ``worker_pid`` attr.
MAIN_TID = 1

#: Slack allowed when deciding whether a child's timestamps fit inside
#: its parent's window (clock jitter at span open/close), in microsec.
_FIT_SLACK_US = 50.0


def _as_dict(span) -> dict:
    return span.to_dict() if hasattr(span, "to_dict") else span


def _dur_us(node: dict) -> float:
    return int(node.get("duration_ns", 0)) / 1e3


def span_tree_to_events(root, pid: int = 1, tid: int = MAIN_TID,
                        base_us: float = 0.0) -> list[dict]:
    """Flatten one span tree into complete (``ph:"X"``) trace events.

    ``base_us`` is the absolute timeline position of the root. Returns
    the events in depth-first order; the caller owns pid assignment
    and metadata events.
    """
    events: list[dict] = []
    _emit_span(_as_dict(root), pid, tid, base_us, events)
    return events


def _emit_span(node: dict, pid: int, tid: int, abs_us: float,
               events: list[dict]) -> None:
    attrs = node.get("attrs") or {}
    worker_pid = attrs.get("worker_pid")
    if isinstance(worker_pid, (int, float)):
        tid = int(worker_pid)
    args = {str(k): v for k, v in attrs.items()}
    for key in ("mem_delta_bytes", "mem_peak_bytes"):
        if key in node:
            args[key] = node[key]
    if node.get("profile"):
        args["profile"] = node["profile"]
    dur = _dur_us(node)
    events.append({
        "name": str(node.get("name", "?")),
        "cat": "span",
        "ph": "X",
        "pid": pid,
        "tid": tid,
        "ts": round(abs_us, 3),
        "dur": round(dur, 3),
        "args": args,
    })
    start_ns = int(node.get("start_ns", 0))
    cursor = abs_us
    for child in node.get("children", ()):
        child = _as_dict(child)
        child_dur = _dur_us(child)
        child_start_ns = int(child.get("start_ns", 0))
        offset_us = (child_start_ns - start_ns) / 1e3
        fits = (start_ns > 0 and child_start_ns > 0
                and offset_us >= -_FIT_SLACK_US
                and offset_us + child_dur <= dur + _FIT_SLACK_US)
        child_abs = abs_us + max(offset_us, 0.0) if fits else cursor
        _emit_span(child, pid, tid, child_abs, events)
        cursor = max(cursor, child_abs + child_dur)


def record_to_events(record, pid: int = 1) -> list[dict]:
    """All trace events of one run record: spans, counters, metadata.

    Root spans lay out on one relative timeline starting at 0 (real
    offsets when their clocks agree, sequential packing otherwise);
    the metric snapshot lands as counter events at the trace end.
    """
    events: list[dict] = [{
        "name": "process_name", "ph": "M", "pid": pid, "tid": MAIN_TID,
        "args": {"name": record.name or "run"},
    }]
    roots = [_as_dict(s) for s in record.spans]
    first_start = next((int(r.get("start_ns", 0)) for r in roots
                        if int(r.get("start_ns", 0)) > 0), 0)
    cursor = 0.0
    for root in roots:
        start_ns = int(root.get("start_ns", 0))
        offset_us = (start_ns - first_start) / 1e3
        fits = first_start > 0 and start_ns > 0 and \
            offset_us >= cursor - _FIT_SLACK_US
        base = max(offset_us, cursor) if fits else cursor
        events.extend(span_tree_to_events(root, pid=pid, base_us=base))
        cursor = base + _dur_us(root)
    tids = {e["tid"] for e in events if e["ph"] == "X"}
    for tid in sorted(tids):
        label = "main" if tid == MAIN_TID else f"worker {tid}"
        events.append({"name": "thread_name", "ph": "M", "pid": pid,
                       "tid": tid, "args": {"name": label}})
    metrics = record.metrics or {}
    samples = dict(metrics.get("counters") or {})
    samples.update(metrics.get("gauges") or {})
    for name in sorted(samples):
        value = samples[name]
        if not isinstance(value, (int, float)):
            continue
        events.append({
            "name": name, "cat": "metric", "ph": "C", "pid": pid,
            "tid": MAIN_TID, "ts": round(cursor, 3),
            "args": {"value": value},
        })
    events.extend(_memory_counter_events(metrics, pid, cursor))
    return events


def _memory_counter_events(metrics: dict, pid: int,
                           cursor_us: float) -> list[dict]:
    """Memory counter track: the ledger's attributed bytes.

    The array ledger summary (``metrics["memory"]``, attached while
    ``REPRO_MEM_LEDGER`` was on) lands as attributed-bytes counters at
    the trace end.
    """
    events: list[dict] = []
    ledger = metrics.get("memory") or {}
    for key in ("current_bytes", "peak_bytes"):
        value = ledger.get(key) if isinstance(ledger, dict) else None
        if isinstance(value, (int, float)):
            events.append({
                "name": f"mem.attributed_{key}", "cat": "memory",
                "ph": "C", "pid": pid, "tid": MAIN_TID,
                "ts": round(cursor_us, 3),
                "args": {"value": value},
            })
    return events


def records_to_trace(records) -> dict:
    """Assemble records into one trace-event JSON document.

    Each record becomes its own trace *process* (pid 1..N, named after
    the bench), so a whole run history opens as parallel process
    tracks in Perfetto.
    """
    events: list[dict] = []
    meta: dict = {"generator": "repro export trace", "records": []}
    for pid, record in enumerate(records, start=1):
        events.extend(record_to_events(record, pid=pid))
        meta["records"].append({
            "pid": pid, "name": record.name,
            "git_rev": (record.meta or {}).get("git_rev"),
        })
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": meta}


def validate_trace(trace: dict) -> int:
    """Sanity-check a trace document; returns the event count.

    Raises :class:`ValueError` on a malformed document -- used by
    tests and the CI artifact step as a cheap schema gate.
    """
    if not isinstance(trace, dict) or \
            not isinstance(trace.get("traceEvents"), list):
        raise ValueError("trace must be a dict with a traceEvents list")
    events = trace["traceEvents"]
    if not events:
        raise ValueError("trace has no events")
    for event in events:
        ph = event.get("ph")
        if ph not in ("X", "C", "M"):
            raise ValueError(f"unexpected event phase {ph!r}")
        if not isinstance(event.get("pid"), int) or \
                not isinstance(event.get("tid"), int):
            raise ValueError("event missing integer pid/tid")
        if ph == "X" and (not isinstance(event.get("ts"), (int, float))
                          or not isinstance(event.get("dur"),
                                            (int, float))):
            raise ValueError("complete event missing ts/dur")
        if ph == "C":
            args = event.get("args") or {}
            if "value" not in args:
                raise ValueError("counter event missing args.value")
            if event.get("cat") == "memory":
                value = args["value"]
                if not isinstance(value, (int, float)) or \
                        isinstance(value, bool) or value < 0:
                    raise ValueError(
                        f"memory counter {event.get('name')!r} needs "
                        f"a non-negative numeric args.value, got "
                        f"{value!r}")
                if not isinstance(event.get("ts"), (int, float)):
                    raise ValueError("memory counter missing ts")
    return len(events)


def write_trace(records, path) -> pathlib.Path:
    """Serialize :func:`records_to_trace` to ``path``."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(records_to_trace(records)) + "\n",
                    encoding="utf-8")
    return path


# ------------------------------------------------------- collapsed stacks

def collapsed_stacks(records, source: str = "spans") -> list[str]:
    """``flamegraph.pl``-format lines over a set of run records.

    ``source="spans"``: one frame per span name along the tree path,
    weighted by integer microseconds of *self* time (duration minus
    children), so the flame graph totals match the wall clock.
    ``source="profile"``: spans that carry ``REPRO_PROFILE``
    attribution expand into ``<span path>;<func (file:line)>`` leaves
    weighted by ``tottime`` microseconds (additive, no double count).
    """
    if source not in ("spans", "profile"):
        raise ValueError(f"unknown flame source {source!r}")
    weights: dict[str, int] = {}

    def add(stack: str, weight_us: float) -> None:
        weight = int(round(weight_us))
        if weight > 0:
            weights[stack] = weights.get(stack, 0) + weight

    def walk(node: dict, prefix: str) -> None:
        name = str(node.get("name", "?"))
        path = f"{prefix};{name}" if prefix else name
        children = [_as_dict(c) for c in node.get("children", ())]
        if source == "spans":
            child_us = sum(_dur_us(c) for c in children)
            add(path, _dur_us(node) - child_us)
        else:
            for entry in node.get("profile") or ():
                filename = pathlib.Path(
                    str(entry.get("file", "?"))).name
                frame = (f"{entry.get('func', '?')} "
                         f"({filename}:{entry.get('line', 0)})")
                add(f"{path};{frame}",
                    float(entry.get("tottime", 0.0)) * 1e6)
        for child in children:
            walk(child, path)

    for record in records:
        for root in record.spans:
            walk(_as_dict(root), str(record.name or "run"))
    return [f"{stack} {weight}"
            for stack, weight in sorted(weights.items())]


def write_collapsed(records, path, source: str = "spans"
                    ) -> pathlib.Path:
    """Write :func:`collapsed_stacks` lines to ``path``."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = collapsed_stacks(records, source=source)
    path.write_text("\n".join(lines) + ("\n" if lines else ""),
                    encoding="utf-8")
    return path
