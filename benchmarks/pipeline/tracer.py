"""In-memory span recorder for the benchmark's traced pass.

Spans are plain dicts in the run-record shape that
:mod:`repro.obs.export` already reads (``name``, ``start_ns``,
``duration_ns``, ``attrs``, ``children``), so the Chrome trace comes
from the repository's own exporter. Nothing is written until the run
ends. The untraced pass uses :data:`NULL`, whose spans record nothing.
"""

from __future__ import annotations

import contextlib
import time

#: Layer spans a job is split into, named after the module each wraps.
LAYERS = ("sampling", "generators", "relabel", "digraph", "listing",
          "planner", "costs")


class Tracer:
    """Records a tree of spans; ``span`` nests under the open one."""

    def __init__(self):
        self.roots: list[dict] = []
        self._stack: list[dict] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        node = {"name": name, "attrs": attrs, "children": [],
                "start_ns": time.perf_counter_ns(), "duration_ns": 0}
        parent = self._stack[-1]["children"] if self._stack else self.roots
        parent.append(node)
        self._stack.append(node)
        try:
            yield node["attrs"]
        finally:
            node["duration_ns"] = time.perf_counter_ns() - node["start_ns"]
            self._stack.pop()


class _NullTracer:
    """Same interface as :class:`Tracer`; records nothing."""

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        yield attrs


NULL = _NullTracer()


def walk(nodes):
    """Every span of the given trees, depth first."""
    for node in nodes:
        yield node
        yield from walk(node["children"])


def named(roots, name: str) -> list[dict]:
    return [node for node in walk(roots) if node["name"] == name]


def job_breakdown(roots) -> dict:
    """Busy time per layer over all ``job`` spans.

    Layer spans are direct children of a job and do not nest, so a
    layer's self time is its duration. Whatever the job span covers
    outside them is the harness's own time (``harness``).
    """
    jobs = named(roots, "job")
    total = sum(job["duration_ns"] for job in jobs)
    busy = dict.fromkeys(LAYERS, 0)
    for job in jobs:
        for child in job["children"]:
            busy[child["name"]] += child["duration_ns"]
    busy["harness"] = total - sum(busy.values())
    return {"jobs": len(jobs), "total_ns": total, "busy_ns": busy}


def rate(roots, name: str, unit: str) -> float:
    """Nanoseconds per ``attrs[unit]`` summed over every ``name`` span."""
    spans = named(roots, name)
    work = sum(node["attrs"].get(unit, 0) for node in spans)
    busy = sum(node["duration_ns"] for node in spans)
    return busy / work if work else 0.0


def chrome_trace(name: str, roots) -> dict:
    """Chrome trace-event document of the recorded spans."""
    from repro.obs.export import records_to_trace
    from repro.obs.records import RunRecord
    return records_to_trace([RunRecord(name=name, spans=roots)])
