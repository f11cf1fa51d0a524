"""Pub/sub event bus for live telemetry (``repro.obs.live``).

Post-hoc observability (spans, run records) answers "what happened";
the bus answers "what is happening *now*": producers -- the resource
sampler, the progress/ETA layer, the worker-heartbeat watchdog, the
span phase hook -- publish small dict events through :func:`emit`, and
pluggable sinks fan them out:

* :class:`MemorySink` -- in-process list, for tests and ``repro top``;
* :class:`JsonlSink` -- one JSON line per event appended to the record
  stream (``REPRO_LIVE=1`` attaches one at ``runs.jsonl``, the file
  ``repro top`` follows; see :mod:`repro.obs.records`).

Like the rest of :mod:`repro.obs`, the bus is disabled by default and
the disabled path is one module-global check: :func:`emit` returns
immediately, so instrumented hot paths (the engine chunk loop, the
pool scheduler) pay nothing unless live telemetry is on.

Every published event is stamped with ``type``, ``ts`` (unix seconds)
and ``pid``; :data:`EVENT_SCHEMA` is the per-type payload table, which
:data:`repro.obs.records.SCHEMA` folds into the stream's one schema.
"""

from __future__ import annotations

import os
import threading
import time

from repro.obs import jsonl as _jsonl
from repro.obs.jsonl import Opt

__all__ = [
    "EVENT_SCHEMA",
    "EventBus",
    "JsonlSink",
    "MemorySink",
    "add_sink",
    "bus",
    "disable",
    "emit",
    "enable",
    "is_enabled",
    "remove_sink",
    "reset",
]

_enabled = False


#: Payload field table per event type, beyond the stamped ``type`` /
#: ``ts`` / ``pid`` (see :func:`repro.obs.jsonl.check`). Optional
#: fields postdate the first recorded streams, so old event files keep
#: validating.
EVENT_SCHEMA: dict[str, dict] = {
    # background sampler: one process-resource snapshot
    "resource.sample": {
        "rss_bytes": (int,),
        "cpu_user_s": (int, float),
        "cpu_system_s": (int, float),
        "gc_collections": (int,),
        "gc_objects": (int,),
        "threads": (int,),
        "rss_peak_bytes": Opt((int,)),
    },
    # progress/ETA layer: one unit of a tracked workload finished
    "progress": {
        "scope": (str,),       # "sweep" | "cell" | "chunk" | ...
        "label": (str,),
        "done": (int, float),
        "total": (int, float),
        "frac": (int, float),
        # the model-ops ETA
        "ops_done": Opt((int, float)),
        "ops_predicted": Opt((int, float)),
        "eta_s": Opt((int, float)),
        "phase": Opt((str,)),
    },
    # pool worker liveness (relayed by the parent watchdog)
    "heartbeat": {
        "worker_pid": (int,),
        "task": (str,),
    },
    # watchdog verdict: a worker missed too many intervals
    "worker.stalled": {
        "worker_pid": (int,),
        "silent_s": (int, float),
        "missed": (int,),
        "last_task": (str,),
    },
    # top-level span lifecycle (the "phase" line of ``repro top``)
    "phase": {
        "name": (str,),
        "status": (str,),      # "start" | "end"
    },
    # run bracketing, for multi-run event streams
    "run.start": {"name": (str,)},
    "run.end": {"name": (str,)},
    # memory watchdog (repro.obs.memory): one pressure reading per
    # resource sample while REPRO_MEM_BUDGET is armed
    "mem.pressure": {
        "rss_bytes": (int,),
        "budget_bytes": (int,),
        "frac": (int, float),
        "attributed_bytes": Opt((int,)),
    },
    # memory watchdog: RSS crossed the budget (once per excursion)
    "mem.breach": {
        "rss_bytes": (int,),
        "budget_bytes": (int,),
        "overshoot_bytes": (int,),
        "action": (str,),      # "warn" | "abort"
    },
}

class MemorySink:
    """Keeps every event in a list -- tests and in-process readers."""

    def __init__(self):
        self.events: list[dict] = []

    def write(self, event: dict) -> None:
        """Append ``event`` to the in-memory list."""
        self.events.append(event)

    def of_type(self, type_: str) -> list[dict]:
        """Events filtered to one ``type``."""
        return [e for e in self.events if e.get("type") == type_]

    def close(self) -> None:
        """Nothing to release."""


class JsonlSink:
    """Appends one JSON line per event to a stream file.

    The ``O_APPEND`` descriptor stays open and each event is one
    unbuffered write, so a concurrent ``repro top`` follower
    sees events as they happen. No fsync: this is a follow stream, not
    a ledger. Parent directories are created on demand.
    """

    def __init__(self, path):
        self.path = path
        self._fd = _jsonl.open_append(path)

    def write(self, event: dict) -> None:
        """Serialize ``event`` as one line (a single ``write`` call)."""
        _jsonl.write_line(self._fd, event)

    def close(self) -> None:
        """Close the stream file (idempotent)."""
        fd, self._fd = self._fd, None
        if fd is not None:
            os.close(fd)


class EventBus:
    """Thread-safe fan-out of stamped events to registered sinks."""

    def __init__(self):
        self._lock = threading.Lock()
        self._sinks: list = []

    def add_sink(self, sink) -> None:
        """Register ``sink`` (any object with ``write``/``close``)."""
        with self._lock:
            self._sinks.append(sink)

    def remove_sink(self, sink) -> None:
        """Unregister ``sink`` if present (it is not closed)."""
        with self._lock:
            if sink in self._sinks:
                self._sinks.remove(sink)

    def sinks(self) -> list:
        """Snapshot of the registered sinks."""
        with self._lock:
            return list(self._sinks)

    def emit(self, type_: str, **fields) -> dict:
        """Stamp and publish one event; returns the event dict."""
        event = {"type": type_, "ts": time.time(), "pid": os.getpid(),
                 **fields}
        with self._lock:
            sinks = list(self._sinks)
        for sink in sinks:
            try:
                sink.write(event)
            except Exception:  # pragma: no cover - sink must not kill run
                pass
        return event

    def close(self) -> None:
        """Close and drop every sink."""
        with self._lock:
            sinks, self._sinks = self._sinks, []
        for sink in sinks:
            sink.close()


_bus = EventBus()


def bus() -> EventBus:
    """The process-wide bus instance."""
    return _bus


def enable() -> None:
    """Turn event publication on."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Turn event publication off (sinks stay registered)."""
    global _enabled
    _enabled = False


def is_enabled() -> bool:
    """Whether :func:`emit` publishes."""
    return _enabled


def emit(type_: str, **fields) -> dict | None:
    """Publish an event -- no-op (returns ``None``) while disabled."""
    if not _enabled:
        return None
    return _bus.emit(type_, **fields)


def add_sink(sink) -> None:
    """Register a sink on the process-wide bus."""
    _bus.add_sink(sink)


def remove_sink(sink) -> None:
    """Unregister a sink from the process-wide bus."""
    _bus.remove_sink(sink)


def reset() -> None:
    """Disable publication and close/drop every sink."""
    disable()
    _bus.close()
