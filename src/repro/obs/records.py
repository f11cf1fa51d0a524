"""The one record stream: run records and audit records.

Every observability line lands in one typed JSONL file, ``runs.jsonl``
(:func:`runs_path`: an explicit path, else ``REPRO_RUNS_FILE``, else
``benchmarks/results/runs.jsonl``), written through the shared codec
:mod:`repro.obs.jsonl`. Each line carries a ``type``: ``"run"`` for a
:class:`RunRecord` or ``"audit"`` for a planner audit record
(:mod:`repro.obs.audit`). A line without a ``type`` reads as a run, as
every line of older histories is one. :func:`load_type` filters the
stream by type; :data:`SCHEMA` is the one field table keyed by type and
:func:`check_line` the one validator over it (``repro report
validate``).

A :class:`RunRecord` bundles what a benchmark or experiment just did --
the finished span trees, a metrics snapshot, the run configuration
(method, permutation, n, seed, ...) and environment metadata (git
revision, python version, wall-clock timestamp).

:class:`~repro.listing.base.ListingResult` objects round-trip via
:func:`listing_result_to_dict` / :func:`listing_result_from_dict`.
"""

from __future__ import annotations

import dataclasses
import logging
import os
import pathlib
import shutil
import subprocess
import sys
import time

from repro.obs import audit as _audit
from repro.obs import jsonl as _jsonl
from repro.obs import metrics as _metrics
from repro.obs import spans as _spans

__all__ = [
    "DEFAULT_RUNS_PATH",
    "RUNS_FILE_ENV",
    "RunRecord",
    "SCHEMA",
    "check_line",
    "collect",
    "git_revision",
    "host_meta",
    "listing_result_from_dict",
    "listing_result_to_dict",
    "load_records",
    "load_type",
    "record_run",
    "runs_path",
    "write_record",
]

DEFAULT_RUNS_PATH = pathlib.Path("benchmarks") / "results" / "runs.jsonl"

#: Environment override for the stream's path.
RUNS_FILE_ENV = "REPRO_RUNS_FILE"

#: The one field table of the stream, keyed by line ``type`` (see
#: :func:`repro.obs.jsonl.check`): the audit record and the run record.
SCHEMA: dict[str, dict] = {
    "audit": _audit.AUDIT_RECORD,
    "run": {"name": (str,), "config": (dict,), "metrics": (dict,),
            "meta": (dict,), "spans": (list,)},
}


def runs_path(path=None) -> pathlib.Path:
    """The stream's path: ``path``, else ``REPRO_RUNS_FILE``, else
    :data:`DEFAULT_RUNS_PATH`."""
    if path is not None:
        return pathlib.Path(path)
    env = os.environ.get(RUNS_FILE_ENV, "").strip()
    return pathlib.Path(env) if env else DEFAULT_RUNS_PATH


def load_type(type_: str, path=None) -> list[dict]:
    """Every ``type_`` line of the stream (missing file = ``[]``).

    A line with no ``type`` is a run. A torn line (power loss
    mid-sector) must not take the history down: skipped lines bump
    ``records.corrupted`` under one structured WARNING.
    """
    path = runs_path(path)
    if not os.path.exists(path):
        return []
    objects, skipped = _jsonl.read(path)
    if skipped:
        _metrics.inc("records.corrupted", len(skipped))
        from repro.obs.logging import get_logger, log_event
        log_event(get_logger(__name__), logging.WARNING,
                  "skipped corrupted record lines",
                  path=str(path), skipped=len(skipped),
                  first_bad_line=skipped[0][0], detail=skipped[0][1])
    return [obj for obj in objects if obj.get("type", "run") == type_]


def check_line(obj) -> list[str]:
    """Schema errors of one stream line against :data:`SCHEMA`."""
    if not isinstance(obj, dict):
        return [f"line is not an object: {obj!r}"]
    type_ = obj.get("type", "run")
    if not isinstance(type_, str) or type_ not in SCHEMA:
        return [f"unknown type {type_!r}"]
    return _jsonl.check(SCHEMA[type_], obj, type_)

_git_rev_cache: str | None = None
_git_rev_known = False


_compiler_version_cache = _UNRESOLVED = object()


def _compiler_version() -> str | None:
    """First line of ``cc/gcc --version``, resolved once per process."""
    global _compiler_version_cache
    if _compiler_version_cache is _UNRESOLVED:
        _compiler_version_cache = None
        compiler = shutil.which("cc") or shutil.which("gcc")
        if compiler is not None:
            try:
                proc = subprocess.run(
                    [compiler, "--version"], capture_output=True,
                    text=True, timeout=10)
                if proc.returncode == 0 and proc.stdout:
                    _compiler_version_cache = \
                        proc.stdout.splitlines()[0].strip()
            except (OSError, subprocess.SubprocessError):
                pass
    return _compiler_version_cache


def host_meta() -> dict:
    """Host metadata making records comparable across machines.

    Attached to benchmark sidecars and surfaced by ``repro report
    trends``: results from a 4-core CI runner and a 64-core box must
    never be averaged silently. ``native`` reports whether the
    compiled kernels actually resolved in this process (with the
    failure state when they did not), ``compiler`` the toolchain
    version line, and ``native_threads`` the thread count the block
    driver would use.
    """
    import platform
    from repro.engine import native as _native
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "native": _native.available(),
        "native_state": _native.status()["state"],
        "native_threads": _native.resolve_threads(),
        "compiler": _compiler_version(),
    }


def git_revision() -> str | None:
    """Short git revision of the repo containing this package, if any."""
    global _git_rev_cache, _git_rev_known
    if _git_rev_known:
        return _git_rev_cache
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=5,
            cwd=pathlib.Path(__file__).resolve().parent)
        _git_rev_cache = (proc.stdout.strip()
                          if proc.returncode == 0 and proc.stdout.strip()
                          else None)
    except (OSError, subprocess.SubprocessError):
        _git_rev_cache = None
    _git_rev_known = True
    return _git_rev_cache


@dataclasses.dataclass
class RunRecord:
    """One machine-readable run: spans + metrics + config + metadata."""

    name: str
    config: dict = dataclasses.field(default_factory=dict)
    spans: list = dataclasses.field(default_factory=list)
    metrics: dict = dataclasses.field(default_factory=dict)
    meta: dict = dataclasses.field(default_factory=dict)

    @classmethod
    def from_dict(cls, data: dict) -> "RunRecord":
        return cls(name=data.get("name", ""),
                   config=data.get("config", {}) or {},
                   spans=data.get("spans", []) or [],
                   metrics=data.get("metrics", {}) or {},
                   meta=data.get("meta", {}) or {})

    def phase_totals(self) -> dict[str, int]:
        """Aggregate ``duration_ns`` by span name over all span trees."""
        totals: dict[str, int] = {}

        def walk(node: dict) -> None:
            name = node.get("name", "?")
            totals[name] = totals.get(name, 0) + int(
                node.get("duration_ns", 0))
            for child in node.get("children", ()):
                walk(child)

        for root in self.spans:
            walk(root)
        return totals


def collect(name: str, config: dict | None = None,
            spans=None) -> RunRecord:
    """Assemble a record from the current obs state.

    Drains :func:`repro.obs.spans.pop_finished` unless an explicit list
    of :class:`~repro.obs.spans.Span` objects (or span dicts) is given,
    and snapshots the metrics registry.
    """
    if spans is None:
        spans = _spans.pop_finished()
    span_dicts = [s.to_dict() if hasattr(s, "to_dict") else s
                  for s in spans]
    metrics = _metrics.snapshot()
    # The array ledger's full per-tag/per-span attribution rides the
    # record whenever REPRO_MEM_LEDGER was on for the run.
    from repro.obs import memory as _memory
    if _memory.is_enabled():
        metrics["memory"] = _memory.ledger_summary()
    return RunRecord(
        name=name,
        config=dict(config or {}),
        spans=span_dicts,
        metrics=metrics,
        meta={
            "git_rev": git_revision(),
            "python": sys.version.split()[0],
            "timestamp_unix": time.time(),
        },
    )


def write_record(record: RunRecord, path=None) -> pathlib.Path:
    """Append ``record`` as one durable ``"run"`` line; returns the path.

    See :mod:`repro.obs.jsonl` for the atomicity contract;
    :func:`load_type` keeps its skip-with-warning path for histories
    torn by power loss mid-sector.
    """
    return _jsonl.append(runs_path(path),
                         {"type": "run", **dataclasses.asdict(record)})


def record_run(name: str, config: dict | None = None,
               path=None) -> pathlib.Path:
    """:func:`collect` + :func:`write_record` in one call."""
    return write_record(collect(name, config), path)


def load_records(path=None) -> list[RunRecord]:
    """Every run line of the stream (see :func:`load_type`)."""
    return [RunRecord.from_dict(data) for data in load_type("run", path)]


def listing_result_to_dict(result) -> dict:
    """JSON-ready dict of a :class:`ListingResult` (lossless)."""
    return {
        "method": result.method,
        "count": int(result.count),
        "triangles": ([list(t) for t in result.triangles]
                      if result.triangles is not None else None),
        "ops": int(result.ops),
        "comparisons": int(result.comparisons),
        "hash_inserts": int(result.hash_inserts),
        "n": int(result.n),
        "extra": dict(result.extra),
    }


def listing_result_from_dict(data: dict):
    """Inverse of :func:`listing_result_to_dict`."""
    from repro.listing.base import ListingResult
    triangles = data.get("triangles")
    if triangles is not None:
        triangles = [tuple(t) for t in triangles]
    return ListingResult(
        method=data["method"],
        count=int(data.get("count", 0)),
        triangles=triangles,
        ops=int(data.get("ops", 0)),
        comparisons=int(data.get("comparisons", 0)),
        hash_inserts=int(data.get("hash_inserts", 0)),
        n=int(data.get("n", 0)),
        extra=dict(data.get("extra") or {}),
    )
