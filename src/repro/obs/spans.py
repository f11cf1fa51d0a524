"""Hierarchical wall-clock spans with an optional tracemalloc hook.

A span times one phase of the pipeline (``relabel``, ``orient``,
``list``, ...) via :func:`time.perf_counter_ns` and nests: spans opened
while another span is active become its children, so a top-level span
closes into a tree describing where the run spent its time.

Observability is *disabled by default* and the disabled path is a
module-level no-op fast path: :func:`span` then returns a shared
singleton whose ``__enter__``/``__exit__`` do nothing, so instrumented
library code pays only one global check per phase -- the counters the
listers return (``ops``, ``comparisons``, ``hash_inserts``) are never
affected either way.

Thread safety: the active-span stack is thread-local (each thread grows
its own tree) while finished root spans are collected into one shared
list behind a lock; :func:`pop_finished` drains it.

With ``enable(memory=True)`` the module also starts :mod:`tracemalloc`
and each span records the net allocated bytes over its lifetime plus
the global peak observed at its close.

With ``enable(profile=...)`` (or the ``REPRO_PROFILE`` environment
knob, consulted by default) every *top-level* span additionally runs
under :mod:`cProfile` and closes with its top-K functions by
cumulative time attached as ``span.profile`` -- see
:mod:`repro.obs.profiling`. The hook shares the span enable path, so
the disabled fast path is untouched.
"""

from __future__ import annotations

import threading
import time

from repro.obs.jsonl import env_top_k

__all__ = [
    "Span",
    "current_span",
    "disable",
    "enable",
    "format_span_tree",
    "is_enabled",
    "pop_finished",
    "reset",
    "span",
]

_enabled = False
_trace_memory = False
_profile_top_k = 0
_alloc_top_k = 0
_alloc_started_tracemalloc = False
_lock = threading.Lock()
_finished: list["Span"] = []

class _Frames(threading.local):
    """Per-thread stack of currently open spans."""

    def __init__(self):
        self.stack: list[Span] = []


_frames = _Frames()


class Span:
    """One timed phase; ``children`` makes finished spans a tree.

    Attributes
    ----------
    name:
        Phase name (``"relabel"``, ``"orient"``, ``"list"``, ...).
    attrs:
        Free-form key/value annotations (method, n, seed, ...).
    start_ns / duration_ns:
        ``perf_counter_ns`` timestamps; ``duration_ns`` is 0 until the
        span closes.
    mem_delta_bytes / mem_peak_bytes:
        Only populated when memory tracing is on: net tracemalloc
        allocation over the span and the traced peak at close.
    profile:
        Only populated for top-level spans while profiling is on: the
        top-K functions by cumulative time (list of dicts -- see
        :func:`repro.obs.profiling.top_functions`).
    alloc:
        Only populated for top-level spans while ``REPRO_TRACEMALLOC``
        attribution is on: the top-K net-allocating source lines over
        the span (list of dicts -- see
        :func:`repro.obs.memory.top_allocations`).
    """

    __slots__ = ("name", "attrs", "start_ns", "duration_ns", "children",
                 "mem_delta_bytes", "mem_peak_bytes", "profile", "alloc")

    def __init__(self, name: str, attrs: dict | None = None):
        self.name = name
        self.attrs = dict(attrs) if attrs else {}
        self.start_ns = 0
        self.duration_ns = 0
        self.children: list[Span] = []
        self.mem_delta_bytes: int | None = None
        self.mem_peak_bytes: int | None = None
        self.profile: list | None = None
        self.alloc: list | None = None

    @property
    def duration_ms(self) -> float:
        """Span duration in milliseconds."""
        return self.duration_ns / 1e6

    def annotate(self, **attrs) -> "Span":
        """Attach key/value attributes to the span; returns ``self``."""
        self.attrs.update(attrs)
        return self

    def to_dict(self) -> dict:
        """JSON-ready representation of the subtree.

        ``start_ns`` is the raw ``perf_counter_ns`` open timestamp --
        meaningful only *relative* to other spans of the same process
        (the trace exporter uses it to lay siblings out on a shared
        timeline and falls back to sequential packing when a subtree
        crossed a process boundary).
        """
        out: dict = {"name": self.name,
                     "start_ns": int(self.start_ns),
                     "duration_ns": int(self.duration_ns)}
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.mem_delta_bytes is not None:
            out["mem_delta_bytes"] = int(self.mem_delta_bytes)
        if self.mem_peak_bytes is not None:
            out["mem_peak_bytes"] = int(self.mem_peak_bytes)
        if self.profile is not None:
            out["profile"] = list(self.profile)
        if self.alloc is not None:
            out["alloc"] = list(self.alloc)
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        """Rebuild a span tree from :meth:`to_dict` output.

        Used to reattach worker-process span trees (which cross the
        process boundary as plain dicts) under a parent span.
        """
        s = cls(data["name"], data.get("attrs"))
        s.start_ns = int(data.get("start_ns", 0))
        s.duration_ns = int(data.get("duration_ns", 0))
        if "mem_delta_bytes" in data:
            s.mem_delta_bytes = int(data["mem_delta_bytes"])
        if "mem_peak_bytes" in data:
            s.mem_peak_bytes = int(data["mem_peak_bytes"])
        if "profile" in data:
            s.profile = list(data["profile"])
        if "alloc" in data:
            s.alloc = list(data["alloc"])
        s.children = [cls.from_dict(c) for c in data.get("children", [])]
        return s

    def phase_totals(self) -> dict[str, int]:
        """Total ``duration_ns`` per span name over the whole subtree."""
        totals: dict[str, int] = {}

        def walk(s: Span) -> None:
            totals[s.name] = totals.get(s.name, 0) + s.duration_ns
            for child in s.children:
                walk(child)

        walk(self)
        return totals

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, {self.duration_ms:.3f} ms, "
                f"{len(self.children)} children)")


class _ActiveSpan:
    """Context manager driving one real (enabled) span."""

    __slots__ = ("span", "_mem_start", "_profiler", "_alloc_before")

    def __init__(self, name: str, attrs: dict):
        self.span = Span(name, attrs)
        self._mem_start: int | None = None
        self._profiler = None
        self._alloc_before = None

    def __enter__(self) -> Span:
        top_level = not _frames.stack
        _frames.stack.append(self.span)
        if _trace_memory:
            import tracemalloc
            self._mem_start = tracemalloc.get_traced_memory()[0]
        if _alloc_top_k and top_level:
            # Allocation-site attribution, like profiling: only tree
            # roots snapshot (diffs are expensive) and descendants are
            # covered by the root's window.
            import tracemalloc
            self._alloc_before = tracemalloc.take_snapshot()
        if _profile_top_k and top_level:
            # Only the root of each tree profiles: cProfile cannot
            # nest, and descendants are covered by the root's run.
            import cProfile
            self._profiler = cProfile.Profile()
            self._profiler.enable()
        self.span.start_ns = time.perf_counter_ns()
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        s = self.span
        s.duration_ns = time.perf_counter_ns() - s.start_ns
        if self._profiler is not None:
            self._profiler.disable()
            from repro.obs.profiling import top_functions
            s.profile = top_functions(self._profiler, _profile_top_k)
            self._profiler = None
        if self._alloc_before is not None:
            import tracemalloc
            from repro.obs.memory import top_allocations
            s.alloc = top_allocations(
                self._alloc_before, tracemalloc.take_snapshot(),
                _alloc_top_k)
            self._alloc_before = None
        if self._mem_start is not None:
            import tracemalloc
            current, peak = tracemalloc.get_traced_memory()
            s.mem_delta_bytes = current - self._mem_start
            s.mem_peak_bytes = peak
        if exc_type is not None:
            s.attrs.setdefault("error", exc_type.__name__)
        stack = _frames.stack
        if stack and stack[-1] is s:
            stack.pop()
        elif s in stack:  # pragma: no cover - unbalanced exit guard
            del stack[stack.index(s):]
        if stack:
            stack[-1].children.append(s)
        else:
            with _lock:
                _finished.append(s)
        return False


class _NoopSpan:
    """Shared do-nothing span: the disabled fast path."""

    __slots__ = ()
    name = None
    attrs: dict = {}
    start_ns = 0
    duration_ns = 0
    duration_ms = 0.0
    children: list = []
    profile = None

    def annotate(self, **attrs):
        return self

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


_NOOP = _NoopSpan()


def span(name: str, /, **attrs):
    """Open a (nestable) span; a no-op unless tracing is enabled.

    ``name`` is positional-only so an attribute may also be called
    ``name``.

    Usage::

        with span("orient", n=graph.n) as sp:
            ...
            sp.annotate(edges_flipped=k)
    """
    if not _enabled:
        return _NOOP
    return _ActiveSpan(name, attrs)


def enable(memory: bool = False, profile: int | None = None,
           alloc: int | None = None) -> None:
    """Turn span collection on (optionally with tracemalloc tracking).

    ``profile`` controls per-top-level-span :mod:`cProfile`
    attribution: an int is the top-K function count to attach (0
    disables), ``None`` (the default) consults the ``REPRO_PROFILE``
    environment knob via :func:`repro.obs.jsonl.env_top_k` -- so every
    existing enable path (``--trace``, ``REPRO_TRACE=1``, the bench
    drivers, pool workers) picks the mode up without new plumbing.

    ``alloc`` is the same design for per-top-level-span *allocation*
    attribution (``span.alloc``, top-K net-allocating source lines):
    ``None`` consults ``REPRO_TRACEMALLOC`` the same way. A non-zero K
    starts :mod:`tracemalloc` if nothing else has.
    """
    global _enabled, _trace_memory, _profile_top_k, _alloc_top_k
    global _alloc_started_tracemalloc
    if memory:
        import tracemalloc
        if not tracemalloc.is_tracing():
            tracemalloc.start()
    _trace_memory = bool(memory)
    if profile is None:
        from repro.obs.profiling import DEFAULT_TOP_K
        _profile_top_k = env_top_k("REPRO_PROFILE", DEFAULT_TOP_K)
    else:
        _profile_top_k = max(0, int(profile))
    if alloc is None:
        from repro.obs.memory import DEFAULT_ALLOC_TOP_K, TRACEMALLOC_ENV
        _alloc_top_k = env_top_k(TRACEMALLOC_ENV, DEFAULT_ALLOC_TOP_K)
    else:
        _alloc_top_k = max(0, int(alloc))
    if _alloc_top_k:
        import tracemalloc
        if not tracemalloc.is_tracing():
            tracemalloc.start()
            _alloc_started_tracemalloc = True
    _enabled = True


def disable() -> None:
    """Turn span collection off and stop tracemalloc if we started it."""
    global _enabled, _trace_memory, _profile_top_k, _alloc_top_k
    global _alloc_started_tracemalloc
    _enabled = False
    if _trace_memory or _alloc_started_tracemalloc:
        import tracemalloc
        if tracemalloc.is_tracing():
            tracemalloc.stop()
    _trace_memory = False
    _profile_top_k = 0
    _alloc_top_k = 0
    _alloc_started_tracemalloc = False


def is_enabled() -> bool:
    """Whether spans are currently being recorded."""
    return _enabled


def current_span() -> Span | None:
    """The innermost open span of this thread, or ``None``."""
    stack = _frames.stack
    return stack[-1] if stack else None


def pop_finished() -> list[Span]:
    """Drain and return the finished root spans (all threads)."""
    with _lock:
        out = list(_finished)
        _finished.clear()
    return out


def reset() -> None:
    """Drop all finished roots and this thread's open stack."""
    pop_finished()
    _frames.stack.clear()


def format_span_tree(root: Span) -> str:
    """Render a finished span tree as an indented text block."""
    lines: list[str] = []

    def walk(s: Span, depth: int) -> None:
        attrs = " ".join(f"{k}={v}" for k, v in s.attrs.items())
        mem = ""
        if s.mem_peak_bytes is not None:
            mem = f"  peak={s.mem_peak_bytes / 1e6:.2f}MB"
        lines.append(f"{'  ' * depth}{s.name:<12} "
                     f"{s.duration_ms:>10.3f} ms{mem}"
                     + (f"  [{attrs}]" if attrs else ""))
        for child in s.children:
            walk(child, depth + 1)

    walk(root, 0)
    return "\n".join(lines)
