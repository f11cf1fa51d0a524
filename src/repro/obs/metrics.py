"""Process-local registry of named counters, gauges, and histograms.

The instrumented listers, orienter, generators, and harness *publish*
into this registry (``lister.ops``, ``orient.edges_flipped``,
``generator.rejections``, ...) in addition to returning their counters
via :class:`~repro.listing.base.ListingResult` -- so a whole benchmark
run can be summarized without threading result objects through every
layer.

Like :mod:`repro.obs.spans`, publication is disabled by default and the
disabled path is one module-global check (:func:`inc` & friends return
immediately), keeping the hot paths bit-identical in behavior and
essentially free of overhead. All registry operations are thread-safe.
"""

from __future__ import annotations

import random
import threading

__all__ = [
    "Histogram",
    "MAX_SAMPLES",
    "RESERVOIR_SEED",
    "MetricsRegistry",
    "percentile",
    "counter",
    "disable",
    "enable",
    "inc",
    "is_enabled",
    "merge_counters",
    "observe",
    "registry",
    "reset",
    "set_gauge",
    "snapshot",
]

_enabled = False


#: Per-histogram sample cap: beyond this, percentiles come from a
#: uniform reservoir of MAX_SAMPLES observations (count/sum/min/max
#: stay exact).
MAX_SAMPLES = 8192

#: Deterministic seed of every histogram's reservoir RNG: identical
#: observation streams yield identical p50/p95/p99 in trend rows and
#: audit aggregates, run after run.
RESERVOIR_SEED = 2017


def percentile(ordered, q: float) -> float:
    """Linear-interpolated percentile of an already-sorted sequence."""
    if not ordered:
        raise ValueError("percentile of empty sequence")
    if len(ordered) == 1:
        return float(ordered[0])
    pos = (len(ordered) - 1) * (q / 100.0)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return float(ordered[lo]) * (1.0 - frac) + float(ordered[hi]) * frac


class Histogram:
    """Summary of observed values: count/sum/min/max/mean + percentiles.

    Keeps a uniform random sample of the observations (up to
    :data:`MAX_SAMPLES`, Vitter's Algorithm R) so the snapshot can
    report p50/p95/p99 that remain representative past the cap -- a
    first-N sample would freeze the percentiles on the warm-up phase
    of a long run. The reservoir RNG is seeded deterministically
    (:data:`RESERVOIR_SEED`), so identical observation streams produce
    identical percentiles; ``count``/``sum``/``min``/``max`` are exact
    streaming fields regardless.
    """

    __slots__ = ("count", "total", "min", "max", "samples", "_rng")

    def __init__(self, seed: int = RESERVOIR_SEED):
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.samples: list[float] = []
        self._rng = random.Random(seed)

    def observe(self, value: float) -> None:
        """Fold one observation into the streaming summary."""
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self.samples) < MAX_SAMPLES:
            self.samples.append(value)
        else:
            # Algorithm R: observation i replaces a reservoir slot
            # with probability MAX_SAMPLES / i, keeping the sample
            # uniform over everything seen so far.
            j = self._rng.randrange(self.count)
            if j < MAX_SAMPLES:
                self.samples[j] = value

    def summary(self) -> dict:
        """JSON-ready summary; empty histograms report ``count = 0``."""
        if self.count == 0:
            return {"count": 0}
        out = {"count": self.count, "sum": self.total,
               "min": self.min, "max": self.max,
               "mean": self.total / self.count}
        ordered = sorted(self.samples)
        if ordered:
            out["p50"] = percentile(ordered, 50)
            out["p95"] = percentile(ordered, 95)
            out["p99"] = percentile(ordered, 99)
        return out


class MetricsRegistry:
    """Thread-safe map of counters, gauges, and histograms."""

    def __init__(self):
        self._lock = threading.RLock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}

    def inc(self, name: str, value: float = 1) -> None:
        """Add ``value`` to the counter ``name`` (created at 0)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def set_gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name`` to its latest ``value``."""
        with self._lock:
            self._gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        """Record ``value`` into the histogram ``name``."""
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = Histogram()
            hist.observe(value)

    def counter(self, name: str) -> float:
        """Current value of a counter (0 if never incremented)."""
        with self._lock:
            return self._counters.get(name, 0)

    def merge_counters(self, counters: dict) -> None:
        """Fold a ``{name: value}`` mapping into the counters.

        This is how worker-process metric snapshots are aggregated
        back into the parent registry after a parallel fan-out.
        """
        with self._lock:
            for name, value in counters.items():
                self._counters[name] = self._counters.get(name, 0) + value

    def snapshot(self) -> dict:
        """JSON-ready snapshot of every metric."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {name: h.summary()
                               for name, h in self._histograms.items()},
            }

    def reset(self) -> None:
        """Drop every metric."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


_registry = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide registry instance."""
    return _registry


def enable() -> None:
    """Turn metric publication on."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Turn metric publication off (existing values are kept)."""
    global _enabled
    _enabled = False


def is_enabled() -> bool:
    """Whether :func:`inc`/:func:`set_gauge`/:func:`observe` publish."""
    return _enabled


def inc(name: str, value: float = 1) -> None:
    """Increment a counter -- no-op while publication is disabled."""
    if not _enabled:
        return
    _registry.inc(name, value)


def set_gauge(name: str, value: float) -> None:
    """Set a gauge -- no-op while publication is disabled."""
    if not _enabled:
        return
    _registry.set_gauge(name, value)


def observe(name: str, value: float) -> None:
    """Observe into a histogram -- no-op while publication is disabled."""
    if not _enabled:
        return
    _registry.observe(name, value)


def merge_counters(counters: dict) -> None:
    """Merge worker counters -- no-op while publication is disabled."""
    if not _enabled:
        return
    _registry.merge_counters(counters)


def counter(name: str) -> float:
    """Current value of a counter (works regardless of the flag)."""
    return _registry.counter(name)


def snapshot() -> dict:
    """Snapshot the registry (works regardless of the enabled flag)."""
    return _registry.snapshot()


def reset() -> None:
    """Clear the registry (works regardless of the enabled flag)."""
    _registry.reset()
