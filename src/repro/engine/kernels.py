"""Dispatch of the 18 methods onto the compiled listing kernel.

Every method lists the same triangle set; they differ only in cost,
and eqs. (7)-(9) with Propositions 1-2 give that cost in closed form
from the oriented degrees. So :func:`run_numpy` needs one kernel that
yields the triangles -- the method-independent forward intersection of
:mod:`repro.engine.native` -- and prices the requested method itself:
``ops`` via the component totals, ``hash_inserts`` from the family,
and ``comparisons`` as ``ops`` for the T/L hash-probe families and the
*remote* Table 1 component for the scanning edge iterators (the probes
a faithful transcription issues -- see ``_PROBE_COMPONENT``), so the
E-family ``comparisons`` differ from the Python merges' early-exit
counts.

Without the compiled library (no C toolchain, ``REPRO_NATIVE=0``) or
with ``use_native=False``, :func:`run_numpy` returns the instrumented
Python reference of :mod:`repro.listing` instead. Both list the
canonical ``x < y < z`` triples -- the orientation always points edges
at smaller labels -- so only the enumeration *order* differs.
"""

from __future__ import annotations

import weakref

from repro.core.costs import component_ops
from repro.core.methods import get_method
from repro.engine import native as _native
from repro.listing.api import _run_python
from repro.listing.base import ListingResult
from repro.obs import metrics as _metrics

#: Probes a faithful transcription issues per SEI/LEI method, as a base
#: cost component (the Table 1 *remote* term): e.g. E1 scans the full
#: out-row of each out-neighbor, sum X_v over out-edges = the T2 sum.
_PROBE_COMPONENT = {
    "E1": "T2", "E2": "T1", "E3": "T2", "E4": "T3", "E5": "T3",
    "E6": "T1",
    "L1": "T2", "L2": "T1", "L3": "T2", "L4": "T3", "L5": "T3",
    "L6": "T1",
}

#: Closed-form cost components per graph (eqs. (7)-(9)); keyed weakly
#: so repeated ``run_numpy`` calls on one graph (a bench sweeping all
#: 18 methods, say) pay the degree reductions once.
_COMPS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _component_ops(oriented) -> dict:
    comps = _COMPS.get(oriented)
    if comps is None:
        comps = component_ops(oriented.out_degrees, oriented.in_degrees)
        _COMPS[oriented] = comps
    return comps


def _publish_native_stats() -> None:
    """Fold the last native run's telemetry into ``engine.native.*``.

    Per-thread op tallies become labelled counters
    (``engine.native.ops.t<k>``) -- deterministic for a fixed thread
    count by the static block assignment, so run-history comparisons
    on them are stable. Called only while metrics are enabled.
    """
    ns = _native.last_stats()
    if ns is None:
        return
    _metrics.inc("engine.native.runs")
    _metrics.inc("engine.native.ops", ns["ops"])
    _metrics.set_gauge("engine.native_threads", float(ns["threads"]))
    _metrics.set_gauge("engine.native_blocks", float(ns["blocks"]))
    for t, t_ops in enumerate(ns["ops_per_thread"]):
        _metrics.inc(f"engine.native.ops.t{t}", t_ops)


def run_numpy(oriented, method: str = "E1", collect: bool = True,
              use_native: bool | None = None) -> ListingResult:
    """Run one of the 18 methods on the compiled kernel.

    Returns a :class:`ListingResult` equivalent to the pure-Python
    engine's: identical triangles (as a set -- enumeration order
    differs from loop order), identical ``count``, ``ops`` and
    ``hash_inserts``; ``comparisons`` is closed-form (see module
    docstring). ``use_native`` gates the compiled kernel: ``None``
    (default) uses it when available and otherwise returns the Python
    reference's result, ``False`` always returns the Python
    reference's, ``True`` requires the kernel (``RuntimeError``
    otherwise). ``extra["engine"]`` is ``"native"`` when the kernel
    ran; the Python reference's results carry no ``engine`` key.
    """
    method = method.upper()
    spec = get_method(method)
    found = None
    if use_native is not False:
        # the kernel is method-independent: one forward pass; a collect
        # is one streamed pass, boxed in C beside the kernel (rows by
        # (z, y) then x, shared ints, no per-row list)
        found = (_native.collect_triangles(oriented) if collect
                 else _native.count_triangles(oriented))
    _metrics.set_gauge("engine.native", 0.0 if found is None else 1.0)
    if found is None:
        if use_native:
            raise RuntimeError("native engine requested but "
                               f"unavailable: {_native.status()}")
        return _run_python(oriented, method, collect)

    comps = _component_ops(oriented)
    ops = sum(comps[c] for c in spec.components)
    hash_inserts = oriented.m if spec.family in ("vertex", "lei") else 0
    comparisons = ops if spec.family in ("vertex", "lei") \
        else comps[_PROBE_COMPONENT[method]]
    if _metrics.is_enabled():
        _publish_native_stats()
    return ListingResult(
        method=method,
        count=len(found) if collect else found,
        triangles=found if collect else None,
        ops=ops,
        comparisons=comparisons,
        hash_inserts=hash_inserts,
        n=oriented.n,
        extra={"engine": "native",
               "native_threads": _native.last_stats()["threads"]},
    )
