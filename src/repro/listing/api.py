"""High-level entry points for the 18 listing methods.

Two engines back every method, and each name runs what it says:

* ``"python"`` -- the instrumented pure-Python loops (the ground-truth
  reference; per-candidate ``ops``/``comparisons`` counting).
* ``"native"`` -- the compiled kernel of :mod:`repro.engine.native`
  behind :func:`repro.engine.run_numpy`, *required*: raises
  ``RuntimeError`` instead of falling back when no C toolchain is
  available or ``REPRO_NATIVE=0`` is set. Identical triangle set,
  ``count``, ``ops`` and ``hash_inserts``, orders of magnitude faster
  (see docs/PERFORMANCE.md).

The default ``engine="auto"`` is the only chooser, and it resolves
once per call: to ``"native"`` when the compiled kernel is available,
otherwise to ``"python"``.
"""

from __future__ import annotations

import time

from repro.listing.base import ListingResult, publish_result_metrics
from repro.listing.vertex_iterator import run_vertex_iterator, VERTEX_ITERATORS
from repro.listing.edge_iterator import (
    run_edge_iterator,
    SCANNING_EDGE_ITERATORS,
)
from repro.listing.lookup_iterator import (
    run_lookup_iterator,
    LOOKUP_EDGE_ITERATORS,
)
from repro.obs import metrics as _metrics
from repro.obs.spans import span

#: Every implemented listing method, grouped by family.
ALL_METHODS = (VERTEX_ITERATORS + SCANNING_EDGE_ITERATORS
               + LOOKUP_EDGE_ITERATORS)

#: Recognized values of the ``engine`` argument.
ENGINES = ("auto", "python", "native")


def _run_python(oriented, method: str, collect: bool) -> ListingResult:
    if method in VERTEX_ITERATORS:
        return run_vertex_iterator(oriented, method, collect)
    if method in SCANNING_EDGE_ITERATORS:
        return run_edge_iterator(oriented, method, collect)
    if method in LOOKUP_EDGE_ITERATORS:
        return run_lookup_iterator(oriented, method, collect)
    raise ValueError(
        f"unknown method {method!r}; choose from {ALL_METHODS}")


def list_triangles(oriented, method: str = "E1", collect: bool = True,
                   engine: str = "auto") -> ListingResult:
    """List all triangles of the oriented graph with the named method.

    ``method`` is one of ``T1``-``T6``, ``E1``-``E6``, ``L1``-``L6``,
    or ``"auto"``, which asks the cost-model planner
    (:func:`repro.planner.choose_method`) for the cheapest method on
    this orientation -- exact per-method costs weighted by the section
    2.4 speed ratio -- and runs its argmin (recorded in
    ``result.extra["auto_method"]`` alongside the planner's
    confidence). Every method enumerates each triangle exactly once
    (as labels ``x < y < z``); they differ only in traversal order and
    cost. See :class:`~repro.listing.base.ListingResult` for the
    returned counters.

    ``engine`` selects the implementation: ``"python"`` (instrumented
    reference), ``"native"`` (compiled kernel required -- raises when
    unavailable), or ``"auto"`` (the compiled kernel when available,
    otherwise python). Both report the same
    ``count``/``ops``/``hash_inserts`` and -- when collecting -- the
    same triangle set; the native enumeration *order* and the
    E-family ``comparisons`` follow the closed-form semantics
    described in :mod:`repro.engine.kernels`.

    Example::

        oriented = orient(graph, DescendingDegree())
        result = list_triangles(oriented, method="T1")
        print(result.count, result.per_node_cost)
    """
    method = method.upper()
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; choose from "
                         f"{ENGINES}")
    auto_plan = None
    if method == "AUTO":
        from repro.planner import choose_method
        auto_plan = choose_method(oriented)
        method = auto_plan.best.method
        _metrics.inc("planner.auto_routes")
        _metrics.inc(f"planner.auto.{method}")
        _metrics.set_gauge("planner.auto_confidence",
                           auto_plan.confidence)
    # Audit only wraps auto-routed calls, and only when REPRO_AUDIT is
    # on; the disabled path is the one is_enabled() check.
    from repro.obs import audit as _audit
    audit_on = auto_plan is not None and _audit.is_enabled()
    if engine == "auto":
        from repro.engine import native as _native
        engine = "native" if _native.available() else "python"
    wall_start = time.perf_counter() if audit_on else 0.0
    with span("list", method=method, n=oriented.n, engine=engine) as sp:
        if auto_plan is not None:
            sp.annotate(auto=True,
                        plan_confidence=round(auto_plan.confidence, 4))
        if engine == "python":
            result = _run_python(oriented, method, collect)
        else:
            from repro.engine import run_numpy
            result = run_numpy(oriented, method, collect, use_native=True)
        sp.annotate(ops=result.ops, triangles=result.count)
    if auto_plan is not None:
        result.extra["auto_method"] = method
        result.extra["auto_confidence"] = auto_plan.confidence
        if audit_on:
            wall = time.perf_counter() - wall_start
            degrees = oriented.out_degrees + oriented.in_degrees
            _audit.record_auto_route(
                auto_plan, "list_triangles", result=result, wall_s=wall,
                exact_plan=auto_plan, m=oriented.m,
                max_degree=int(degrees.max()) if oriented.n else 0)
    publish_result_metrics(result)
    # publish the resolved engine as a labelled counter (and not just a
    # span attribute) so run-history reports can segment cost by engine
    _metrics.inc(f"lister.engine.{engine}")
    return result


def count_triangles(oriented, method: str = "E1",
                    engine: str = "auto") -> int:
    """Count triangles without storing them (``collect=False`` run)."""
    return list_triangles(oriented, method, collect=False,
                          engine=engine).count
