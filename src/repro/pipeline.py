"""One-call convenience wrapper over the three-step framework.

For users who want the paper's recommended pipeline without assembling
the pieces: pick an ordering and a method (or let the library pick the
method's optimal ordering), run relabel + orient + list, and get the
result together with the cost diagnostics the paper's analysis is
about.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.costs import method_cost
from repro.core.decision import MethodDecision, decide_on_graph
from repro.core.optimality import optimal_map
from repro.listing.api import list_triangles
from repro.listing.base import ListingResult
from repro.orientations import NAMED_ORDERINGS
from repro.orientations.relabel import orient, orient_labels

#: The optimal named ordering per method (Corollaries 1-2).
_OPTIMAL_ORDER = {
    "ascending": ("T3", "T6", "E3", "E5", "L4", "L5"),
    "descending": ("T1", "T4", "E1", "E2", "L2", "L6"),
    "rr": ("T2", "T5", "L1", "L3"),
    "crr": ("E4", "E6"),
}


def optimal_order_for(method: str) -> str:
    """The Corollary 1-2 ordering name for a method."""
    method = method.upper()
    for order, methods in _OPTIMAL_ORDER.items():
        if method in methods:
            return order
    raise ValueError(f"unknown method {method!r}")


@dataclass
class PipelineReport:
    """Everything one pipeline run produced."""

    result: ListingResult
    order: str
    per_node_cost: float
    decision: MethodDecision

    @property
    def triangles(self):
        return self.result.triangles

    @property
    def count(self) -> int:
        return self.result.count


def _permutation(method: str, order: str):
    """The relabeling permutation ``order`` names for ``method``."""
    if order == "opt":
        from repro.planner import Candidate
        return Candidate(method, "opt").permutation()
    if order in NAMED_ORDERINGS:
        return NAMED_ORDERINGS[order]()
    raise ValueError(
        f"unknown order {order!r}; choose from "
        f"{sorted([*NAMED_ORDERINGS, 'opt'])}")


def run_pipeline(graph, method: str = "E1", order: str | None = None,
                 rng: np.random.Generator | None = None,
                 collect: bool = True) -> PipelineReport:
    """Relabel, orient, and list in one call.

    ``order`` is one of ``ascending``/``descending``/``rr``/``crr``/
    ``uniform``/``degenerate``; omitted, the method's optimal ordering
    (Corollaries 1-2) is chosen automatically. ``method="auto"`` asks
    the cost-model planner (:func:`repro.planner.plan_for_graph`) for
    the cheapest (method, ordering) pair on this graph and runs it
    (``order``, when also given, constrains the planner's candidates
    to that ordering), orienting with the label map the plan already
    made (:attr:`~repro.planner.plan.Plan.best_labels`), so nothing is
    relabelled or peeled twice. The report carries the measured
    per-node cost and the section 2.4 hardware decision for the
    oriented graph.

    Example::

        report = run_pipeline(graph, method="T1")
        print(report.count, report.order, report.per_node_cost)
    """
    method = method.upper()
    audit_plan = labels = None
    if method == "AUTO":
        from repro.planner import GRAPH_ORDERINGS, plan_for_graph
        orderings = (order,) if order else GRAPH_ORDERINGS
        plan = plan_for_graph(graph, orderings=orderings)
        method = plan.best.method
        order = plan.best.ordering
        labels = plan.best_labels
        audit_plan = plan
    from repro.obs import audit as _audit
    audit_on = audit_plan is not None and _audit.is_enabled()
    if order is None:
        order = optimal_order_for(method)
    if audit_on:
        import time
        wall_start = time.perf_counter()
    if labels is None:
        permutation = _permutation(method, order)
        if permutation.is_random and rng is None:
            rng = np.random.default_rng()
        oriented = orient(graph, permutation, rng=rng)
    else:
        oriented = orient_labels(graph, labels)
    result = list_triangles(oriented, method, collect=collect)
    if audit_on:
        wall = time.perf_counter() - wall_start
        _audit.record_auto_route(
            audit_plan, "run_pipeline", result=result, wall_s=wall,
            exact_plan=audit_plan,
            max_degree=int(graph.degrees.max()) if graph.n else 0)
    return PipelineReport(
        result=result,
        order=order,
        per_node_cost=method_cost(oriented, method),
        decision=decide_on_graph(oriented),
    )
