"""Rank every candidate and route to the argmin.

The paper's §2.4 message is that the cheapest (method, ordering) pair
is predictable from the degree distribution alone. This module turns
that into a planner: price every candidate of
:mod:`repro.planner.candidates` with one of four backends --

* ``exact``  -- a concrete graph, relabeled under each ordering and
  priced through the exact cost formulas (7)-(9);
* ``model``  -- a (truncated) degree law through Algorithm 2
  (:func:`repro.core.fastmodel.fast_cost_model_many`);
* ``sketch`` -- a uniformly sampled degree sketch of a graph, fitted
  to an empirical law and priced like ``model``;
* ``limit``  -- the ``n -> inf`` limit costs (Theorem 2), where the
  §6.3 finiteness regimes decide (infinite SEI costs rank last);

-- then convert modeled *operation counts* into *time units* with the
§2.4 speed-ratio correction (one hash op = 1 unit, one SEI op =
``1/speed_ratio`` units, Table 3) and rank. The argmin is what
``list_triangles(..., method="auto")`` and ``repro plan`` execute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.costs import per_node_cost_from_ops, per_node_cost_many
from repro.core.decision import resolve_speed_ratio
from repro.core.fastmodel import fast_cost_model_many
from repro.core.limits import limit_cost
from repro.distributions.base import (DegreeDistribution,
                                      EmpiricalDegreeDistribution)
from repro.distributions.truncation import root_truncation
from repro.listing.api import ALL_METHODS
from repro.obs import metrics as _metrics
from repro.obs.spans import span
from repro.orientations.relabel import degree_ranking, orientation_totals
from repro.planner.candidates import (
    GRAPH_ORDERINGS,
    MODEL_ORDERINGS,
    Candidate,
    iter_candidates,
)

#: Relative margin below which two predicted times count as a tie.
_TIE_RTOL = 1e-9


@dataclass(frozen=True)
class PlanEntry:
    """One ranked candidate: predicted ops and speed-corrected time."""

    method: str
    ordering: str
    family: str
    predicted_cost: float   # modeled per-node operation count c_n
    predicted_time: float   # cost x family op-weight (hash-op units)
    rank: int

    @property
    def key(self) -> str:
        return f"{self.method}+{self.ordering}"

    @property
    def is_sei(self) -> bool:
        return self.family == "sei"


@dataclass
class Plan:
    """A ranked candidate table with the argmin up front.

    ``entries`` are sorted by speed-corrected predicted time
    (deterministic canonical tie-break, so the ranking is invariant
    under any reordering of the input candidate list). ``confidence``
    is the relative margin between the winner and the best *strictly
    worse* candidate: 0 means a dead heat (or an empty cost surface),
    values near 1 mean the winner dominates.
    """

    entries: list[PlanEntry]
    source: str               # "exact" | "model" | "sketch" | "limit"
    speed_ratio: float
    n: int | None = None
    confidence: float = 0.0
    meta: dict = field(default_factory=dict)

    @property
    def best(self) -> PlanEntry:
        if not self.entries:
            raise ValueError("empty plan")
        return self.entries[0]

    @property
    def winner(self) -> str:
        return self.best.key

    def entry(self, method: str, ordering: str) -> PlanEntry:
        """Look up one candidate's entry (KeyError when absent)."""
        key = f"{method.upper()}+{str(ordering).lower()}"
        for entry in self.entries:
            if entry.key == key:
                return entry
        raise KeyError(f"candidate {key!r} not in plan")

    def to_rows(self) -> list[dict]:
        """JSON-ready rows (run records, ``repro plan --json``)."""
        return [{"rank": e.rank, "method": e.method,
                 "ordering": e.ordering, "family": e.family,
                 "cost": e.predicted_cost, "time": e.predicted_time}
                for e in self.entries]


def _confidence(entries: list[PlanEntry]) -> float:
    """Margin between the winner and the best strictly-worse entry.

    0 for a dead heat (or an infinite/empty cost surface); 1 when the
    only alternatives are infinitely worse.
    """
    if not entries or not math.isfinite(entries[0].predicted_time):
        return 0.0
    best = entries[0].predicted_time
    for entry in entries[1:]:
        if entry.predicted_time > best * (1.0 + _TIE_RTOL):
            if math.isinf(entry.predicted_time):
                return 1.0
            if entry.predicted_time > 0.0:
                return 1.0 - best / entry.predicted_time
            break
    return 0.0


def _rank(costs: dict[Candidate, float], source: str,
          speed_ratio: float, n: int | None, meta: dict) -> Plan:
    """Weight, sort, and wrap a cost surface into a :class:`Plan`."""
    weighted = []
    for cand in costs:
        cost = float(costs[cand])
        if cost < 0.0 and cost > -1e-9:
            cost = 0.0  # guard float underflow in the model
        time_units = (cost / speed_ratio if cand.is_sei else cost)
        weighted.append((cand, cost, time_units))
    # canonical tie-break by (method, ordering), independent of the
    # caller's candidate order -- the argmin must be reorder-stable
    weighted.sort(key=lambda w: (w[2], w[0]._sort_key()))
    entries = [PlanEntry(c.method, c.ordering, c.family, cost, t,
                         rank=i + 1)
               for i, (c, cost, t) in enumerate(weighted)]
    plan = Plan(entries=entries, source=source, speed_ratio=speed_ratio,
                n=n, confidence=_confidence(entries), meta=meta)
    if _metrics.is_enabled():
        _metrics.inc("planner.plans")
        _metrics.inc("planner.candidates", len(entries))
    return plan


def _orientation_totals(graph, by_orientation: dict[str, list[Candidate]]
                        ) -> dict[str, dict[str, int]]:
    """The totals of (7)-(9) per orientation key, one pass per label map.

    Degree-ranked orientations share one stable degree ranking, so two
    keys with equal ``theta`` have equal labels and equal totals. A
    ``theta`` equal to ``n - 1 - theta'`` reverses every edge, which by
    Proposition 1 swaps ``X`` and ``Y``: its totals are ``theta'``'s
    with T1 and T3 swapped. Only the remaining distinct maps (and the
    degenerate one, which has no ``theta``) are priced, in one
    :func:`~repro.orientations.relabel.orientation_totals` call.
    """
    n = graph.n
    ranking = degree_ranking(graph.degrees)
    priced: dict[bytes, int] = {}
    slots: dict[str, tuple[int, bool]] = {}   # key -> (row, reversed)
    maps: list[np.ndarray] = []
    for key, group in by_orientation.items():
        permutation = group[0].permutation()
        if group[0].ordering == "degenerate":
            labels = permutation.labels_for(graph)
        else:
            theta = permutation.rank_to_label(n)
            token = theta.tobytes()
            if token in priced:
                slots[key] = (priced[token], False)
                continue
            reverse = ((n - 1) - theta).tobytes()
            if reverse in priced:
                slots[key] = (priced[reverse], True)
                continue
            priced[token] = len(maps)
            labels = np.empty(n, dtype=np.int64)
            labels[ranking] = theta
        slots[key] = (len(maps), False)
        maps.append(labels)
    sums = orientation_totals(graph, np.stack(maps)) if maps else []
    totals = {}
    for key, (row, swapped) in slots.items():
        t1, t2, t3 = (int(v) for v in sums[row])
        if swapped:
            t1, t3 = t3, t1
        totals[key] = {"T1": t1, "T2": t2, "T3": t3}
    return totals


def plan_for_graph(graph, methods=ALL_METHODS,
                   orderings=GRAPH_ORDERINGS,
                   speed_ratio: float | str | None = None) -> Plan:
    """Exact plan for a concrete graph -- the planner's oracle.

    Prices every method on the directed degrees of each orientation
    (named orderings, one OPT per ``h`` shape, degenerate) through the
    exact formulas (7)-(9), once per *distinct label map*: orientations
    with the same map, or the reversed one (Proposition 1), share one
    pricing (see :func:`_orientation_totals`); no listing runs. This
    ranks candidates by the paper's *operation* metric exactly, which
    is also what the regret harness uses as the ground truth.
    """
    speed_ratio = resolve_speed_ratio(speed_ratio)
    candidates = iter_candidates(methods, orderings)
    with span("planner.plan", source="exact", n=graph.n,
              candidates=len(candidates)):
        by_orientation: dict[str, list[Candidate]] = {}
        for cand in candidates:
            by_orientation.setdefault(cand.orientation_key(),
                                      []).append(cand)
        totals = _orientation_totals(graph, by_orientation)
        costs: dict[Candidate, float] = {}
        for key, group in by_orientation.items():
            per_method = per_node_cost_from_ops(
                sorted({c.method for c in group}), totals[key], graph.n)
            for cand in group:
                costs[cand] = per_method[cand.method]
        return _rank(costs, "exact", speed_ratio, graph.n,
                     {"m": graph.m})


def plan_for_distribution(dist: DegreeDistribution, n: int | None = None,
                          methods=ALL_METHODS,
                          orderings=MODEL_ORDERINGS,
                          speed_ratio: float | str | None = None,
                          eps: float = 1e-5) -> Plan:
    """Model plan for a degree law (Algorithm 2 per candidate).

    ``dist`` must be truncated (finite support); an untruncated law is
    truncated at ``root_truncation(n)`` when ``n`` is given. The
    degenerate ordering is structure-dependent and cannot appear here
    (see :meth:`Candidate.limit_map`); request an exact plan instead.
    """
    speed_ratio = resolve_speed_ratio(speed_ratio)
    if not math.isfinite(dist.support_max):
        if n is None:
            raise ValueError(
                "untruncated distribution: pass n (truncates at "
                "root_truncation(n)) or truncate it first")
        dist = dist.truncate(root_truncation(n))
    candidates = iter_candidates(methods, orderings)
    with span("planner.plan", source="model",
              t=int(dist.support_max), candidates=len(candidates)):
        pairs = [(cand.method, cand.limit_map()) for cand in candidates]
        values = fast_cost_model_many(dist, pairs, eps=eps)
        costs = dict(zip(candidates, values))
        return _rank(costs, "model", speed_ratio, n,
                     {"support_max": dist.support_max, "eps": eps})


def plan_for_degrees(degrees, n: int | None = None,
                     methods=ALL_METHODS, orderings=MODEL_ORDERINGS,
                     speed_ratio: float | str | None = None,
                     eps: float = 1e-5) -> Plan:
    """Model plan from an observed degree sequence (§7.5 workflow).

    Fits :class:`EmpiricalDegreeDistribution` to the positive degrees
    and delegates to :func:`plan_for_distribution`. The plan is
    invariant under any permutation of ``degrees`` (only the histogram
    enters the model).
    """
    degrees = np.asarray(degrees, dtype=np.int64)
    positive = degrees[degrees > 0]
    if positive.size == 0:
        raise ValueError("no positive degrees; nothing to plan")
    dist = EmpiricalDegreeDistribution(positive)
    plan = plan_for_distribution(dist, n=n, methods=methods,
                                 orderings=orderings,
                                 speed_ratio=speed_ratio, eps=eps)
    plan.meta["degrees"] = int(positive.size)
    return plan


def sketch_degrees(graph, sample_size: int,
                   rng: np.random.Generator) -> np.ndarray:
    """A uniform without-replacement degree sample of the graph.

    ``sample_size >= n`` degenerates to the full (positive) degree
    sequence, so sketch-based plans converge to the exact-degree plan
    as the sample grows -- a property the test suite pins.
    """
    degrees = graph.degrees[graph.degrees > 0]
    if degrees.size == 0:
        raise ValueError("no positive degrees to sketch")
    if sample_size <= 0:
        raise ValueError(f"sample_size must be positive, got {sample_size}")
    if sample_size >= degrees.size:
        return degrees.copy()
    return rng.choice(degrees, size=sample_size, replace=False)


def plan_for_sketch(graph, sample_size: int, rng: np.random.Generator,
                    methods=ALL_METHODS, orderings=MODEL_ORDERINGS,
                    speed_ratio: float | str | None = None,
                    eps: float = 1e-5) -> Plan:
    """Model plan from a sampled degree sketch of ``graph``.

    The cheap mode for graphs too large to histogram: ``sample_size``
    uniformly sampled degrees stand in for the full sequence.
    """
    sample = sketch_degrees(graph, sample_size, rng)
    plan = plan_for_degrees(sample, n=graph.n, methods=methods,
                            orderings=orderings,
                            speed_ratio=speed_ratio, eps=eps)
    plan.source = "sketch"
    plan.meta["sample_size"] = int(sample.size)
    return plan


def plan_in_limit(base_dist: DegreeDistribution,
                  methods=("T1", "T2", "E1", "E4"),
                  orderings=MODEL_ORDERINGS,
                  speed_ratio: float | str | None = None,
                  **limit_kwargs) -> Plan:
    """Asymptotic plan: rank candidates by their ``n -> inf`` limits.

    In the §6.3 regimes where a family's limit diverges (e.g. every
    SEI candidate for Pareto ``alpha in (4/3, 1.5]``) the infinite
    entries rank last no matter the speed ratio -- reproducing the
    paper's "no matter how these algorithms are implemented" call.
    Defaults to the four fundamental methods; limit evaluations are
    cached per ``(h, map)`` signature, so the full 18-method table
    costs no more than the distinct-shape one.
    """
    speed_ratio = resolve_speed_ratio(speed_ratio)
    limit_kwargs.setdefault("eps", 1e-4)
    candidates = iter_candidates(methods, orderings)
    with span("planner.plan", source="limit",
              candidates=len(candidates)):
        cache: dict[tuple[int, int], float] = {}
        costs: dict[Candidate, float] = {}
        for cand in candidates:
            limit_map = cand.limit_map()
            sig = (id(cand.spec.h), id(limit_map))
            if sig not in cache:
                cache[sig] = limit_cost(base_dist, cand.method,
                                        limit_map, **limit_kwargs)
            costs[cand] = cache[sig]
        return _rank(costs, "limit", speed_ratio, None,
                     {"limit_kwargs": dict(limit_kwargs)})


def choose_method(oriented, methods=ALL_METHODS,
                  speed_ratio: float | str | None = None) -> Plan:
    """Rank the methods on an *already oriented* graph.

    The ordering is fixed by the given orientation, so the candidate
    axis collapses to the 18 methods: exact per-method costs from the
    directed degrees, speed-ratio weighted. This is the
    ``method="auto"`` backend of
    :func:`repro.listing.api.list_triangles`.
    """
    speed_ratio = resolve_speed_ratio(speed_ratio)
    methods = [m.upper() for m in methods]
    with span("planner.plan", source="oriented", n=oriented.n,
              candidates=len(methods)):
        per_method = per_node_cost_many(methods, oriented.out_degrees,
                                        oriented.in_degrees)
        from repro.core.methods import METHODS as _METHODS
        weighted = sorted(
            ((per_method[m] / speed_ratio
              if _METHODS[m].family == "sei" else per_method[m]),
             m) for m in methods)
        entries = [PlanEntry(m, "given", _METHODS[m].family,
                             per_method[m], t, rank=i + 1)
                   for i, (t, m) in enumerate(weighted)]
        plan = Plan(entries=entries, source="oriented",
                    speed_ratio=speed_ratio, n=oriented.n,
                    confidence=_confidence(entries),
                    meta={"m": oriented.m})
        if _metrics.is_enabled():
            _metrics.inc("planner.plans")
            _metrics.inc("planner.candidates", len(entries))
        return plan


def format_plan(plan: Plan, top: int | None = 10) -> str:
    """Render a plan as the aligned table ``repro plan`` prints."""
    shown = plan.entries if top is None else plan.entries[:top]
    lines = [f"plan ({plan.source} backend, speed ratio "
             f"{plan.speed_ratio:.1f}x, {len(plan.entries)} "
             f"candidate(s), confidence {plan.confidence:.2f})",
             f"{'rank':>4} {'method':>7} {'ordering':>11} "
             f"{'family':>7} {'model c_n':>12} {'time units':>12}"]
    for e in shown:
        cost = "inf" if math.isinf(e.predicted_cost) \
            else f"{e.predicted_cost:.4g}"
        t = "inf" if math.isinf(e.predicted_time) \
            else f"{e.predicted_time:.4g}"
        lines.append(f"{e.rank:>4} {e.method:>7} {e.ordering:>11} "
                     f"{e.family:>7} {cost:>12} {t:>12}")
    if top is not None and len(plan.entries) > top:
        lines.append(f"  ... {len(plan.entries) - top} more")
    return "\n".join(lines)
