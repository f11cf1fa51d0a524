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

import functools
import math
import threading
from dataclasses import dataclass, field

import numpy as np

from repro.core.costs import component_ops, per_node_cost_many
from repro.core.decision import resolve_speed_ratio
from repro.core.methods import METHODS
from repro.core.fastmodel import fast_cost_model_many
from repro.core.limits import limit_cost
from repro.distributions.base import (DegreeDistribution,
                                      EmpiricalDegreeDistribution)
from repro.distributions.truncation import root_truncation
from repro.engine import native
from repro.listing.api import ALL_METHODS
from repro.obs import metrics as _metrics
from repro.obs.spans import span
from repro.orientations.degenerate import (degenerate_labels,
                                           smallest_last_peel)
from repro.orientations.relabel import degree_ranking, orientation_totals
from repro.planner.candidates import (
    GRAPH_ORDERINGS,
    MODEL_ORDERINGS,
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
    #: The winner's label map (exact backend only), so the caller can
    #: orient without relabelling -- or peeling -- again.
    best_labels: np.ndarray | None = field(default=None, repr=False,
                                           compare=False)

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


@dataclass(frozen=True, eq=False)
class _Table:
    """A candidate table resolved once: one row per candidate.

    ``tie`` is each row's rank under the canonical ``(method,
    ordering)`` order, which breaks ties in predicted time. For the
    exact backend, ``thetas`` are the degree-ranked orientations'
    permutations (orientation rows ``0..T-1``), ``degenerate`` says
    whether row ``T`` is the degenerate one, ``rows`` gives each
    candidate's orientation row, and ``components`` is the
    ``(C, 3 * rows)`` 0/1 matrix that sums each candidate's terms of
    (7)-(9) out of the orientations' flattened totals.
    """

    methods: tuple
    orderings: tuple
    families: tuple
    is_sei: np.ndarray
    tie: np.ndarray
    candidates: tuple = ()
    thetas: tuple = ()
    degenerate: bool = False
    rows: tuple = ()
    components: np.ndarray | None = None


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _make_table(pairs, sort_keys, **exact) -> _Table:
    """A table of ``(method, ordering)`` pairs; ``exact`` fills the
    exact backend's fields."""
    families = tuple(METHODS[method].family for method, __ in pairs)
    tie = np.empty(len(pairs), dtype=np.int64)
    tie[sorted(range(len(pairs)), key=sort_keys.__getitem__)] = \
        np.arange(len(pairs))
    return _Table(
        methods=tuple(method for method, __ in pairs),
        orderings=tuple(ordering for __, ordering in pairs),
        families=families,
        is_sei=_frozen(np.array([f == "sei" for f in families],
                                dtype=bool)),
        tie=_frozen(tie), **exact)


def _names(methods, orderings) -> tuple[tuple, tuple]:
    """The hashable cache key of a ``(methods, orderings)`` request."""
    return (tuple(m.upper() if isinstance(m, str) else m.name
                  for m in methods),
            tuple(str(o).lower() for o in orderings))


@functools.lru_cache(maxsize=16)
def _candidate_table(methods: tuple, orderings: tuple) -> _Table:
    """The table of ``iter_candidates(methods, orderings)``, cached.

    Candidates sharing an orientation key share one orientation row;
    the degenerate row, if any, comes last.
    """
    candidates = iter_candidates(methods, orderings)
    keys: dict[str, int] = {}
    thetas = []
    for cand in candidates:
        key = cand.orientation_key()
        if cand.ordering != "degenerate" and key not in keys:
            keys[key] = len(thetas)
            thetas.append(cand.permutation())
    degenerate = any(c.ordering == "degenerate" for c in candidates)
    rows = tuple(keys.get(c.orientation_key(), len(thetas))
                 for c in candidates)
    components = np.zeros((len(candidates),
                           3 * (len(thetas) + degenerate)), dtype=np.int64)
    for i, cand in enumerate(candidates):
        for term in cand.spec.components:
            components[i, 3 * rows[i] + ("T1", "T2", "T3").index(term)] = 1
    return _make_table([(c.method, c.ordering) for c in candidates],
                       [c._sort_key() for c in candidates],
                       candidates=tuple(candidates), thetas=tuple(thetas),
                       degenerate=degenerate, rows=rows,
                       components=_frozen(components))


@functools.lru_cache(maxsize=16)
def _given_table(methods: tuple) -> _Table:
    """The methods of :func:`choose_method` under the ``given`` order."""
    return _make_table([(m, "given") for m in methods],
                       [(m,) for m in methods])


def _rank(table: _Table, costs, source: str, speed_ratio: float,
          n: int | None, meta: dict, best_labels=None) -> Plan:
    """Weight, sort, and wrap a cost surface into a :class:`Plan`.

    ``costs[i]`` is the modeled cost of ``table``'s row ``i``. When
    ``best_labels`` is given it is called with the winner's row and
    returns its label map.
    """
    costs = np.array(costs, dtype=np.float64).reshape(-1)
    costs[(costs < 0.0) & (costs > -1e-9)] = 0.0  # model float underflow
    times = np.where(table.is_sei, costs / speed_ratio, costs)
    # canonical tie-break by (method, ordering), independent of the
    # caller's candidate order -- the argmin must be reorder-stable
    order = np.lexsort((table.tie, times)).tolist()
    entries = [PlanEntry(table.methods[i], table.orderings[i],
                         table.families[i], cost, t, rank=rank)
               for rank, (i, cost, t) in enumerate(
                   zip(order, costs[order].tolist(),
                       times[order].tolist()), 1)]
    plan = Plan(entries=entries, source=source, speed_ratio=speed_ratio,
                n=n, confidence=_confidence(entries), meta=meta)
    if best_labels is not None and order:
        plan.best_labels = best_labels(order[0])
    if _metrics.is_enabled():
        _metrics.inc("planner.plans")
        _metrics.inc("planner.candidates", len(entries))
    return plan


@functools.lru_cache(maxsize=1)
def _theta_maps(table: _Table, n: int):
    """The distinct ``theta`` maps of ``table``'s orientations at ``n``.

    Returns ``(thetas, source, swapped)``: a read-only ``(D, n)`` stack
    of distinct maps and, per orientation row, the stack row that
    prices it and whether through its reverse. A ``theta`` equal to
    ``n - 1 - theta'`` reverses every edge, which by Proposition 1
    swaps ``X`` and ``Y``: its totals are ``theta'``'s with T1 and T3
    swapped. The maps depend on ``n`` alone, so consecutive plans at
    one ``n`` share them; one entry (``D * 8n`` bytes) is kept.
    """
    maps, source, swapped = [], [], []
    for permutation in table.thetas:
        theta = np.asarray(permutation.rank_to_label(n), dtype=np.int64)
        reverse = (n - 1) - theta
        # no kept map is another's reverse, so at most one matches
        for i, kept in enumerate(maps):
            same = np.array_equal(kept, theta)
            if same or np.array_equal(kept, reverse):
                source.append(i)
                swapped.append(not same)
                break
        else:
            source.append(len(maps))
            swapped.append(False)
            maps.append(theta)
    stack = np.stack(maps) if maps else np.empty((0, n), dtype=np.int64)
    return (_frozen(stack), _frozen(np.array(source, dtype=np.intp)),
            _frozen(np.array(swapped, dtype=bool)))


def _beside_peel(graph, work):
    """``(work(), smallest_last_peel(graph))``.

    With the compiled library and more than one native thread, the
    peel runs on a thread of its own while ``work`` runs on this one:
    both are ctypes calls that drop the GIL. The thread runs the C call
    alone (no spans, no metrics) and is joined before this returns, so
    no thread outlives a plan (and a fork never inherits one).
    """
    if not native.available() or native.resolve_threads() == 1:
        return work(), smallest_last_peel(graph)
    keys, degrees = graph.keys, graph.degrees
    peeled: list = []

    def peel():
        try:
            peeled.append(native.smallest_last(keys, degrees))
        except BaseException as exc:  # re-raised on the calling thread
            peeled.append(exc)

    thread = threading.Thread(target=peel, name="repro-plan-peel")
    thread.start()
    try:
        result = work()
    finally:
        thread.join()
    if isinstance(peeled[0], BaseException):
        raise peeled[0]
    return result, peeled[0]


def _per_node(ops: np.ndarray, n: int) -> np.ndarray:
    """``ops / n`` as Python's ``int / int`` rounds it (0 when n = 0)."""
    if n == 0:
        return np.zeros(ops.shape)
    if ops.size and np.abs(ops).max() >= 2 ** 53:
        # int64 -> float64 would round first; divide exactly
        return np.array([int(v) / n for v in ops.tolist()])
    return ops / n


def plan_for_graph(graph, methods=ALL_METHODS,
                   orderings=GRAPH_ORDERINGS,
                   speed_ratio: float | str | None = None) -> Plan:
    """Exact plan for a concrete graph -- the planner's oracle.

    Prices every method on the directed degrees of each orientation
    (named orderings, one OPT per ``h`` shape, degenerate) through the
    exact formulas (7)-(9), once per *distinct label map*: orientations
    with the same map, or the reversed one (Proposition 1), share one
    pricing (see :func:`_theta_maps`), and the degree-ranked maps go
    through one :func:`~repro.orientations.relabel.orientation_totals`
    call. The degenerate orientation is priced from its peel's
    deletion degrees ``X`` as ``component_ops(X, d - X)``, with the
    peel running beside that call (:func:`_beside_peel`); no listing
    runs. This ranks candidates by the paper's *operation* metric
    exactly, which is also what the regret harness uses as the ground
    truth. ``Plan.best_labels`` is the winner's label map.
    """
    speed_ratio = resolve_speed_ratio(speed_ratio)
    table = _candidate_table(*_names(methods, orderings))
    n = graph.n
    with span("planner.plan", source="exact", n=n,
              candidates=len(table.candidates)):
        thetas, source, swapped = _theta_maps(table, n)

        def price_thetas():
            maps = np.empty(thetas.shape, dtype=np.int64)
            maps[:, degree_ranking(graph.degrees)] = thetas
            return maps, orientation_totals(graph, maps)

        if table.degenerate:
            (maps, sums), (order, __, x) = _beside_peel(graph,
                                                        price_thetas)
        else:
            maps, sums = price_thetas()
        totals = sums[source]
        totals[swapped] = totals[swapped, ::-1]
        if table.degenerate:
            peeled = component_ops(x, graph.degrees - x)
            totals = np.vstack([totals, list(peeled.values())])

        def best_labels(i):
            row = table.rows[i]
            if row == len(source):
                return degenerate_labels(order)
            # a copy, so the plan does not keep every map alive
            labels = maps[source[row]]
            return (n - 1) - labels if swapped[row] else labels.copy()

        costs = _per_node(table.components @ totals.reshape(-1), n)
        return _rank(table, costs, "exact", speed_ratio, n,
                     {"m": graph.m}, best_labels)


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
    table = _candidate_table(*_names(methods, orderings))
    candidates = table.candidates
    with span("planner.plan", source="model",
              t=int(dist.support_max), candidates=len(candidates)):
        pairs = [(cand.method, cand.limit_map()) for cand in candidates]
        values = fast_cost_model_many(dist, pairs, eps=eps)
        return _rank(table, values, "model", speed_ratio, n,
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
    table = _candidate_table(*_names(methods, orderings))
    candidates = table.candidates
    with span("planner.plan", source="limit",
              candidates=len(candidates)):
        cache: dict[tuple[int, int], float] = {}
        costs = []
        for cand in candidates:
            limit_map = cand.limit_map()
            sig = (id(cand.spec.h), id(limit_map))
            if sig not in cache:
                cache[sig] = limit_cost(base_dist, cand.method,
                                        limit_map, **limit_kwargs)
            costs.append(cache[sig])
        return _rank(table, costs, "limit", speed_ratio, None,
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
    methods = tuple(m.upper() for m in methods)
    with span("planner.plan", source="oriented", n=oriented.n,
              candidates=len(methods)):
        per_method = per_node_cost_many(methods, oriented.out_degrees,
                                        oriented.in_degrees)
        return _rank(_given_table(methods),
                     [per_method[m] for m in methods], "oriented",
                     speed_ratio, oriented.n, {"m": oriented.m})


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
