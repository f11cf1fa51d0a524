"""The SEI-vs-hash decision rule of section 2.4.

Scanning edge iterators execute up to 95x faster per operation on SIMD
hardware (Table 3) but perform more operations (Table 1). Defining
``w_n`` as the ratio of the *lowest* SEI cost to the lowest cost among
the hash-based families (vertex iterators and LEI), the paper's rule is

    SEI has the better runtime  iff  ``w_n < speed_ratio``

with ``speed_ratio ~ 95`` on the authors' Intel CPUs. Both quantities
depend on the concrete graph (or at least its degree distribution); the
single exception is ``n -> inf`` with ``w_n -> inf`` -- Pareto
``alpha in (4/3, 1.5]`` -- where SEI always loses because its best cost
diverges while T1's stays finite (section 6.3).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from repro.core.costs import (cost_t1, cost_t2, cost_t3, per_node_cost,
                              per_node_cost_from_ops)
from repro.core.limits import limit_cost
from repro.distributions.base import DegreeDistribution

#: Table 3's measured speed ratio on the authors' hardware.
PAPER_SPEED_RATIO = 1801.0 / 19.0

#: Environment knob overriding the default speed ratio per host.
SPEED_RATIO_ENV = "REPRO_SPEED_RATIO"


def resolve_speed_ratio(speed_ratio: float | str | None = None) -> float:
    """Resolve a ``speed_ratio`` argument to a positive float.

    The paper's 94.8x is a property of the *authors'* hardware; on a
    different host (or a pure-Python runtime with no SIMD scanning
    advantage at all) the ratio differs, which shifts the section 2.4
    decision boundary. Resolution order:

    * a number -- used as-is;
    * ``"paper"`` -- :data:`PAPER_SPEED_RATIO`;
    * ``"calibrated"`` -- this host's ratio via
      :func:`repro.engine.benchmark.calibrated_speed_ratio`: the
      rolling calibration store's fresh host-matching history when it
      has one, else measured once per process (never written back);
    * ``None`` (the default everywhere) -- the ``REPRO_SPEED_RATIO``
      environment variable when set, else :data:`PAPER_SPEED_RATIO`.
    """
    if speed_ratio is None:
        raw = os.environ.get(SPEED_RATIO_ENV, "").strip()
        if not raw:
            return PAPER_SPEED_RATIO
        speed_ratio = raw
    if isinstance(speed_ratio, str):
        name = speed_ratio.strip().lower()
        if name == "paper":
            return PAPER_SPEED_RATIO
        if name in ("calibrated", "auto"):
            from repro.engine.benchmark import calibrated_speed_ratio
            return calibrated_speed_ratio()
        try:
            speed_ratio = float(name)
        except ValueError:
            raise ValueError(
                f"speed_ratio must be a positive number, 'paper', or "
                f"'calibrated'; got {speed_ratio!r}") from None
    value = float(speed_ratio)
    if not math.isfinite(value) or value <= 0.0:
        raise ValueError(
            f"speed_ratio must be positive and finite, got {value}")
    return value


@dataclass(frozen=True)
class MethodDecision:
    """Outcome of the section 2.4 decision rule."""

    best_hash_method: str
    best_hash_cost: float
    best_sei_method: str
    best_sei_cost: float
    cost_ratio: float           # w_n = best SEI / best hash
    speed_ratio: float
    winner: str                 # "SEI" or "hash"

    @property
    def sei_wins(self) -> bool:
        return self.winner == "SEI"


def cost_ratio_w(oriented) -> float:
    """``w_n``: best SEI cost over best hash-family cost on a graph.

    The best hash-based option under an optimal-per-method orientation
    would compare costs across orientations; here, as in the paper's
    per-graph discussion, the ratio is taken on the *given* oriented
    graph: hash best = min over T1/T2/T3 (LEI matches these), SEI best
    = min over E1/E4 (the two non-isomorphic SEI classes).
    """
    hash_best = min(per_node_cost(m, oriented.out_degrees,
                                  oriented.in_degrees)
                    for m in ("T1", "T2", "T3"))
    sei_best = min(per_node_cost(m, oriented.out_degrees,
                                 oriented.in_degrees)
                   for m in ("E1", "E4"))
    if hash_best == 0.0:
        return math.inf if sei_best > 0 else 1.0
    return sei_best / hash_best


def decide_on_graph(oriented,
                    speed_ratio: float | str | None = None
                    ) -> MethodDecision:
    """Apply the decision rule to a concrete oriented graph.

    ``speed_ratio`` accepts anything :func:`resolve_speed_ratio` does;
    by default the paper's 94.8 (or the ``REPRO_SPEED_RATIO``
    override), while ``"calibrated"`` measures this host once.
    """
    speed_ratio = resolve_speed_ratio(speed_ratio)
    x, y = oriented.out_degrees, oriented.in_degrees
    # each base cost once; per method summed in total_cost's order, so
    # every value equals per_node_cost(m, x, y) bit for bit
    costs = per_node_cost_from_ops(
        ("T1", "T2", "T3", "E1", "E4"),
        {"T1": cost_t1(x), "T2": cost_t2(x, y), "T3": cost_t3(y)},
        oriented.n)
    hash_costs = {m: costs[m] for m in ("T1", "T2", "T3")}
    sei_costs = {m: costs[m] for m in ("E1", "E4")}
    best_hash = min(hash_costs, key=hash_costs.get)
    best_sei = min(sei_costs, key=sei_costs.get)
    hash_cost = hash_costs[best_hash]
    sei_cost = sei_costs[best_sei]
    ratio = sei_cost / hash_cost if hash_cost else math.inf
    winner = "SEI" if ratio < speed_ratio else "hash"
    return MethodDecision(best_hash, hash_cost, best_sei, sei_cost,
                          ratio, speed_ratio, winner)


def decide_in_limit(base_dist: DegreeDistribution,
                    speed_ratio: float | str | None = None,
                    **limit_kwargs) -> MethodDecision:
    """Apply the rule at ``n -> inf`` under optimal orientations.

    Best hash option: T1 under descending (eq. 44). Best SEI option:
    E1 under descending (eq. 45). When E1's limit is infinite and T1's
    finite -- Pareto ``alpha in (4/3, 1.5]`` -- the ratio is infinite
    and T1 wins "no matter how these algorithms are implemented".
    """
    speed_ratio = resolve_speed_ratio(speed_ratio)
    limit_kwargs.setdefault("eps", 1e-4)
    t1 = limit_cost(base_dist, "T1", "descending", **limit_kwargs)
    e1 = limit_cost(base_dist, "E1", "descending", **limit_kwargs)
    if math.isinf(e1) and math.isfinite(t1):
        ratio = math.inf
    elif math.isinf(t1) and math.isinf(e1):
        ratio = float("nan")  # both diverge: compare growth rates instead
    else:
        ratio = e1 / t1
    winner = "SEI" if ratio < speed_ratio else "hash"
    return MethodDecision("T1", t1, "E1", e1, ratio, speed_ratio, winner)
