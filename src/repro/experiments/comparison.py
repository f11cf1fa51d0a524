"""Which method should I run on *this* graph?

The paper's practical bottom line (sections 2.4 and 6.3): the answer
depends on the graph's degree structure and the hardware's
hash-vs-scan speed ratio. This harness makes the recommendation for a
concrete graph: cost every fundamental method under its optimal
orientation, time the actual implementations, and report both rankings
side by side with the decision-rule verdict.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.costs import method_cost
from repro.core.decision import PAPER_SPEED_RATIO
from repro.listing.api import list_triangles
from repro.orientations import NAMED_ORDERINGS
from repro.pipeline import optimal_order_for


@dataclass(frozen=True)
class MethodProfile:
    """One method's showing on a concrete graph."""

    method: str
    order: str
    per_node_cost: float
    seconds: float
    triangles: int

    @property
    def ops_per_second(self) -> float:
        """Measured operation throughput of this implementation."""
        if self.seconds <= 0:
            return float("inf")
        return self.per_node_cost / self.seconds  # per node per sec


def compare_methods(graph, methods=("T1", "T2", "E1", "E4"),
                    rng: np.random.Generator | None = None,
                    time_runs: bool = True) -> list[MethodProfile]:
    """Profile each method under its Corollary-1/2 optimal ordering.

    Returns profiles sorted by operation cost (the hardware-independent
    ranking); wall-clock seconds add the implementation-dependent view.
    With ``time_runs=False`` the listers are skipped and only the
    degree-based costs are reported (fast path for big graphs).
    """
    from repro.orientations.relabel import orient
    if rng is None:
        rng = np.random.default_rng(0)
    profiles = []
    oriented_cache: dict[str, object] = {}
    for method in methods:
        order = optimal_order_for(method)
        oriented = oriented_cache.get(order)
        if oriented is None:
            oriented = orient(graph, NAMED_ORDERINGS[order](), rng=rng)
            oriented_cache[order] = oriented
        cost = method_cost(oriented, method)
        seconds = 0.0
        count = -1
        if time_runs:
            start = time.perf_counter()
            result = list_triangles(oriented, method, collect=False)
            seconds = time.perf_counter() - start
            count = result.count
        profiles.append(MethodProfile(method, order, cost, seconds,
                                      count))
    return sorted(profiles, key=lambda p: p.per_node_cost)


def format_comparison(profiles,
                      speed_ratio: float = PAPER_SPEED_RATIO) -> str:
    """Human-readable ranking plus the section 2.4 verdict."""
    lines = [f"{'method':>7} {'order':>11} {'c_n':>10} {'seconds':>9} "
             f"{'triangles':>10}"]
    for p in profiles:
        secs = f"{p.seconds:.3f}" if p.seconds else "--"
        tri = str(p.triangles) if p.triangles >= 0 else "--"
        lines.append(f"{p.method:>7} {p.order:>11} "
                     f"{p.per_node_cost:>10.2f} {secs:>9} {tri:>10}")
    by_name = {p.method: p for p in profiles}
    if "T1" in by_name and "E1" in by_name and by_name["T1"].per_node_cost:
        w = by_name["E1"].per_node_cost / by_name["T1"].per_node_cost
        winner = "SEI (E1)" if w < speed_ratio else "hash (T1)"
        lines.append(
            f"\nw = c(E1)/c(T1) = {w:.2f} vs speed ratio "
            f"{speed_ratio:.1f} => on SIMD-class hardware: {winner}")
    return "\n".join(lines)
