"""Planner-vs-oracle regret harness.

The planner prices candidates from the *degree distribution* (the
information a query optimizer realistically has); the oracle prices the
same graph *exactly* under every admissible orientation -- including
the structure-dependent degenerate ordering the model cannot see. The
regret of a case is how much more the planner's pick actually costs
than the oracle's best:

    regret = exact_time(planner pick) / exact_time(oracle best) - 1

with both sides priced by the paper's operation counts weighted by the
section 2.4 speed ratio (``oracle_mode="ops"``, fully deterministic --
what CI gates on), or optionally by measured wall clock of real
listing runs (``oracle_mode="wall"``).

The ratio is infinite when the oracle's best costs exactly 0 (the ring:
``L1+rr`` does no work), and that stays visible in ``regret`` and
``max_regret``. Each row also carries the finite difference of the
ops-priced times, ``excess_ops_per_edge = (planner - oracle) * n / m``
(``m`` floored at 1), in either oracle mode; the summary's max and mean
of it are what stays meaningful on such cases.

The default suite sweeps the regimes of section 6.3 -- Pareto shapes
on both sides of the ``alpha = 2`` crossover and inside the
``(4/3, 3/2]`` infinite-SEI window -- plus an Erdős–Rényi control and
the adversarial edge cases (star, complete, ring) where orderings
degenerate or tie.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.distributions.pareto import DiscretePareto
from repro.distributions.sampling import sample_degree_sequence
from repro.distributions.truncation import root_truncation
from repro.graphs.generators import generate_graph
from repro.graphs.graph import Graph
from repro.listing.api import ALL_METHODS, list_triangles
from repro.obs import metrics as _metrics
from repro.obs.spans import span
from repro.orientations.relabel import orient
from repro.planner.candidates import GRAPH_ORDERINGS, Candidate
from repro.planner.plan import plan_for_degrees, plan_for_graph


@dataclass(frozen=True)
class RegretCase:
    """One named graph family instance in the regret suite."""

    label: str
    family: str                      # "pareto" | "er" | "edge"
    make: Callable[[np.random.Generator], Graph]
    meta: dict = field(default_factory=dict)


def _pareto_case(alpha: float, beta: float, n: int) -> RegretCase:
    def make(rng: np.random.Generator) -> Graph:
        dist = DiscretePareto(alpha, beta).truncate(root_truncation(n))
        return generate_graph(sample_degree_sequence(dist, n, rng), rng)
    return RegretCase(f"pareto_a{alpha:g}", "pareto", make,
                      {"alpha": alpha, "beta": beta, "n": n})


def _er_case(n: int, avg_degree: float) -> RegretCase:
    def make(rng: np.random.Generator) -> Graph:
        # G(n, m)-style: a fixed edge budget, loops/multi-edges dropped
        m = int(n * avg_degree / 2)
        pairs = rng.integers(0, n, size=(int(m * 1.5), 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        keys = (np.minimum(pairs[:, 0], pairs[:, 1]) * np.int64(n)
                + np.maximum(pairs[:, 0], pairs[:, 1]))
        __, first = np.unique(keys, return_index=True)
        return Graph.from_edge_list(pairs[np.sort(first)][:m], n=n)
    return RegretCase(f"er_d{avg_degree:g}", "er", make,
                      {"n": n, "avg_degree": avg_degree})


def _star_case(n: int) -> RegretCase:
    def make(rng: np.random.Generator) -> Graph:
        hub = np.zeros(n - 1, dtype=np.int64)
        edges = np.column_stack([hub, np.arange(1, n, dtype=np.int64)])
        return Graph.from_edge_list(edges, n=n)
    return RegretCase("star", "edge", make, {"n": n})


def _complete_case(k: int) -> RegretCase:
    def make(rng: np.random.Generator) -> Graph:
        idx = np.arange(k)
        a, b = np.meshgrid(idx, idx)
        mask = a < b
        edges = np.column_stack([a[mask], b[mask]])
        return Graph.from_edge_list(edges, n=k)
    return RegretCase("complete", "edge", make, {"n": k})


def _ring_case(n: int) -> RegretCase:
    def make(rng: np.random.Generator) -> Graph:
        idx = np.arange(n, dtype=np.int64)
        edges = np.column_stack([idx, (idx + 1) % n])
        return Graph.from_edge_list(edges, n=n)
    return RegretCase("ring", "edge", make, {"n": n})


def default_suite(n: int = 400) -> list[RegretCase]:
    """The committed CI suite (deterministic given the seed).

    Pareto shapes bracket the paper's regimes: 1.4 sits in the
    ``(4/3, 3/2]`` infinite-SEI window, 1.6/1.8 below the crossover,
    2.2/2.6 above it; one sparse Erdős–Rényi control; star, complete
    and ring stress zero-cost and all-tie rankings.
    """
    return [
        _pareto_case(1.4, 10.0, n),
        _pareto_case(1.6, 12.0, n),
        _pareto_case(1.8, 21.0, n),
        _pareto_case(2.2, 21.0, n),
        _pareto_case(2.6, 30.0, n),
        _er_case(n, 8.0),
        _star_case(max(n // 4, 8)),
        _complete_case(min(max(n // 10, 8), 40)),
        _ring_case(max(n // 4, 8)),
    ]


def _regret(actual: float, best: float) -> float:
    if best > 0.0:
        return actual / best - 1.0
    return 0.0 if actual <= 0.0 else math.inf


def _excess_ops_per_edge(actual: float, best: float, n: int,
                         m: int) -> float:
    """The planner-vs-oracle gap in ops per edge, finite where the
    regret ratio is not (a zero-cost oracle pick, an edgeless graph).

    Plan times are per-node costs, so ``(actual - best) * n`` is the
    gap in total ops; ``m`` is floored at 1.
    """
    return (actual - best) * n / max(m, 1)


def _wall_time(graph, cand: Candidate, rng) -> float:
    """Median-of-3 wall clock of one full listing run under ``cand``."""
    oriented = orient(graph, cand.permutation(), rng=rng)
    timings = []
    for _ in range(3):
        start = time.perf_counter()
        list_triangles(oriented, cand.method, collect=False)
        timings.append(time.perf_counter() - start)
    return sorted(timings)[1]


def evaluate_case(case: RegretCase, rng: np.random.Generator,
                  methods=ALL_METHODS,
                  speed_ratio: float | str | None = None,
                  oracle_mode: str = "ops") -> dict:
    """Run planner and oracle on one case; return the regret row."""
    if oracle_mode not in ("ops", "wall"):
        raise ValueError(f"oracle_mode must be 'ops' or 'wall', "
                         f"got {oracle_mode!r}")
    graph = case.make(rng)
    with span("planner.regret_case", label=case.label, n=graph.n,
              m=graph.m):
        oracle = plan_for_graph(graph, methods=methods,
                                orderings=GRAPH_ORDERINGS,
                                speed_ratio=speed_ratio)
        planner = plan_for_degrees(graph.degrees, n=graph.n,
                                   methods=methods,
                                   speed_ratio=speed_ratio)
        pick = planner.best
        # the planner's pick, priced at its *actual* exact cost on this
        # graph (the model predicted it; the oracle table knows it)
        actual = oracle.entry(pick.method, pick.ordering).predicted_time
        best = oracle.best.predicted_time
        regret = _regret(actual, best)
        excess = _excess_ops_per_edge(actual, best, graph.n, graph.m)
        if oracle_mode == "wall":
            pick_cand = Candidate(pick.method, pick.ordering)
            best_cand = Candidate(oracle.best.method,
                                  oracle.best.ordering)
            actual = _wall_time(graph, pick_cand, rng)
            best = _wall_time(graph, best_cand, rng)
            regret = _regret(actual, best)
    if _metrics.is_enabled():
        _metrics.inc("planner.regret_cases")
    if oracle_mode == "ops":
        # Audit the planner pick against the exact oracle table: the
        # realized-regret arithmetic in repro.obs.audit is this row's
        # _regret(actual, best), so audit records written here match
        # the harness definition bit-for-bit. No-op unless REPRO_AUDIT.
        from repro.obs import audit as _audit
        if _audit.is_enabled():
            _audit.record_auto_route(
                planner, "regret_case", exact_plan=oracle,
                n=graph.n, m=graph.m,
                max_degree=int(graph.degrees.max()) if graph.n else 0,
                label=case.label)
    # "agree" means the planner picked *an* optimum: the exact key, or
    # a tie (many candidates are isomorphic -- e.g. E3+ascending is
    # E1+descending read backwards -- and orderings coincide on
    # regular graphs, so key equality alone would be noise)
    agree = (pick.key == oracle.best.key
             or (math.isfinite(regret) and regret <= 1e-9))
    return {
        "label": case.label,
        "family": case.family,
        "n": int(graph.n),
        "m": int(graph.m),
        "planner": pick.key,
        "oracle": oracle.best.key,
        "planner_time": float(actual),
        "oracle_time": float(best),
        "regret": float(regret),
        "excess_ops_per_edge": float(excess),
        "agree": agree,
        "confidence": float(planner.confidence),
    }


def run_regret_suite(cases: list[RegretCase] | None = None,
                     seed: int = 0, methods=ALL_METHODS,
                     speed_ratio: float | str | None = None,
                     oracle_mode: str = "ops") -> list[dict]:
    """Evaluate every case with a per-case child seed (order-stable)."""
    if cases is None:
        cases = default_suite()
    root = np.random.SeedSequence(seed)
    rows = []
    with span("planner.regret_suite", cases=len(cases),
              oracle_mode=oracle_mode):
        for case, child in zip(cases, root.spawn(len(cases))):
            rows.append(evaluate_case(
                case, np.random.default_rng(child), methods=methods,
                speed_ratio=speed_ratio, oracle_mode=oracle_mode))
    return rows


def regret_summary(rows: list[dict]) -> dict:
    """Aggregate statistics the CI gate and the bench table report."""
    regrets = sorted(r["regret"] for r in rows)
    finite = [r for r in regrets if math.isfinite(r)]
    if not regrets:
        return {"cases": 0, "median_regret": 0.0, "max_regret": 0.0,
                "mean_regret": 0.0, "agreement": 1.0,
                "max_excess_ops_per_edge": 0.0,
                "mean_excess_ops_per_edge": 0.0}
    excess = [r["excess_ops_per_edge"] for r in rows]
    mid = len(regrets) // 2
    median = (regrets[mid] if len(regrets) % 2
              else (regrets[mid - 1] + regrets[mid]) / 2.0)
    return {
        "cases": len(rows),
        "median_regret": float(median),
        "max_regret": float(regrets[-1]),
        "mean_regret": (float(np.mean(finite)) if finite
                        else math.inf),
        "agreement": sum(r["agree"] for r in rows) / len(rows),
        "max_excess_ops_per_edge": float(max(excess)),
        "mean_excess_ops_per_edge": float(np.mean(excess)),
    }


def format_regret_table(rows: list[dict]) -> str:
    """Render regret rows as the aligned table the bench prints."""
    summary = regret_summary(rows)
    lines = [f"{'case':>12} {'n':>6} {'m':>7} {'planner':>16} "
             f"{'oracle':>16} {'regret':>8} {'agree':>6}"]
    for r in rows:
        regret = ("inf" if math.isinf(r["regret"])
                  else f"{r['regret'] * 100:.2f}%")
        lines.append(f"{r['label']:>12} {r['n']:>6} {r['m']:>7} "
                     f"{r['planner']:>16} {r['oracle']:>16} "
                     f"{regret:>8} {str(r['agree']):>6}")
    lines.append(
        f"median {summary['median_regret'] * 100:.2f}%  "
        f"max {summary['max_regret'] * 100:.2f}%  "
        f"agreement {summary['agreement'] * 100:.0f}% "
        f"max excess {summary['max_excess_ops_per_edge']:.3g} ops/edge "
        f"({summary['cases']} cases)")
    return "\n".join(lines)
