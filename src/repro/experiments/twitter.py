"""Section 7.5 case study on a synthetic Twitter stand-in.

The paper computes total CPU operations ``n c_n(M, theta_n)`` on the
Twitter follower graph [27] (41M nodes, 1.2B edges) for the four
fundamental methods under six orientations (Table 12). The raw graph is
9.3 GB and unavailable offline, so :func:`twitter_like_graph` generates
a discrete-Pareto graph whose degree law has the same qualitative shape
(heavy tail, ``E[D]`` tens of edges). Every claim the paper draws from
Table 12 is *relative* -- which permutation wins per method, worst/best
ratios, ``E1(theta_D) ~ 2 x T2(theta_RR)`` -- and those are functions of
the degree distribution, not of scale, so the study's shape carries
over (see DESIGN.md for the substitution rationale).
"""

from __future__ import annotations

import numpy as np

from repro.core.costs import total_cost
from repro.obs.spans import span
from repro.distributions.pareto import DiscretePareto
from repro.distributions.sampling import sample_degree_sequence
from repro.graphs.generators import generate_graph
from repro.orientations import NAMED_ORDERINGS
from repro.orientations.relabel import orient

#: The Table 12 column order.
PERMUTATION_ORDER = ("descending", "ascending", "rr", "crr", "uniform",
                     "degenerate")


def twitter_like_graph(n: int = 50_000, alpha: float = 1.7,
                       rng: np.random.Generator | None = None):
    """A heavy-tailed stand-in for the Twitter graph at tractable scale.

    Discrete Pareto with the paper's ``beta = 30 (alpha - 1)``
    parameterization (``E[D] ~ 30.5``, matching Twitter's mean degree of
    ``2m/n ~ 58`` within a small factor) and linear truncation.
    """
    if rng is None:
        rng = np.random.default_rng(2017)
    dist = DiscretePareto.paper_parameterization(alpha).truncate(n - 1)
    degrees = sample_degree_sequence(dist, n, rng)
    return generate_graph(degrees, rng)


def cost_matrix(graph, methods=("T1", "T2", "E1", "E4"),
                permutations=PERMUTATION_ORDER,
                rng: np.random.Generator | None = None) -> np.ndarray:
    """Total CPU operations ``n c_n(M, theta)`` per (method, permutation).

    Each permutation is applied once (orientations are deterministic
    given the tie-break; ``uniform`` uses ``rng``), then all methods are
    costed from the same oriented degrees -- exactly how Table 12 was
    produced. Tie-breaking is stable so that the exact symmetries the
    paper relies on (e.g. T2 identical under ascending/descending) hold
    to the last operation.
    """
    if rng is None:
        rng = np.random.default_rng(7)
    matrix = np.empty((len(methods), len(permutations)), dtype=float)
    for col, perm_name in enumerate(permutations):
        perm = NAMED_ORDERINGS[perm_name]()
        oriented = orient(graph, perm, rng=rng, tie_break="stable")
        for row, method in enumerate(methods):
            with span("list", method=method, permutation=perm_name):
                matrix[row, col] = total_cost(method,
                                              oriented.out_degrees,
                                              oriented.in_degrees)
    return matrix


def analyze_cost_matrix(matrix: np.ndarray,
                        methods=("T1", "T2", "E1", "E4"),
                        permutations=PERMUTATION_ORDER) -> dict:
    """Table 12's qualitative readouts, for assertions and reports.

    Returns per-method best/worst permutations and ratios, plus the
    paper's two cross-method observations: ``E1(theta_D) / T2(theta_RR)``
    (about 2) and ``E4(best) / E1(theta_D)`` (three-digit).
    """
    methods = list(methods)
    permutations = list(permutations)
    report: dict = {"per_method": {}}
    for i, m in enumerate(methods):
        row = matrix[i]
        considered = [p for p in permutations if p != "degenerate"]
        idx = [permutations.index(p) for p in considered]
        sub = row[idx]
        best = considered[int(np.argmin(sub))]
        worst = considered[int(np.argmax(sub))]
        report["per_method"][m] = {
            "best": best,
            "worst": worst,
            "worst_over_best": float(np.max(sub) / np.min(sub)),
        }
    def cell(method, perm):
        return matrix[methods.index(method), permutations.index(perm)]
    if "E1" in methods and "T2" in methods:
        report["e1_desc_over_t2_rr"] = float(
            cell("E1", "descending") / cell("T2", "rr"))
    if "E4" in methods and "E1" in methods:
        e4_best = float(np.min(matrix[methods.index("E4")]))
        report["e4_best_over_e1_desc"] = float(
            e4_best / cell("E1", "descending"))
    return report
