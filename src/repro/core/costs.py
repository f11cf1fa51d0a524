"""Exact per-node cost ``c_n(M, theta)`` from directed degrees.

Eqs. (7)-(9) express vertex-iterator cost purely through the oriented
degrees ``X_i`` (out) and ``Y_i`` (in):

* ``c_n(T1) = (1/n) sum X_i (X_i - 1) / 2``
* ``c_n(T2) = (1/n) sum X_i Y_i``
* ``c_n(T3) = (1/n) sum Y_i (Y_i - 1) / 2``

and Proposition 2 (+ Table 1/2) decomposes every SEI/LEI cost into sums
of these. This module evaluates them exactly, which is how the
simulation harness measures cost without running a lister (the listers'
instrumented ``ops`` equal these formulas -- a property the test suite
checks on random graphs).
"""

from __future__ import annotations

import numpy as np

from repro.core.methods import get_method


def cost_t1(out_degrees) -> float:
    """Total T1 ops: ``sum X (X - 1) / 2`` (candidate out-out pairs)."""
    x = np.asarray(out_degrees, dtype=np.float64)
    return float(np.sum(x * (x - 1.0)) / 2.0)


def cost_t2(out_degrees, in_degrees) -> float:
    """Total T2 ops: ``sum X Y`` (in-out candidate pairs)."""
    x = np.asarray(out_degrees, dtype=np.float64)
    y = np.asarray(in_degrees, dtype=np.float64)
    return float(np.sum(x * y))


def cost_t3(in_degrees) -> float:
    """Total T3 ops: ``sum Y (Y - 1) / 2`` (candidate in-in pairs)."""
    y = np.asarray(in_degrees, dtype=np.float64)
    return float(np.sum(y * (y - 1.0)) / 2.0)


_BASE = {
    "T1": lambda x, y: cost_t1(x),
    "T2": cost_t2,
    "T3": lambda x, y: cost_t3(y),
}


def total_cost(method_name: str, out_degrees, in_degrees) -> float:
    """Total operation count ``n * c_n(M, theta)`` for any method."""
    method = get_method(method_name)
    return float(sum(_BASE[c](out_degrees, in_degrees)
                     for c in method.components))


def component_ops(out_degrees, in_degrees) -> dict[str, int]:
    """Integer-exact totals of the three base costs (7)-(9).

    One pass over the degree arrays yields all three sums; every
    method's exact ``ops`` is then a table lookup
    (:func:`total_ops`), which is how the vectorized engine reports
    the paper's cost metric in closed form and how multi-method
    sweeps avoid re-reducing the same arrays per method.
    """
    x = np.asarray(out_degrees, dtype=np.int64)
    y = np.asarray(in_degrees, dtype=np.int64)
    return {
        "T1": int(np.sum(x * (x - 1)) // 2),
        "T2": int(np.sum(x * y)),
        "T3": int(np.sum(y * (y - 1)) // 2),
    }


def total_ops(method_name: str, out_degrees, in_degrees) -> int:
    """Integer-exact ``ops`` for any method (the listers' counter).

    Equals :func:`total_cost` but stays in int64 arithmetic, so it can
    be compared ``==`` against an instrumented lister's ``ops``.
    """
    comps = component_ops(out_degrees, in_degrees)
    return sum(comps[c] for c in get_method(method_name).components)


def per_node_cost_many(method_names, out_degrees, in_degrees
                       ) -> dict[str, float]:
    """``c_n`` for several methods sharing one pass over the degrees.

    The harness/sweep hot path evaluates the same oriented-degree
    arrays under many methods; the three base reductions dominate, so
    computing them once and recombining per method is the cheap way.
    """
    return per_node_cost_from_ops(
        method_names, component_ops(out_degrees, in_degrees),
        np.asarray(out_degrees).size)


def per_node_cost_from_ops(method_names, comps: dict[str, int],
                           n: int) -> dict[str, float]:
    """``c_n`` for several methods from the totals of (7)-(9).

    ``comps`` is a :func:`component_ops` dict over ``n`` nodes (or
    the float :func:`cost_t1`/:func:`cost_t2`/:func:`cost_t3` values,
    which gives :func:`per_node_cost` bit for bit); an empty graph
    (``n == 0``) costs 0.
    """
    if n == 0:
        return {name: 0.0 for name in method_names}
    return {name: sum(comps[c]
                      for c in get_method(name).components) / n
            for name in method_names}


def per_node_cost(method_name: str, out_degrees, in_degrees) -> float:
    """``c_n(M, theta)``: eq. (1) evaluated exactly from the degrees."""
    n = np.asarray(out_degrees).size
    if n == 0:
        return 0.0
    return total_cost(method_name, out_degrees, in_degrees) / n


def method_cost(oriented, method_name: str) -> float:
    """``c_n(M, theta)`` of an :class:`OrientedGraph`."""
    return per_node_cost(method_name, oriented.out_degrees,
                         oriented.in_degrees)


_BASE_PROFILE = {
    "T1": lambda x, y: x * (x - 1.0) / 2.0,
    "T2": lambda x, y: x * y,
    "T3": lambda x, y: y * (y - 1.0) / 2.0,
}


def per_node_profile(method_name: str, out_degrees,
                     in_degrees) -> np.ndarray:
    """The summand of eq. (1) per node: ``f(X_i, Y_i)`` as an array.

    Exposes *where* the cost lives -- e.g. under the ascending
    permutation T1's profile is concentrated on the hub labels, under
    descending it spreads across the mid-degree mass. Summing the
    profile reproduces :func:`total_cost` exactly.
    """
    method = get_method(method_name)
    x = np.asarray(out_degrees, dtype=np.float64)
    y = np.asarray(in_degrees, dtype=np.float64)
    profile = np.zeros_like(x)
    for component in method.components:
        profile += _BASE_PROFILE[component](x, y)
    return profile


def cost_concentration(method_name: str, out_degrees, in_degrees,
                       top_fraction: float = 0.01) -> float:
    """Share of total cost carried by the costliest ``top_fraction``
    of nodes -- a skew diagnostic for the heavy-tail regimes."""
    if not 0.0 < top_fraction <= 1.0:
        raise ValueError("top_fraction must be in (0, 1]")
    profile = per_node_profile(method_name, out_degrees, in_degrees)
    total = profile.sum()
    if total == 0.0:
        return 0.0
    k = max(int(round(top_fraction * profile.size)), 1)
    top = np.sort(profile)[-k:]
    return float(top.sum() / total)
