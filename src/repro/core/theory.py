"""Named closed-form limits under continuous Pareto (eqs. 22-24, 34-36,
44-45).

While :func:`repro.core.limits.limit_cost` evaluates any (method, map)
pair from the *discrete* law via Algorithm 2, the paper states several
limits in closed integral form against the continuous Pareto spread
(19). This module evaluates those expressions directly with adaptive
quadrature, giving an independent cross-check of the whole discrete
pipeline (the two agree up to the ~2% continuous-vs-discrete gap that
Table 5 quantifies):

=========  =====================================================
eq. (22)   ``c(T1, xi_A) = E[g(D) J(D)^2] / 2``
eq. (23)   ``c(T1, xi_D) = E[g(D) (1 - J(D))^2] / 2``  (= eq. 44)
eq. (24)   ``c(T2, xi_D) = E[g(D) J(D) (1 - J(D))]``
eq. (34)   ``c(T2, xi_RR) = E[g(D) (1 - J(D)^2)] / 4``
eq. (35)   ``c(E1, xi_D) = E[g(D) (1 - J(D)^2)] / 2``  (= eq. 45)
eq. (36)   ``c(E1, xi_RR) = E[g(D) (3 - J(D)^2)] / 8``
=========  =====================================================

Each returns ``math.inf`` when the defining integral diverges (the
finiteness thresholds of section 6.3).
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.asymptotics import finiteness_threshold
from repro.distributions.pareto import ContinuousPareto


def _pareto_expectation(pareto: ContinuousPareto, factor,
                        threshold: float) -> float:
    """``E[(D^2 - D) * factor(J(D))]`` under continuous Pareto.

    ``factor`` maps the spread value ``J in [0, 1]`` to the h-derived
    multiplier; ``threshold`` is the tail index at which the integral
    starts converging.
    """
    if pareto.alpha <= threshold:
        return math.inf
    from scipy import integrate
    spread = pareto.spread_cdf

    def integrand(x):
        j = float(np.clip(spread(x), 0.0, 1.0))
        return (x * x - x) * float(factor(j)) * float(pareto.pdf(x))

    total = 0.0
    hi = 1.0
    lo = 0.0
    # adaptive log-segmented quadrature; extend until the tail piece is
    # negligible relative to the accumulated value
    while True:
        piece, __ = integrate.quad(integrand, lo, hi, limit=200)
        total += piece
        if hi > 1e4 and abs(piece) < 1e-10 * max(abs(total), 1.0):
            break
        if hi > 1e18:
            break
        lo, hi = hi, hi * 4.0
    return total


def t1_ascending_limit(pareto: ContinuousPareto) -> float:
    """Eq. (22): ``E[g(D) J(D)^2] / 2``; finite iff ``alpha > 2``."""
    return _pareto_expectation(pareto, lambda j: j * j / 2.0,
                               finiteness_threshold("T1", "ascending"))


def t1_descending_limit(pareto: ContinuousPareto) -> float:
    """Eqs. (23)/(44): ``E[g(D) (1-J)^2] / 2``; finite iff
    ``alpha > 4/3``."""
    return _pareto_expectation(
        pareto, lambda j: (1.0 - j) ** 2 / 2.0,
        finiteness_threshold("T1", "descending"))


def t2_descending_limit(pareto: ContinuousPareto) -> float:
    """Eq. (24): ``E[g(D) J (1-J)]``; finite iff ``alpha > 1.5``."""
    return _pareto_expectation(
        pareto, lambda j: j * (1.0 - j),
        finiteness_threshold("T2", "descending"))


def t2_round_robin_limit(pareto: ContinuousPareto) -> float:
    """Eq. (34): ``E[g(D) (1 - J^2)] / 4``; finite iff ``alpha > 1.5``."""
    return _pareto_expectation(
        pareto, lambda j: (1.0 - j * j) / 4.0,
        finiteness_threshold("T2", "rr"))


def e1_descending_limit(pareto: ContinuousPareto) -> float:
    """Eqs. (35)/(45): ``E[g(D) (1 - J^2)] / 2``; finite iff
    ``alpha > 1.5``."""
    return _pareto_expectation(
        pareto, lambda j: (1.0 - j * j) / 2.0,
        finiteness_threshold("E1", "descending"))


def e1_round_robin_limit(pareto: ContinuousPareto) -> float:
    """Eq. (36): ``E[g(D) (3 - J^2)] / 8``; finite iff ``alpha > 2``."""
    return _pareto_expectation(
        pareto, lambda j: (3.0 - j * j) / 8.0,
        finiteness_threshold("E1", "rr"))


#: Registry of the named limits by (method, map) pair.
NAMED_LIMITS = {
    ("T1", "ascending"): t1_ascending_limit,
    ("T1", "descending"): t1_descending_limit,
    ("T2", "descending"): t2_descending_limit,
    ("T2", "rr"): t2_round_robin_limit,
    ("E1", "descending"): e1_descending_limit,
    ("E1", "rr"): e1_round_robin_limit,
}


def named_limit(method: str, map_name: str,
                pareto: ContinuousPareto) -> float:
    """Evaluate one of the paper's named closed-form limits."""
    key = (method.upper(), map_name.lower())
    fn = NAMED_LIMITS.get(key)
    if fn is None:
        raise ValueError(
            f"no named closed form for {key}; available: "
            f"{sorted(NAMED_LIMITS)}")
    return fn(pareto)


def berry_et_al_limit(dist, t: int = 10**7) -> float:
    """Eq. (2): the prior-work [9] form of the T1 + descending limit.

    ``E[(Z1^2 - Z1) Z2 Z3 1_{min(Z2,Z3) > Z1}] / (2 E[D]^2)`` with
    iid ``Z_i ~ F``. Independence factorizes the indicator:
    ``E[Z 1_{Z > z}] = E[D] (1 - J(z))``, reducing (2) to a single sum
    over the support -- evaluated here *independently* of the spread
    machinery (tail sums straight from the survival function), so
    agreement with eq. (4) / :func:`t1_descending_limit` cross-checks
    the whole J pipeline. The paper's point that "(2) captures the same
    limit" but "(4) is much simpler" becomes an executable identity.

    ``dist`` is the *untruncated* discrete law; ``t`` bounds the
    support sum (the integrand's tail is negligible beyond it for any
    alpha > 4/3).
    """
    ks = np.arange(1, t + 1, dtype=np.float64)
    pmf = dist.pmf(ks)
    mean = float(np.sum(ks * pmf))
    # the truncated sum misses ~ t * sf(t) of E[Z 1_{Z>z}] mass; keep
    # that below 1% of the mean (sub-percent error on the limit)
    if float(dist.sf(float(t))) * t > 1e-2 * mean:
        raise ValueError(
            f"support bound t={t} too small: the mean has "
            f"non-negligible mass beyond it")
    # T(z) = E[Z 1_{Z > z}] via a reversed cumulative sum
    t_of_z = np.concatenate(
        [np.cumsum((ks * pmf)[::-1])[::-1][1:], [0.0]])
    g = ks * ks - ks
    return float(np.sum(pmf * g * t_of_z**2) / (2.0 * mean * mean))
