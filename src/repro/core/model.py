"""The cost models of section 7.1: discrete (50) and continuous (49).

Both evaluate

    ``E[c_n(M, theta)] ~ E[ g(D_n) h( xi( J_n(D_n) ) ) ]``      (30)

over the *truncated* degree law ``F_n``, with ``g(x) = x^2 - x``, ``h``
from Table 4, ``xi`` the permutation's limiting map, and ``J_n`` the
truncated spread:

* :func:`discrete_cost_model` -- eq. (50): the exact summation over the
  integer support ``1..t_n`` using the PMF ``p_i``. Linear time and
  O(1) extra space (vectorized here for speed); the reference model for
  every simulation table (6-11).
* :func:`continuous_cost_model` -- eq. (49): the Lebesgue-Stieltjes
  double integral under the continuous Pareto ``F*``; the paper shows it
  deviates 1.5-2% from the discrete truth (Table 5), and we reproduce
  both sides of that comparison.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.kernels import get_map
from repro.core.methods import get_method
from repro.core.weights import identity_weight
from repro.distributions.base import DegreeDistribution
from repro.distributions.pareto import ContinuousPareto


def discrete_cost_model(dist: DegreeDistribution, method,
                        limit_map="descending",
                        weight=identity_weight) -> float:
    """Eq. (50): exact discrete model over a finite-support degree law.

    Parameters
    ----------
    dist:
        The truncated law ``F_n`` (finite ``support_max = t_n``).
    method:
        Method name or :class:`~repro.core.methods.Method`.
    limit_map:
        The permutation's limiting map ``xi`` (name or
        :class:`~repro.core.kernels.LimitMap`).
    weight:
        The ``w(x)`` of the out-degree model (12); identity by default.

    Returns
    -------
    The modeled per-node cost ``E[c_n(M, theta_n)]``.
    """
    if not math.isfinite(dist.support_max):
        raise ValueError(
            "discrete model needs a truncated distribution; call "
            "dist.truncate(t_n) first (or use fast_cost_model for huge t)")
    method = get_method(method) if isinstance(method, str) else method
    limit_map = get_map(limit_map)
    t = int(dist.support_max)
    ks = np.arange(dist.support_min, t + 1, dtype=np.float64)
    p = dist.pmf(ks)
    wcum = np.cumsum(weight(ks) * p)
    total_weight = wcum[-1]
    if total_weight <= 0.0:
        raise ValueError("degenerate distribution: zero weighted mass")
    j = wcum / total_weight  # J_n at each support point (inclusive)
    g = ks * ks - ks
    h_vals = limit_map.expected_h(method.h, j)
    return float(np.sum(g * h_vals * p))


def continuous_cost_model(pareto: ContinuousPareto, t_n: float, method,
                          limit_map="descending",
                          weight=None,
                          segments_per_decade: int = 4) -> float:
    """Eq. (49): the continuous model under truncated continuous Pareto.

    ``F_n*(x) = F*(x) / F*(t_n)`` on ``[0, t_n]``; the spread argument is
    ``J_n(x) = int_0^x w dF* / int_0^{t_n} w dF*`` (the truncation
    normalization cancels). For the identity weight the inner integral
    uses the closed form (19); any other weight falls back to numeric
    cumulative integration.

    The outer integral is evaluated with ``scipy.integrate.quad`` over
    log-spaced segments, which keeps it accurate for ``t_n`` as large as
    ``1e17`` (Table 5 territory).
    """
    method = get_method(method) if isinstance(method, str) else method
    limit_map = get_map(limit_map)
    if t_n <= 0:
        raise ValueError(f"truncation point must be positive, got {t_n}")

    if weight is None or weight is identity_weight:
        if pareto.alpha <= 1.0:
            # E[X] infinite but partial means are finite; normalize by
            # the partial mean at t_n computed numerically
            partial = _numeric_partial(pareto, identity_weight)
            denom = partial(t_n)
            j_fn = lambda x: partial(x) / denom
        else:
            denom = pareto.partial_mean(t_n)
            j_fn = lambda x: pareto.partial_mean(x) / denom
    else:
        partial = _numeric_partial(pareto, weight)
        denom = partial(t_n)
        j_fn = lambda x: partial(x) / denom

    norm = float(pareto.cdf(t_n))

    def integrand(x):
        j = min(max(j_fn(x), 0.0), 1.0)
        h_val = float(limit_map.expected_h(method.h, np.float64(j)))
        return (x * x - x) * h_val * float(pareto.pdf(x)) / norm

    from scipy import integrate
    total = 0.0
    for lo, hi in _log_segments(t_n, segments_per_decade):
        value, __ = integrate.quad(integrand, lo, hi, limit=200)
        total += value
    return total


def _log_segments(t_n: float, per_decade: int):
    """Split ``[0, t_n]`` into quadrature-friendly log-spaced pieces."""
    edges = [0.0, min(1.0, t_n)]
    x = 1.0
    ratio = 10.0 ** (1.0 / per_decade)
    while x < t_n:
        x = min(x * ratio, t_n)
        edges.append(x)
    return list(zip(edges[:-1], edges[1:]))


def _numeric_partial(pareto: ContinuousPareto, weight):
    """Cached numeric ``x -> int_0^x w(y) dF*(y)`` via segment quads."""
    from scipy import integrate

    cache: dict[float, float] = {0.0: 0.0}

    def partial(x: float) -> float:
        x = float(x)
        if x in cache:
            return cache[x]
        known = max(k for k in cache if k <= x)
        value = cache[known]
        lo = known
        for seg_lo, seg_hi in _log_segments(x, 4):
            if seg_hi <= lo:
                continue
            a = max(seg_lo, lo)
            piece, __ = integrate.quad(
                lambda y: float(weight(np.float64(y))) * float(pareto.pdf(y)),
                a, seg_hi, limit=200)
            value += piece
        cache[x] = value
        return value

    return partial
