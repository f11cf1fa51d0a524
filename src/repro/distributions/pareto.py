"""Discrete and continuous Pareto degree laws (paper section 7.1).

The paper starts from the continuous Pareto
``F*(x) = 1 - (1 + x/beta)^(-alpha)`` on ``[0, inf)`` and discretizes it by
rounding each generated value *up*, which yields

    ``F(x) = 1 - (1 + floor(x)/beta)^(-alpha)``

on the natural numbers. The evaluation keeps ``beta = 30 (alpha - 1)`` so
that ``E[D] ~= 30.5`` after discretization.
"""

from __future__ import annotations

import math

import numpy as np

from repro.distributions.base import DegreeDistribution


class DiscretePareto(DegreeDistribution):
    """``F(x) = 1 - (1 + floor(x)/beta)^(-alpha)`` on ``{1, 2, ...}``.

    Equivalently the law of ``ceil(X*)`` where ``X*`` is continuous
    Pareto(alpha, beta). Heavy-tailed with tail index ``alpha``:
    ``P(D > k) ~ (k/beta)^(-alpha)``, so ``E[D^p]`` is finite iff
    ``p < alpha``.
    """

    def __init__(self, alpha: float, beta: float):
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        if beta <= 0:
            raise ValueError(f"beta must be positive, got {beta}")
        self.alpha = float(alpha)
        self.beta = float(beta)

    @classmethod
    def paper_parameterization(cls, alpha: float) -> "DiscretePareto":
        """The evaluation's ``beta = 30 (alpha - 1)`` convention.

        Keeps ``E[D]`` roughly constant (about 30.5) across ``alpha`` so
        that costs are comparable between tail indices. Requires
        ``alpha > 1``.
        """
        if alpha <= 1:
            raise ValueError(
                "paper parameterization beta = 30 (alpha - 1) needs "
                f"alpha > 1, got {alpha}")
        return cls(alpha, 30.0 * (alpha - 1.0))

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        fl = np.floor(x)
        val = 1.0 - np.power(1.0 + np.maximum(fl, 0.0) / self.beta,
                             -self.alpha)
        return np.where(fl < 1.0, 0.0, val)

    def sf(self, x):
        x = np.asarray(x, dtype=float)
        fl = np.floor(x)
        val = np.power(1.0 + np.maximum(fl, 0.0) / self.beta, -self.alpha)
        return np.where(fl < 1.0, 1.0, val)

    def pmf(self, k):
        k = np.asarray(k, dtype=float)
        valid = k >= 1.0
        km1 = np.where(valid, k - 1.0, 0.0)
        val = (np.power(1.0 + km1 / self.beta, -self.alpha)
               - np.power(1.0 + np.where(valid, k, 1.0) / self.beta,
                          -self.alpha))
        return np.where(valid & (k == np.floor(k)), val, 0.0)

    def quantile(self, u):
        u = np.asarray(u, dtype=float)
        if np.any((u < 0.0) | (u > 1.0)):
            raise ValueError("quantile argument must be in [0, 1]")
        # smallest integer k with F(k) >= u:
        #   k >= beta * ((1 - u)^(-1/alpha) - 1)
        with np.errstate(divide="ignore", over="ignore"):
            raw = self.beta * (np.power(1.0 - u, -1.0 / self.alpha) - 1.0)
        ks = np.maximum(np.ceil(raw - 1e-12), 1.0)
        result = np.where(np.isinf(raw), np.inf, ks)
        if result.ndim == 0:
            val = float(result)
            return math.inf if math.isinf(val) else int(val)
        return result

    def mean(self, **_ignored) -> float:
        """``E[D] = beta^alpha * zeta(alpha, beta)`` (Hurwitz zeta).

        Derivation: ``E[D] = sum_{k>=0} P(D > k)
        = sum_{k>=0} (1 + k/beta)^(-alpha)``. Infinite for
        ``alpha <= 1``.
        """
        if self.alpha <= 1.0:
            return math.inf
        from scipy import special
        return float(self.beta**self.alpha
                     * special.zeta(self.alpha, self.beta))

    def moment(self, p: float, **kwargs) -> float:
        if p >= self.alpha:
            return math.inf
        if p == 1:
            return self.mean()
        if p == 2:
            return self.second_moment()
        return super().moment(p, **kwargs)

    def second_moment(self) -> float:
        """``E[D^2] = beta^alpha (2 zeta(a-1, b) + (1-2b) zeta(a, b))``.

        From ``E[D^2] = sum_{j>=0} (2j+1) P(D > j)`` with
        ``P(D > j) = (1 + j/beta)^(-alpha)`` and Hurwitz-zeta partial
        fractions. Finite iff ``alpha > 2``.
        """
        if self.alpha <= 2.0:
            return math.inf
        from scipy import special
        a, b = self.alpha, self.beta
        return float(b**a * (2.0 * special.zeta(a - 1.0, b)
                             + (1.0 - 2.0 * b) * special.zeta(a, b)))

    def to_continuous(self) -> "ContinuousPareto":
        """The continuous Pareto this law was discretized from."""
        return ContinuousPareto(self.alpha, self.beta)

    def __repr__(self) -> str:
        return f"DiscretePareto(alpha={self.alpha}, beta={self.beta})"


class ContinuousPareto:
    """``F*(x) = 1 - (1 + x/beta)^(-alpha)`` on ``[0, inf)``.

    Not a :class:`DegreeDistribution` (it is continuous); it exists for
    the continuous model (49) and for closed-form spread results,
    eq. (19).
    """

    def __init__(self, alpha: float, beta: float):
        if alpha <= 0 or beta <= 0:
            raise ValueError("alpha and beta must be positive")
        self.alpha = float(alpha)
        self.beta = float(beta)

    def cdf(self, x):
        """``F*(x) = 1 - (1 + x/beta)^(-alpha)`` for ``x >= 0``."""
        x = np.asarray(x, dtype=float)
        return np.where(x < 0.0, 0.0,
                        1.0 - np.power(1.0 + x / self.beta, -self.alpha))

    def pdf(self, x):
        """Density ``alpha/beta (1 + x/beta)^(-alpha-1)``."""
        x = np.asarray(x, dtype=float)
        val = (self.alpha / self.beta
               * np.power(1.0 + x / self.beta, -self.alpha - 1.0))
        return np.where(x < 0.0, 0.0, val)

    def quantile(self, u):
        """Analytic inverse: ``beta ((1-u)^(-1/alpha) - 1)``."""
        u = np.asarray(u, dtype=float)
        val = self.beta * (np.power(1.0 - u, -1.0 / self.alpha) - 1.0)
        return float(val) if val.ndim == 0 else val

    def mean(self) -> float:
        """``E[X] = beta / (alpha - 1)``; infinite for ``alpha <= 1``."""
        if self.alpha <= 1.0:
            return math.inf
        return self.beta / (self.alpha - 1.0)

    def partial_mean(self, x) -> float:
        """``int_0^x y dF*(y)`` in closed form.

        Integration by parts gives
        ``int_0^x y dF = E[X] - x (1+x/beta)^(-alpha)
        - int_x^inf (1+y/beta)^(-alpha) dy``
        = ``E[X] * J(x)`` with ``J`` from eq. (19). Only valid for
        ``alpha > 1``.
        """
        if self.alpha <= 1.0:
            raise ValueError("partial mean closed form needs alpha > 1")
        result = self.mean() * np.asarray(self.spread_cdf(x), dtype=float)
        return float(result) if result.ndim == 0 else result

    def spread_cdf(self, x):
        """Eq. (19): ``J(x) = 1 - (beta + alpha x)/beta (1+x/beta)^-alpha``.

        The spread (size-biased) distribution of Pareto, with tail index
        ``alpha - 1`` -- one degree heavier than ``F`` itself.
        """
        x = np.asarray(x, dtype=float)
        val = (1.0 - (self.beta + self.alpha * x) / self.beta
               * np.power(1.0 + x / self.beta, -self.alpha))
        result = np.where(x < 0.0, 0.0, val)
        return float(result) if result.ndim == 0 else result

    def discretize(self) -> DiscretePareto:
        """The paper's round-up discretization (section 7.1)."""
        return DiscretePareto(self.alpha, self.beta)

    def __repr__(self) -> str:
        return f"ContinuousPareto(alpha={self.alpha}, beta={self.beta})"
