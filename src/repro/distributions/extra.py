"""Additional degree laws beyond the paper's Pareto.

The paper's theory (Theorems 1-5) is stated for an *arbitrary* degree CDF
``F(x)`` on the positive integers; only the evaluation section specializes
to Pareto. These laws exercise the general machinery:

* :class:`GeometricDegree` -- light (exponential) tail; every moment is
  finite, so every method/permutation has a finite limit. The paper notes
  that exponential ``D`` produces an Erlang(2) spread.
* :class:`ZipfDegree` -- the classic pure power law ``P(D = k) ~ k^(-s)``,
  an alternative heavy-tailed family with the same tail index semantics
  (``s = alpha + 1`` matches Pareto tail ``alpha``).
* :class:`PoissonDegree` -- zero-truncated Poisson, the Erdos-Renyi
  degree shape [19]; the "classical random graphs" the introduction
  contrasts against.
* :class:`LogNormalDegree` -- discretized lognormal: every moment finite
  (all limits converge) yet sub-exponentially heavy, probing the space
  between geometric and Pareto.
"""

from __future__ import annotations

import math

import numpy as np

from repro.distributions.base import DegreeDistribution


class GeometricDegree(DegreeDistribution):
    """Geometric law on ``{1, 2, ...}``: ``P(D = k) = (1-p)^(k-1) p``."""

    def __init__(self, p: float):
        if not 0.0 < p < 1.0:
            raise ValueError(f"p must be in (0, 1), got {p}")
        self.p = float(p)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        fl = np.floor(x)
        val = 1.0 - np.power(1.0 - self.p, np.maximum(fl, 0.0))
        return np.where(fl < 1.0, 0.0, val)

    def sf(self, x):
        x = np.asarray(x, dtype=float)
        fl = np.floor(x)
        val = np.power(1.0 - self.p, np.maximum(fl, 0.0))
        return np.where(fl < 1.0, 1.0, val)

    def pmf(self, k):
        k = np.asarray(k, dtype=float)
        valid = (k >= 1.0) & (k == np.floor(k))
        safe_k = np.where(valid, k, 1.0)
        return np.where(valid,
                        np.power(1.0 - self.p, safe_k - 1.0) * self.p, 0.0)

    def quantile(self, u):
        u = np.asarray(u, dtype=float)
        # smallest k with 1 - (1-p)^k >= u  <=>  k >= log(1-u)/log(1-p)
        with np.errstate(divide="ignore"):
            raw = np.log1p(-u) / math.log(1.0 - self.p)
        ks = np.maximum(np.ceil(raw - 1e-12), 1.0)
        result = np.where(np.isinf(raw), np.inf, ks)
        if result.ndim == 0:
            val = float(result)
            return math.inf if math.isinf(val) else int(val)
        return result

    def mean(self, **_ignored) -> float:
        return 1.0 / self.p

    def moment(self, p: float, **kwargs) -> float:
        if p == 1:
            return self.mean()
        if p == 2:
            # E[D^2] = (2 - p) / p^2 for the {1, 2, ...} geometric law
            return (2.0 - self.p) / (self.p * self.p)
        return super().moment(p, **kwargs)

    def __repr__(self) -> str:
        return f"GeometricDegree(p={self.p})"


class ZipfDegree(DegreeDistribution):
    """Zipf law on ``{1, 2, ...}``: ``P(D = k) = k^(-s) / zeta(s)``.

    Requires ``s > 1``. ``E[D^p]`` is finite iff ``p < s - 1``, so the
    Pareto results with tail index ``alpha`` translate to ``s = alpha + 1``.
    """

    def __init__(self, s: float):
        if s <= 1.0:
            raise ValueError(f"Zipf exponent must exceed 1, got {s}")
        from scipy import special
        self.s = float(s)
        self._zeta = float(special.zeta(self.s, 1.0))

    def cdf(self, x):
        from scipy import special
        x = np.asarray(x, dtype=float)
        fl = np.floor(x)
        # sum_{k<=x} k^-s = zeta(s) - zeta(s, x+1)  (Hurwitz tail)
        partial = self._zeta - special.zeta(self.s, np.maximum(fl, 0.0) + 1.0)
        return np.where(fl < 1.0, 0.0, partial / self._zeta)

    def sf(self, x):
        from scipy import special
        x = np.asarray(x, dtype=float)
        fl = np.floor(x)
        tail = special.zeta(self.s, np.maximum(fl, 0.0) + 1.0) / self._zeta
        return np.where(fl < 1.0, 1.0, tail)

    def pmf(self, k):
        k = np.asarray(k, dtype=float)
        valid = (k >= 1.0) & (k == np.floor(k))
        safe_k = np.where(valid, k, 1.0)
        return np.where(valid, np.power(safe_k, -self.s) / self._zeta, 0.0)

    def mean(self, **_ignored) -> float:
        if self.s <= 2.0:
            return math.inf
        from scipy import special
        return float(special.zeta(self.s - 1.0, 1.0)) / self._zeta

    def moment(self, p: float, **kwargs) -> float:
        if p >= self.s - 1.0:
            return math.inf
        if self.s - p > 1.0:
            from scipy import special
            return float(special.zeta(self.s - p, 1.0)) / self._zeta
        return super().moment(p, **kwargs)

    def __repr__(self) -> str:
        return f"ZipfDegree(s={self.s})"


class PoissonDegree(DegreeDistribution):
    """Zero-truncated Poisson on ``{1, 2, ...}``.

    ``P(D = k) = e^-lam lam^k / (k! (1 - e^-lam))`` -- the degree shape
    of sparse Erdos-Renyi graphs [19], i.e. the "classical random
    graphs" whose subgraph frequencies the introduction contrasts with
    heavy-tailed networks. All moments finite; every cost limit
    converges under every permutation.
    """

    def __init__(self, lam: float):
        if lam <= 0:
            raise ValueError(f"rate must be positive, got {lam}")
        self.lam = float(lam)
        self._norm = 1.0 - math.exp(-self.lam)

    def cdf(self, x):
        from scipy import stats
        x = np.asarray(x, dtype=float)
        fl = np.floor(x)
        raw = stats.poisson.cdf(np.maximum(fl, 0.0), self.lam)
        zero_mass = math.exp(-self.lam)
        val = (raw - zero_mass) / self._norm
        return np.where(fl < 1.0, 0.0, np.clip(val, 0.0, 1.0))

    def pmf(self, k):
        from scipy import stats
        k = np.asarray(k, dtype=float)
        valid = (k >= 1.0) & (k == np.floor(k))
        safe_k = np.where(valid, k, 1.0)
        return np.where(valid,
                        stats.poisson.pmf(safe_k, self.lam) / self._norm,
                        0.0)

    def mean(self, **_ignored) -> float:
        return self.lam / self._norm

    def moment(self, p: float, **kwargs) -> float:
        if p == 1:
            return self.mean()
        if p == 2:
            # E[K^2] for Poisson = lam^2 + lam; truncation renormalizes
            return (self.lam * self.lam + self.lam) / self._norm
        return super().moment(p, **kwargs)

    def __repr__(self) -> str:
        return f"PoissonDegree(lam={self.lam})"


class LogNormalDegree(DegreeDistribution):
    """Discretized lognormal: ``D = ceil(exp(N(mu, sigma^2)))``.

    Sub-exponential but lighter than any power law: every moment is
    finite (all limits converge) while the degree histogram still shows
    hub-like skew. A useful probe between geometric and Pareto.
    """

    def __init__(self, mu: float, sigma: float):
        if sigma <= 0:
            raise ValueError(f"sigma must be positive, got {sigma}")
        self.mu = float(mu)
        self.sigma = float(sigma)

    def cdf(self, x):
        from scipy import stats
        x = np.asarray(x, dtype=float)
        fl = np.floor(x)
        safe = np.maximum(fl, 1.0)
        val = stats.norm.cdf((np.log(safe) - self.mu) / self.sigma)
        return np.where(fl < 1.0, 0.0, val)

    def sf(self, x):
        from scipy import stats
        x = np.asarray(x, dtype=float)
        fl = np.floor(x)
        safe = np.maximum(fl, 1.0)
        val = stats.norm.sf((np.log(safe) - self.mu) / self.sigma)
        return np.where(fl < 1.0, 1.0, val)

    def quantile(self, u):
        from scipy import stats
        u = np.asarray(u, dtype=float)
        raw = np.exp(self.mu + self.sigma * stats.norm.ppf(u))
        ks = np.maximum(np.ceil(raw - 1e-12), 1.0)
        result = np.where(np.isinf(raw), np.inf, ks)
        if result.ndim == 0:
            val = float(result)
            return math.inf if math.isinf(val) else int(val)
        return result

    def __repr__(self) -> str:
        return f"LogNormalDegree(mu={self.mu}, sigma={self.sigma})"
