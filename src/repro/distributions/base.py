"""Abstract integer degree distributions and truncation.

All degree laws in this package live on the positive integers
``{1, 2, 3, ...}`` (possibly capped at a finite maximum), matching the
paper's assumption that ``F(x)`` is a CDF on integers in ``[1, inf)``.

The two central operations the rest of the library needs are

* exact CDF/PMF evaluation (the discrete model (50) sums the PMF of the
  *truncated* degree), and
* exact inverse-CDF sampling (degree sequences ``D_n`` are i.i.d. draws
  from ``F_n(x) = F(x) / F(t_n)``).
"""

from __future__ import annotations

import abc
import math

import numpy as np


class DegreeDistribution(abc.ABC):
    """A probability distribution on the positive integers.

    Subclasses must implement :meth:`cdf`; the default :meth:`pmf`,
    :meth:`quantile`, and moment helpers are derived from it. Subclasses
    with closed forms should override them for speed and accuracy.
    """

    #: Smallest value in the support. The paper fixes this at 1.
    support_min: int = 1

    @property
    def support_max(self) -> float:
        """Largest value in the support (``math.inf`` if unbounded)."""
        return math.inf

    @abc.abstractmethod
    def cdf(self, x):
        """``P(D <= x)`` for scalar or array ``x`` (real-valued allowed)."""

    def sf(self, x):
        """Survival function ``P(D > x)``."""
        return 1.0 - self.cdf(x)

    def pmf(self, k):
        """``P(D = k)`` for integer scalar or array ``k``."""
        k = np.asarray(k, dtype=float)
        return np.maximum(self.cdf(k) - self.cdf(k - 1.0), 0.0)

    def quantile(self, u):
        """Smallest integer ``k >= support_min`` with ``cdf(k) >= u``.

        The generic implementation gallops exponentially and then
        bisects; distributions with analytic inverses override this.
        """
        u_arr = np.atleast_1d(np.asarray(u, dtype=float))
        out = np.empty(u_arr.shape, dtype=np.int64)
        for idx, ui in np.ndenumerate(u_arr):
            out[idx] = self._quantile_scalar(float(ui))
        if np.isscalar(u) or np.asarray(u).ndim == 0:
            return int(out.reshape(-1)[0])
        return out

    def _quantile_scalar(self, u: float) -> int:
        if not 0.0 <= u <= 1.0:
            raise ValueError(f"quantile argument must be in [0, 1], got {u}")
        lo = self.support_min
        if self.cdf(lo) >= u:
            return lo
        hi = lo + 1
        limit = self.support_max
        while self.cdf(hi) < u:
            if hi >= limit:
                return int(limit)
            hi = min(hi * 2, int(limit) if math.isfinite(limit) else hi * 2)
        # invariant: cdf(lo) < u <= cdf(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self.cdf(mid) >= u:
                hi = mid
            else:
                lo = mid
        return hi

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``size`` i.i.d. degrees via inverse-CDF sampling."""
        return np.asarray(self.quantile(rng.random(size)), dtype=np.int64)

    def mean(self, tol: float = 1e-12, max_terms: int = 10**8) -> float:
        """``E[D]``, via ``sum_{k>=0} P(D > k)`` with tail tolerance."""
        return self.moment(1, tol=tol, max_terms=max_terms)

    def moment(self, p: float, rtol: float = 1e-9,
               max_exact: int = 2**24) -> float:
        """``E[D^p]`` by geometric-block summation with tail extrapolation.

        Exact vectorized partial sums over dyadic blocks
        ``[2^i, 2^{i+1})`` up to ``max_exact``; for heavy tails the
        remaining mass is extrapolated from the geometric decay of the
        last block contributions (exact for power-law tails in the
        limit). Block contributions that stop decaying signal an
        infinite moment and yield ``math.inf``. Subclasses with closed
        forms (Pareto, Zipf, geometric) override this.
        """
        limit = self.support_max
        if math.isfinite(limit):
            ks = np.arange(self.support_min, int(limit) + 1, dtype=float)
            return float(np.sum(ks**p * self.pmf(ks)))
        total = 0.0
        contribs = []
        start = self.support_min
        end = 2
        while start < max_exact:
            ks = np.arange(start, min(end, max_exact), dtype=float)
            contrib = float(np.sum(ks**p * self.pmf(ks)))
            contribs.append(contrib)
            total += contrib
            if total > 0 and contrib < rtol * total and float(
                    self.sf(end - 1)) * end**p < rtol * total:
                return total
            start, end = end, end * 2
        # extrapolate the tail from the decay ratio of the last blocks
        last, prev = contribs[-1], contribs[-2]
        if prev <= 0.0:
            return total
        ratio = last / prev
        if ratio >= 0.999:  # contributions not decaying: divergent sum
            return math.inf
        return total + last * ratio / (1.0 - ratio)

    def truncate(self, t: int) -> "TruncatedDistribution":
        """Return ``F_n(x) = F(x) / F(t)`` restricted to ``[1, t]``."""
        return TruncatedDistribution(self, t)


class TruncatedDistribution(DegreeDistribution):
    """``F_n(x) = F(x) / F(t_n)`` on ``[1, t_n]`` (paper section 1.2).

    ``base`` is the limiting distribution ``F`` and ``t`` the truncation
    point ``t_n``. All mass above ``t`` is removed and the remainder is
    renormalized, exactly as in the paper (not "capped at t").
    """

    def __init__(self, base: DegreeDistribution, t: int):
        t = int(t)
        if t < base.support_min:
            raise ValueError(
                f"truncation point {t} below support minimum "
                f"{base.support_min}")
        self.base = base
        self.t = t
        self._norm = float(base.cdf(t))
        if self._norm <= 0.0:
            raise ValueError("truncated distribution has zero mass")

    @property
    def support_max(self) -> float:
        return float(self.t)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        clipped = np.minimum(x, float(self.t))
        return np.where(x < self.base.support_min, 0.0,
                        self.base.cdf(clipped) / self._norm)

    def sf(self, x):
        """Survival via the base's sf -- keeps relative precision for
        tails far below float64's epsilon around 1.0."""
        x = np.asarray(x, dtype=float)
        clipped = np.minimum(x, float(self.t))
        tail = (self.base.sf(clipped) - self._base_tail) / self._norm
        return np.where(x < self.base.support_min, 1.0,
                        np.maximum(tail, 0.0))

    @property
    def _base_tail(self) -> float:
        return float(self.base.sf(self.t))

    def pmf(self, k):
        k = np.asarray(k, dtype=float)
        inside = (k >= self.base.support_min) & (k <= self.t)
        return np.where(inside, self.base.pmf(k) / self._norm, 0.0)

    def quantile(self, u):
        u = np.asarray(u, dtype=float)
        result = self.base.quantile(u * self._norm)
        return np.minimum(result, self.t) if np.ndim(result) else min(
            result, self.t)

    def truncate(self, t: int) -> "TruncatedDistribution":
        """Re-truncating always re-normalizes against the original base."""
        return TruncatedDistribution(self.base, min(int(t), self.t))

    def __repr__(self) -> str:
        return f"TruncatedDistribution({self.base!r}, t={self.t})"


class EmpiricalDegreeDistribution(DegreeDistribution):
    """Degree law estimated from an observed degree sequence.

    Useful for feeding the paper's cost models with the degree
    distribution of a concrete graph (the section 7.5 use case: predict
    per-method cost from a real graph's degree histogram).
    """

    def __init__(self, degrees):
        degrees = np.asarray(degrees, dtype=np.int64)
        if degrees.size == 0:
            raise ValueError("empty degree sequence")
        if degrees.min() < 1:
            raise ValueError("degrees must be >= 1")
        values, counts = np.unique(degrees, return_counts=True)
        self._values = values
        self._probs = counts / counts.sum()
        self._cum = np.cumsum(self._probs)
        self._max = int(values[-1])
        self._min = int(values[0])

    @property
    def support_min(self) -> int:  # type: ignore[override]
        return self._min

    @property
    def support_max(self) -> float:
        return float(self._max)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(self._values, x, side="right")
        cum = np.concatenate([[0.0], self._cum])
        return cum[idx]

    def pmf(self, k):
        k = np.asarray(k, dtype=float)
        idx = np.searchsorted(self._values, k)
        idx_clipped = np.clip(idx, 0, self._values.size - 1)
        match = self._values[idx_clipped] == k
        return np.where(match, self._probs[idx_clipped], 0.0)

    def quantile(self, u):
        u = np.asarray(u, dtype=float)
        idx = np.searchsorted(self._cum, u, side="left")
        idx = np.clip(idx, 0, self._values.size - 1)
        result = self._values[idx]
        if result.ndim == 0:
            return int(result)
        return result.astype(np.int64)

    def __repr__(self) -> str:
        return (f"EmpiricalDegreeDistribution(support=[{self._min}, "
                f"{self._max}], points={self._values.size})")
