"""Limiting random maps ``xi(u)`` and measure-preserving kernels.

Section 5 models the limit of a permutation sequence ``{theta_n}`` as a
random process ``xi(u)`` on ``[0, 1]`` with distribution kernel
``K(v; u) = P(xi(u) <= v)``, required to be *measure-preserving*
(Definition 4): ``E[K(v; U)] = v`` for uniform ``U``.

The maps used by the paper:

=============  ==========================================================
permutation    limiting map
=============  ==========================================================
ascending      ``xi(u) = u`` (deterministic)
descending     ``xi(u) = 1 - u`` (deterministic)
uniform        ``xi(u) ~ U[0, 1]`` independent of ``u``
Round-Robin    ``(1-u)/2`` or ``(1+u)/2`` w.p. 1/2 each (Prop. 6)
CRR            ``u/2`` or ``1 - u/2`` w.p. 1/2 each (Prop. 7)
=============  ==========================================================

The model machinery only ever needs ``E[h(xi(u))]``, which every
:class:`LimitMap` provides in vectorized closed form. Proposition 7's
reversal/complement operations are provided as combinators, and
:func:`empirical_kernel` implements the windowed estimate (27) used to
*check* admissibility of a concrete permutation sequence.
"""

from __future__ import annotations

import abc
import functools

import numpy as np


class LimitMap(abc.ABC):
    """Limiting random map ``xi(u)`` of an admissible ``{theta_n}``."""

    #: Short identifier used in tables and registries.
    name: str = "abstract"

    @abc.abstractmethod
    def expected_h(self, h, u):
        """``E[h(xi(u))]`` for vectorized ``h`` and scalar/array ``u``."""

    @abc.abstractmethod
    def sample(self, u, rng: np.random.Generator):
        """One draw of ``xi(u)`` per entry of ``u``."""

    @abc.abstractmethod
    def kernel(self, v, u):
        """``K(v; u) = P(xi(u) <= v)``, vectorized in ``v``."""

    def check_measure_preserving(self, grid: int = 2001) -> float:
        """Max deviation of ``E[K(v; U)]`` from ``v`` on a uniform grid.

        Definition 4 requires this to vanish; the numeric check uses the
        midpoint rule over ``grid`` points and returns the worst error.
        """
        us = (np.arange(grid) + 0.5) / grid
        vs = np.linspace(0.0, 1.0, 101)
        worst = 0.0
        for v in vs:
            mean_kernel = float(np.mean(self.kernel(v, us)))
            worst = max(worst, abs(mean_kernel - float(v)))
        return worst

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class _DeterministicMap(LimitMap):
    """``xi(u) = f(u)`` with probability one."""

    def __init__(self, f, name: str):
        self._f = f
        self.name = name

    def expected_h(self, h, u):
        return h(self._f(np.asarray(u, dtype=float)))

    def sample(self, u, rng):
        return self._f(np.asarray(u, dtype=float))

    def kernel(self, v, u):
        u = np.asarray(u, dtype=float)
        return (self._f(u) <= v).astype(float)


class AscendingMap(_DeterministicMap):
    """``xi_A(u) = u``: the identity (ascending-degree) limit."""

    def __init__(self):
        super().__init__(lambda u: u, "ascending")


class DescendingMap(_DeterministicMap):
    """``xi_D(u) = 1 - u``: the descending-degree limit."""

    def __init__(self):
        super().__init__(lambda u: 1.0 - u, "descending")


@functools.cache
def _uniform_quadrature() -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on ``[0, 1]`` (512 points).

    Computed on the first :meth:`UniformMap.expected_h` call, not at
    import: ``leggauss`` is an eigen-solve that every process importing
    the package would otherwise pay for.
    """
    nodes, weights = np.polynomial.legendre.leggauss(512)
    return (nodes + 1.0) / 2.0, weights / 2.0


class UniformMap(LimitMap):
    """``xi_U(u) ~ Uniform[0, 1]`` independent of ``u`` (section 5.3).

    ``E[h(xi(u))] = int_0^1 h`` -- a constant; evaluated by Gauss-
    Legendre quadrature (512 nodes), exact for polynomial ``h`` like all
    of Table 4.
    """

    name = "uniform"

    def expected_h(self, h, u):
        nodes, weights = _uniform_quadrature()
        value = float(np.sum(weights * h(nodes)))
        u = np.asarray(u, dtype=float)
        return np.full(u.shape, value) if u.ndim else value

    def sample(self, u, rng):
        u = np.asarray(u, dtype=float)
        return rng.random(u.shape) if u.ndim else float(rng.random())

    def kernel(self, v, u):
        u = np.asarray(u, dtype=float)
        val = float(np.clip(v, 0.0, 1.0))
        return np.full(u.shape, val) if u.ndim else val


class _TwoPointMap(LimitMap):
    """``xi(u) in {a(u), b(u)}`` with probability 1/2 each."""

    def __init__(self, a, b, name: str):
        self._a = a
        self._b = b
        self.name = name

    def expected_h(self, h, u):
        u = np.asarray(u, dtype=float)
        return (h(self._a(u)) + h(self._b(u))) / 2.0

    def sample(self, u, rng):
        u = np.asarray(u, dtype=float)
        coin = rng.random(u.shape if u.ndim else None) < 0.5
        return np.where(coin, self._a(u), self._b(u))

    def kernel(self, v, u):
        u = np.asarray(u, dtype=float)
        return ((self._a(u) <= v).astype(float)
                + (self._b(u) <= v).astype(float)) / 2.0


class RoundRobinMap(_TwoPointMap):
    """Prop. 6: ``xi_RR(u) = (1-u)/2`` or ``(1+u)/2``, w.p. 1/2 each."""

    def __init__(self):
        super().__init__(lambda u: (1.0 - u) / 2.0,
                         lambda u: (1.0 + u) / 2.0, "rr")


class ComplementaryRoundRobinMap(_TwoPointMap):
    """``xi_CRR(u) = xi_RR(1-u)``: ``u/2`` or ``1 - u/2``, w.p. 1/2."""

    def __init__(self):
        super().__init__(lambda u: u / 2.0,
                         lambda u: 1.0 - u / 2.0, "crr")


class _ReversedMap(LimitMap):
    """Prop. 7: the reverse permutation's map is ``1 - xi(u)``."""

    def __init__(self, base: LimitMap):
        self.base = base
        self.name = f"reverse({base.name})"

    def expected_h(self, h, u):
        return self.base.expected_h(lambda x: h(1.0 - np.asarray(x)), u)

    def sample(self, u, rng):
        return 1.0 - self.base.sample(u, rng)

    def kernel(self, v, u):
        # P(1 - xi <= v) = P(xi >= 1 - v) = 1 - K((1-v)^-; u); our maps
        # are continuous or have finitely many atoms, handled exactly by
        # complementing the strict inequality with the atom at 1 - v.
        u = np.asarray(u, dtype=float)
        eps = 1e-12
        return 1.0 - self.base.kernel(1.0 - v - eps, u)


class _ComplementedMap(LimitMap):
    """Prop. 7: the complement permutation's map is ``xi(1 - u)``."""

    def __init__(self, base: LimitMap):
        self.base = base
        self.name = f"complement({base.name})"

    def expected_h(self, h, u):
        return self.base.expected_h(h, 1.0 - np.asarray(u, dtype=float))

    def sample(self, u, rng):
        return self.base.sample(1.0 - np.asarray(u, dtype=float), rng)

    def kernel(self, v, u):
        return self.base.kernel(v, 1.0 - np.asarray(u, dtype=float))


def reverse_map(base: LimitMap) -> LimitMap:
    """``xi'(u) = 1 - xi(u)`` (Proposition 7)."""
    return _ReversedMap(base)


def complement_map(base: LimitMap) -> LimitMap:
    """``xi''(u) = xi(1 - u)`` (Proposition 7)."""
    return _ComplementedMap(base)


#: Registry of the five paper maps by short name.
MAPS: dict[str, LimitMap] = {
    "ascending": AscendingMap(),
    "descending": DescendingMap(),
    "uniform": UniformMap(),
    "rr": RoundRobinMap(),
    "crr": ComplementaryRoundRobinMap(),
}


def get_map(map_or_name) -> LimitMap:
    """Resolve a :class:`LimitMap` instance or registry name."""
    if isinstance(map_or_name, LimitMap):
        return map_or_name
    m = MAPS.get(str(map_or_name).lower())
    if m is None:
        raise ValueError(
            f"unknown map {map_or_name!r}; choose from {sorted(MAPS)}")
    return m


def empirical_kernel(theta, u: float, v: float,
                     window: int | None = None) -> float:
    """The windowed kernel estimate ``K_n(v; u)`` of Definition 5 (27).

    For a concrete rank-to-label permutation ``theta`` (0-based array),
    returns the fraction of ranks within ``window`` of ``ceil(u n)``
    whose labels fall in ``[0, v n)``. With ``window = None`` the paper's
    ``k(n) = sqrt(n)``-style choice is used (``k(n) -> inf``,
    ``k(n)/n -> 0``). Admissibility means this converges in ``n`` for
    all ``(u, v)``.
    """
    theta = np.asarray(theta, dtype=np.int64)
    n = theta.size
    if n == 0:
        raise ValueError("empty permutation")
    if window is None:
        window = max(int(round(n**0.5)), 1)
    center = min(max(int(np.ceil(u * n)) - 1, 0), n - 1)
    lo = max(center - window, 0)
    hi = min(center + window, n - 1)
    block = theta[lo:hi + 1]
    return float(np.mean(block < v * n))
