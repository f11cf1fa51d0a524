"""The permutation zoo: ascending, descending, RR, CRR, uniform, OPT.

Conventions (paper section 2.1 / section 4, shifted to 0-based indexing):

* A :class:`Permutation` produces an array ``theta`` of length ``n`` with
  ``theta[j]`` the *label* assigned to the node of ascending-degree rank
  ``j`` (rank 0 = smallest degree). ``theta`` is a bijection on
  ``{0, ..., n-1}``.
* The ascending permutation is the identity, the descending one is
  ``theta[j] = n - 1 - j``.
* Round-Robin, eq. (32) (1-based): ``theta(i) = ceil((n+i)/2)`` for odd
  ``i`` and ``floor((n-i)/2) + 1`` for even ``i`` -- it alternately deals
  ranks outward so the largest degrees land at both ends of ``[1, n]``.
* Complementary Round-Robin applies RR starting from the *descending*
  order: ``theta''(i) = theta(n - i + 1)``, pushing large degrees toward
  the middle.
* :class:`OptPermutation` is Algorithm 1: sort the key vector
  ``(h(1/n), ..., h(1))`` against the monotonicity of
  ``r(x) = g(J^{-1}(x)) / w(J^{-1}(x))`` and read off the label order.
"""

from __future__ import annotations

import abc
from typing import Callable

import numpy as np


class Permutation(abc.ABC):
    """Abstract rank-to-label permutation ``theta_n``.

    Subclasses implement :meth:`rank_to_label`. Degree-*independent*
    orientations (the degenerate order of [29]) instead override
    :meth:`labels_for`, which receives the graph.
    """

    #: Whether the permutation itself is random (uniform orientation).
    is_random: bool = False

    @abc.abstractmethod
    def rank_to_label(self, n: int,
                      rng: np.random.Generator | None = None) -> np.ndarray:
        """Return ``theta`` with ``theta[j]`` = label of ascending rank ``j``."""

    def labels_for(self, graph, rng: np.random.Generator | None = None,
                   tie_break: str = "stable") -> np.ndarray:
        """Per-vertex labels for ``graph`` under this permutation.

        Vertices are first sorted ascending by degree; ``tie_break``
        decides the order within equal degrees: ``"stable"`` keeps vertex
        ID order (deterministic), ``"random"`` shuffles ties (requires
        ``rng``), mirroring the paper's "ties are broken arbitrarily".
        """
        return self.labels_for_degrees(graph.degrees, rng=rng,
                                       tie_break=tie_break)

    def labels_for_degrees(self, degrees,
                           rng: np.random.Generator | None = None,
                           tie_break: str = "stable") -> np.ndarray:
        """:meth:`labels_for` from the degree sequence alone, with the
        same ``rng`` draws: a degree-ranked map needs no edges."""
        from repro.orientations.relabel import labels_from_rank_map
        theta = self.rank_to_label(len(degrees), rng)
        return labels_from_rank_map(degrees, theta, rng=rng,
                                    tie_break=tie_break)

    def labels_with_out_degrees(self, graph,
                                rng: np.random.Generator | None = None,
                                tie_break: str = "stable"):
        """``(labels, out_degrees)``: :meth:`labels_for` and, when
        computing the labels already yields them, the out-degrees of
        ``G(theta)`` (else ``None``)."""
        return self.labels_for(graph, rng=rng, tie_break=tie_break), None

    @property
    def name(self) -> str:
        return type(self).__name__

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class AscendingDegree(Permutation):
    """``theta_A``: identity on ranks -- small degrees get small labels."""

    def rank_to_label(self, n, rng=None):
        return np.arange(n, dtype=np.int64)


class DescendingDegree(Permutation):
    """``theta_D``: rank reversal -- large degrees get small labels.

    Optimal for T1 and E1 (Corollary 1): the largest degrees become
    mostly in-degree, keeping out-degrees (and hence ``X(X-1)/2``) small.
    """

    def rank_to_label(self, n, rng=None):
        return np.arange(n - 1, -1, -1, dtype=np.int64)


class RoundRobin(Permutation):
    """``theta_RR`` of eq. (32): deals large degrees to both ends.

    Optimal for T2 (Corollary 2), whose ``h(x) = x (1 - x)`` is smallest
    at the boundary of ``[0, 1]``.
    """

    def rank_to_label(self, n, rng=None):
        theta = np.empty(n, dtype=np.int64)
        i = np.arange(1, n + 1, dtype=np.int64)  # paper's 1-based rank
        # odd i -> ceil((n + i) / 2), even i -> floor((n - i) / 2) + 1,
        # each minus 1 for 0-based labels
        theta[0::2] = (n + i[0::2] + 1) // 2 - 1
        theta[1::2] = (n - i[1::2]) // 2
        return theta


class ComplementaryRoundRobin(Permutation):
    """``theta_CRR = theta_RR''``: RR applied from the descending order.

    Places large degrees toward the middle of ``[1, n]``; optimal for E4
    (Corollary 2), whose ``h(x) = (x^2 + (1-x)^2)/2`` dips at ``x = 1/2``.
    """

    def rank_to_label(self, n, rng=None):
        return RoundRobin().rank_to_label(n, rng)[::-1].copy()


class UniformRandom(Permutation):
    """``theta_U``: a uniformly random bijection (hash-based IDs, [14]).

    Its limiting map ``xi_U(u)`` is uniform on ``[0, 1]`` regardless of
    ``u``; the cost becomes ``E[g(D)] E[h(U)]`` (eq. (31)), a 3x saving
    over no orientation for every method.
    """

    is_random = True

    def rank_to_label(self, n, rng=None):
        if rng is None:
            raise ValueError("UniformRandom requires an rng")
        return rng.permutation(n).astype(np.int64)


class ExplicitPermutation(Permutation):
    """Wrap a user-supplied rank-to-label array."""

    def __init__(self, theta):
        theta = np.asarray(theta, dtype=np.int64)
        n = theta.size
        if np.unique(theta).size != n or (
                n and (theta.min() != 0 or theta.max() != n - 1)):
            raise ValueError("theta must be a permutation of 0..n-1")
        self._theta = theta

    def rank_to_label(self, n, rng=None):
        if n != self._theta.size:
            raise ValueError(
                f"permutation built for n={self._theta.size}, asked for {n}")
        return self._theta.copy()


class OptPermutation(Permutation):
    """Algorithm 1: the cost-minimizing permutation for monotonic r(x).

    Builds the key vector ``z = (h(1/n), ..., h(1))``, sorts it
    *descending* when ``r`` is increasing (ascending otherwise), and
    assigns ``theta[j] = i_j`` -- the rank-``j`` node receives the label
    whose ``h`` value sits at sorted position ``j``. Theorem 3 proves
    this minimizes the cost functional (37).

    Parameters
    ----------
    h:
        The method's ``h`` function (Table 4), vectorized over arrays.
    r_increasing:
        Monotonicity of ``r(x) = g(J^{-1}(x)) / w(J^{-1}(x))``. For
        triangle listing with ``w(x) = min(x, a)`` this is increasing
        (section 6.1), which is the default.
    """

    def __init__(self, h: Callable[[np.ndarray], np.ndarray],
                 r_increasing: bool = True):
        self.h = h
        self.r_increasing = r_increasing

    def rank_to_label(self, n, rng=None):
        positions = np.arange(1, n + 1, dtype=float)
        keys = np.asarray(self.h(positions / n), dtype=float)
        if keys.shape != (n,):
            raise ValueError("h must map an (n,) array to an (n,) array")
        # stable sort so ties keep a deterministic order
        order = np.argsort(keys, kind="stable")
        if self.r_increasing:
            order = order[::-1]
        return order.astype(np.int64)

    def __repr__(self) -> str:
        return (f"OptPermutation(h={getattr(self.h, '__name__', self.h)!r}, "
                f"r_increasing={self.r_increasing})")


class _ReversedPermutation(Permutation):
    """``theta'(j) = n - 1 - theta(j)`` (Proposition 1 / 7)."""

    def __init__(self, base: Permutation):
        self.base = base
        self.is_random = base.is_random

    def rank_to_label(self, n, rng=None):
        return (n - 1) - self.base.rank_to_label(n, rng)

    def __repr__(self) -> str:
        return f"reverse({self.base!r})"


class _ComplementedPermutation(Permutation):
    """``theta''(j) = theta(n - 1 - j)`` (section 5.3 / Proposition 7)."""

    def __init__(self, base: Permutation):
        self.base = base
        self.is_random = base.is_random

    def rank_to_label(self, n, rng=None):
        return self.base.rank_to_label(n, rng)[::-1].copy()

    def __repr__(self) -> str:
        return f"complement({self.base!r})"


def reverse_permutation(perm: Permutation) -> Permutation:
    """The reverse ``theta'``: swaps the roles of out- and in-degree.

    Proposition 1: reversing the permutation swaps ``X_i`` with ``Y_i``
    in every overhead function, which is what makes T1/T3 (and E1/E3)
    equivalence classes.
    """
    return _ReversedPermutation(perm)


def complement_permutation(perm: Permutation) -> Permutation:
    """The complement ``theta''``: applies theta from the descending order.

    Corollary 3: a map is optimal for a method iff its complement is the
    worst, so this is also the "pessimal permutation" constructor.
    """
    return _ComplementedPermutation(perm)
