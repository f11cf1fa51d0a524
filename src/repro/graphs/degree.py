"""Degree-sequence utilities: graphicality, order statistics, histograms.

Section 3.1 requires degree sequences to be *graphic* (realizable by a
simple graph), which the Erdos-Gallai theorem characterizes, and works
with the ascending order statistics ``A_n`` of the sampled sequence.
"""

from __future__ import annotations

import numpy as np


def erdos_gallai_graphical(degrees) -> bool:
    """Erdos-Gallai test: can ``degrees`` be realized by a simple graph?

    A non-increasing sequence ``d_1 >= ... >= d_n`` of non-negative
    integers is graphic iff the sum is even and for every ``k``::

        sum_{i<=k} d_i  <=  k (k - 1) + sum_{i>k} min(d_i, k)

    Runs in ``O(n log n)`` (dominated by the sort) using the standard
    prefix-sum formulation. Once ``d_k <= k`` the remaining inequalities
    hold automatically, so only ``k`` up to the first such index are
    checked, all in one array pass.
    """
    d = np.sort(np.asarray(degrees, dtype=np.int64))[::-1]
    n = d.size
    if n == 0:
        return True
    if d[0] < 0:
        return False
    if d[0] >= n:
        return False
    prefix = np.cumsum(d)
    if prefix[-1] % 2 == 1:
        return False
    # d_k - k strictly decreases, and d_n <= n - 1 < n, so some k <= n
    # has d_k <= k; checking k = 1..last decides the sequence
    ks = np.arange(1, n + 1, dtype=np.int64)
    last = int(np.argmax(d <= ks)) + 1
    ks = ks[:last]
    # sum_{i>k} min(d_i, k): the entries beyond k that exceed k count k
    # each, where #{i : d_i > k} = cutoff(k); the rest count d_i, the
    # tail of the sum from position max(cutoff(k), k) on
    cutoff = n - np.searchsorted(d[::-1], ks, side="right")
    split = np.maximum(cutoff, ks)
    rhs = ks * (ks - 1) + (split - ks) * ks + (prefix[-1] - prefix[split - 1])
    return not np.any(prefix[:last] > rhs)


def ascending_order_statistics(degrees) -> np.ndarray:
    """The paper's ``A_n``: the degree sequence sorted ascending."""
    return np.sort(np.asarray(degrees, dtype=np.int64))


def degree_histogram(degrees) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(values, counts)`` of the degree multiset."""
    return np.unique(np.asarray(degrees, dtype=np.int64),
                     return_counts=True)
