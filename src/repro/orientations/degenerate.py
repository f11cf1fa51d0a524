"""Degenerate (smallest-last) orientation of Matula and Beck [29].

Section 1.1 and 7.5: the *degenerate* orientation minimizes the largest
out-degree, ``min_theta max_i X_i(theta)``, achieving out-degrees bounded
by the graph's degeneracy. It is computable in ``O(n + m)`` with the
smallest-last ordering: repeatedly delete a minimum-degree vertex; the
reverse deletion order is the ordering.

To express it in the paper's label framework we give the *first deleted*
vertex the *largest* label: when a vertex is deleted, its still-present
neighbors are deleted later and therefore receive smaller labels, so they
are exactly its out-neighbors -- making each out-degree equal to the
vertex's degree at deletion time, which is at most the degeneracy.

:func:`smallest_last_order` has two paths with one output. When the
compiled library is available (:func:`repro.engine.native.available`)
it runs the bucket queue in C (``native.smallest_last``) straight from
the graph's sorted edge keys: the C pass lays out its own uint32
neighbour rows in :meth:`Graph.csr`'s order and frees them before it
returns, so the graph's CSR is never built. Otherwise, e.g. under
``REPRO_NATIVE=0``, it runs :func:`_smallest_last_python`, the
reference loop over :meth:`Graph.neighbors`. The C loop mirrors the
Python one op for op -- each bucket a stack, removal by
swap-with-last, the scan restarting at ``max(current - 1, 0)``,
neighbors visited in CSR order -- so the deletion order and the
degeneracy are bit-identical, ties included.
"""

from __future__ import annotations

import numpy as np

from repro.engine import native
from repro.orientations.permutations import Permutation


def smallest_last_order(graph) -> tuple[np.ndarray, int]:
    """Return ``(deletion_order, degeneracy)`` via a bucket queue.

    ``deletion_order[k]`` is the vertex removed at step ``k`` (a
    minimum-degree vertex of the residual graph). Runs in ``O(n + m)``,
    in C from ``graph.keys`` when the native library is available,
    without building ``graph.csr()``.
    """
    result = native.smallest_last(graph.keys, graph.degrees)
    if result is None:
        result = _smallest_last_python(graph)
    return result


def _smallest_last_python(graph) -> tuple[np.ndarray, int]:
    """The Python bucket queue: reference and ``REPRO_NATIVE=0`` path."""
    n = graph.n
    degree = graph.degrees.copy()
    max_deg = int(degree.max()) if n else 0
    # bucket queue: doubly indexed by current degree
    buckets: list[list[int]] = [[] for __ in range(max_deg + 1)]
    position = np.empty(n, dtype=np.int64)
    for v in range(n):
        d = int(degree[v])
        position[v] = len(buckets[d])
        buckets[d].append(v)
    removed = np.zeros(n, dtype=bool)
    order = np.empty(n, dtype=np.int64)
    degeneracy = 0
    current = 0
    for step in range(n):
        # find the lowest non-empty bucket; `current` can only have
        # decreased by 1 per removal, so this scan is amortized O(n + m)
        current = max(current - 1, 0)
        while current <= max_deg and not buckets[current]:
            current += 1
        v = buckets[current].pop()
        removed[v] = True
        order[step] = v
        degeneracy = max(degeneracy, current)
        for u in graph.neighbors(v):
            u = int(u)
            if removed[u]:
                continue
            d = int(degree[u])
            # move u from bucket d to bucket d-1 (swap-with-last delete)
            bucket = buckets[d]
            pos = int(position[u])
            last = bucket[-1]
            bucket[pos] = last
            position[last] = pos
            bucket.pop()
            degree[u] = d - 1
            position[u] = len(buckets[d - 1])
            buckets[d - 1].append(u)
    return order, degeneracy


class DegenerateOrder(Permutation):
    """``theta_degen``: labels from the smallest-last ordering [29].

    Unlike the degree-based permutations this one needs the full edge
    structure, so it overrides :meth:`labels_for`; asking it for a bare
    rank-to-label map raises.
    """

    def rank_to_label(self, n, rng=None):
        raise TypeError(
            "DegenerateOrder depends on the graph structure; use "
            "labels_for(graph) / orient(graph, DegenerateOrder())")

    def labels_for(self, graph, rng=None, tie_break="stable"):
        order, __ = smallest_last_order(graph)
        labels = np.empty(graph.n, dtype=np.int64)
        # first deleted -> largest label
        labels[order] = np.arange(graph.n - 1, -1, -1, dtype=np.int64)
        return labels
