"""Forward [33] and Compact-Forward [28] baselines (section 2.4).

*Forward* (Schank-Wagner) processes nodes in descending-degree order and
maintains for each node ``v`` a dynamically growing array ``A(v)`` of
already-seen smaller-rank neighbors; each edge triggers one intersection
``A(s) \\cap A(t)``. *Compact Forward* (Latapy) removes the auxiliary
arrays by renumbering nodes by decreasing degree, sorting adjacency by
the new numbers, and intersecting truncated adjacency lists directly.
In the paper's taxonomy both implement E2 under the descending-degree
permutation.
"""

from __future__ import annotations

import numpy as np

from repro.listing.base import intersect_sorted
from repro.orientations.relabel import degree_ranking


def _descending_degree_rank(graph) -> np.ndarray:
    """rank[v]: position of v when nodes are sorted by decreasing degree."""
    order = degree_ranking(graph.degrees)[::-1]
    rank = np.empty(graph.n, dtype=np.int64)
    rank[order] = np.arange(graph.n)
    return rank


def forward_triangles(graph) -> set:
    """Schank-Wagner *Forward*: dynamic arrays + per-edge intersection.

    Returns the set of sorted vertex triples. ``A(v)`` holds the ranks of
    ``v``'s already-processed neighbors in insertion order, which is rank
    order, so the intersection is a sorted-list merge.
    """
    rank = _descending_degree_rank(graph)
    order = np.argsort(rank)  # vertices in rank order
    vertex_of_rank = order
    a_lists: list[list[int]] = [[] for __ in range(graph.n)]
    triangles = set()
    for s in vertex_of_rank:
        s = int(s)
        for t in graph.neighbors(s):
            t = int(t)
            if rank[t] <= rank[s]:
                continue  # only forward edges: s seen before t
            common, __ = intersect_sorted(a_lists[s], a_lists[t])
            for r in common:
                w = int(vertex_of_rank[r])
                triangles.add(tuple(sorted((s, t, w))))
            a_lists[t].append(int(rank[s]))
    return triangles


def compact_forward_triangles(graph) -> set:
    """Latapy's *Compact Forward*: renumber, sort, intersect in place.

    Nodes are renumbered by decreasing degree (hubs get the smallest new
    numbers); adjacency lists are sorted by new number. For each node
    ``v`` and each neighbor ``u`` with ``new(u) < new(v)``, the lists of
    ``v`` and ``u`` are merged only over entries smaller than ``new(u)``
    -- exactly the truncated intersection of [28], and E2 + theta_D in
    the paper's notation.
    """
    rank = _descending_degree_rank(graph)  # new number per vertex
    order = np.argsort(rank)
    renumbered: list[list[int]] = [
        sorted(int(rank[u]) for u in graph.neighbors(v))
        for v in range(graph.n)]
    triangles = set()
    for v_new in range(graph.n):
        v = int(order[v_new])
        for u_new in renumbered[v]:
            if u_new >= v_new:
                break  # lists are sorted; only smaller-numbered neighbors
            u = int(order[u_new])
            # intersect entries smaller than u_new in both lists
            lv = renumbered[v]
            lu = renumbered[u]
            common, __ = intersect_sorted(
                lv[:_count_below(lv, u_new)], lu[:_count_below(lu, u_new)])
            for w_new in common:
                w = int(order[w_new])
                triangles.add(tuple(sorted((v, u, w))))
    return triangles


def _count_below(sorted_list: list[int], bound: int) -> int:
    """Number of entries strictly below ``bound`` (binary search)."""
    lo, hi = 0, len(sorted_list)
    while lo < hi:
        mid = (lo + hi) // 2
        if sorted_list[mid] < bound:
            lo = mid + 1
        else:
            hi = mid
    return lo
