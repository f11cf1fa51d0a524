"""Chiba-Nishizeki triangle listing [13] (section 1.1, 2.4).

The 1985 algorithm: visit nodes in descending order of degree, mark the
current node's neighbors, scan each neighbor's adjacency for marked
nodes, then *remove* the node from the graph. Its CPU complexity is
``O(delta * m)`` where ``delta`` is the arboricity. The paper notes it
is a variation of L3 in which the acyclic orientation holds for only two
of a triangle's three edges, giving it ``c_n(E1, theta)`` cost rather
than ``c_n(T2, theta)``.
"""

from __future__ import annotations

import numpy as np

from repro.orientations.relabel import degree_ranking


def chiba_nishizeki_triangles(graph, count_ops: bool = False):
    """List all triangles with the Chiba-Nishizeki procedure.

    Returns the set of sorted vertex triples (or ``(set, ops)`` when
    ``count_ops``). Node removal is emulated with a ``removed`` flag;
    neighbor scans skip removed nodes, which preserves the algorithm's
    complexity class (each edge is scanned a bounded number of times
    before an endpoint disappears).

    ``ops`` counts the *live* pair examinations -- one per still-present
    ``w`` in each scanned neighbor list. Section 2.4's claim, verified
    exactly by the tests: this total equals ``n * c_n(E3, theta)`` where
    ``theta`` labels nodes by reverse processing order (hubs largest --
    the ascending-degree relabeling), because each scan of ``N(u)`` at
    time ``v`` touches ``X_u`` out-neighbors plus the in-neighbors of
    ``u`` processed after ``v`` -- summing to the T3 + T2 decomposition
    of the E1 equivalence class, *not* the bare ``c_n(T2, theta)`` a
    fully oriented L3 would pay.
    """
    order = degree_ranking(graph.degrees)[::-1]
    removed = np.zeros(graph.n, dtype=bool)
    marked = np.zeros(graph.n, dtype=bool)
    triangles = set()
    ops = 0
    for v in order:
        v = int(v)
        live_neighbors = [int(u) for u in graph.neighbors(v)
                          if not removed[u]]
        for u in live_neighbors:
            marked[u] = True
        for u in live_neighbors:
            # unmark u first so each triangle v-u-w is found exactly once
            # (when the scan reaches the *second* of u, w in the list)
            marked[u] = False
            for w in graph.neighbors(u):
                w = int(w)
                if removed[w]:
                    continue
                ops += 1
                if marked[w]:
                    triangles.add(tuple(sorted((v, u, w))))
        for u in live_neighbors:
            marked[u] = False
        removed[v] = True
    if count_ops:
        return triangles, ops
    return triangles


def chiba_nishizeki_processing_labels(graph) -> np.ndarray:
    """Labels matching CN's removal order: first removed = largest.

    Orienting the graph by these labels reproduces the acyclic
    structure CN implicitly walks, which is what makes the exact ops
    accounting above testable against the E3 cost formula.
    """
    order = degree_ranking(graph.degrees)[::-1]
    labels = np.empty(graph.n, dtype=np.int64)
    labels[order] = np.arange(graph.n - 1, -1, -1, dtype=np.int64)
    return labels
