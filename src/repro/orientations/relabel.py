"""Steps 1 + 2 of the paper's three-step framework: relabel and orient.

Section 2.1: (1) sort the nodes by the global order O and assign IDs
sequentially; (2) split each adjacency list into out-neighbors (smaller
new IDs) and in-neighbors (larger new IDs). Step 3 (listing) lives in
``repro.listing``.
"""

from __future__ import annotations

import numpy as np

from repro.core.costs import component_ops
from repro.engine import native
from repro.graphs.digraph import OrientedGraph, check_labels
from repro.obs import metrics as _metrics
from repro.obs.spans import span
from repro.orientations.permutations import Permutation


def degree_ranking(degrees) -> np.ndarray:
    """Vertices in ascending degree, ties by vertex ID.

    Equal to ``np.argsort(degrees, kind="stable")``: a stable sort's
    output is unique. Non-negative degrees are sorted in the narrowest
    unsigned dtype that holds the largest, which puts degrees below
    ``2**16`` on NumPy's radix sort instead of a timsort.
    """
    degrees = np.asarray(degrees, dtype=np.int64)
    if degrees.size and degrees.min() >= 0:
        degrees = degrees.astype(np.min_scalar_type(degrees.max()),
                                 copy=False)
    return np.argsort(degrees, kind="stable")


def random_tie_ranking(degrees, jitter) -> np.ndarray:
    """Vertices in ascending degree, ties in ascending ``jitter``.

    Equal to ``np.lexsort((jitter, degrees))``, but two cheaper sorts:
    order by jitter, then stably by degree. The jitter sort need not be
    stable while no two jitters are equal; if any are, it is redone
    stably, so tied jitters fall back to vertex ID as in ``lexsort``.
    """
    jitter = np.asarray(jitter)
    by_jitter = np.argsort(jitter)
    ordered = jitter[by_jitter]
    if np.any(ordered[1:] == ordered[:-1]):
        by_jitter = np.argsort(jitter, kind="stable")
    return by_jitter[degree_ranking(np.asarray(degrees)[by_jitter])]


def labels_from_rank_map(degrees, theta,
                         rng: np.random.Generator | None = None,
                         tie_break: str = "stable") -> np.ndarray:
    """Compose ascending-degree ranking with a rank-to-label map.

    ``theta[j]`` is the label given to the vertex of ascending-degree
    rank ``j``; the returned array maps *vertex ID* to label. Ties in
    degree are broken by vertex ID (``tie_break="stable"``) or uniformly
    at random (``tie_break="random"``, needs ``rng``) -- the paper leaves
    tie-breaking arbitrary.
    """
    degrees = np.asarray(degrees, dtype=np.int64)
    theta = np.asarray(theta, dtype=np.int64)
    n = degrees.size
    if theta.shape != (n,):
        raise ValueError(f"theta must have shape ({n},), got {theta.shape}")
    if tie_break == "stable":
        ranking = degree_ranking(degrees)
    elif tie_break == "random":
        if rng is None:
            raise ValueError("tie_break='random' requires an rng")
        ranking = random_tie_ranking(degrees, rng.random(n))
    else:
        raise ValueError(
            f"unknown tie_break {tie_break!r}; use 'stable' or 'random'")
    labels = np.empty(n, dtype=np.int64)
    labels[ranking] = theta
    return labels


def orient(graph, permutation: Permutation,
           rng: np.random.Generator | None = None,
           tie_break: str = "stable") -> OrientedGraph:
    """Relabel ``graph`` by ``permutation`` and orient every edge.

    Returns the :class:`~repro.graphs.digraph.OrientedGraph`
    ``G(theta_n)`` in which node IDs are the new labels and each edge
    points from the larger label to the smaller. Random permutations
    (``UniformRandom``) and random tie-breaking require ``rng``.
    """
    with span("relabel", permutation=type(permutation).__name__,
              n=graph.n):
        labels = permutation.labels_for(graph, rng=rng,
                                        tie_break=tie_break)
    return orient_labels(graph, labels)


def orient_labels(graph, labels) -> OrientedGraph:
    """Step 2 alone: orient ``graph`` under a label map already made
    (e.g. :attr:`repro.planner.plan.Plan.best_labels`)."""
    with span("orient", n=graph.n, m=graph.m):
        oriented = OrientedGraph(graph, labels)
        count_orientation(graph, labels)
    return oriented


def count_orientation(graph, labels) -> None:
    """Bump the ``orient.*`` counters for one orientation (metrics on)."""
    if _metrics.is_enabled():
        _metrics.inc("orient.runs")
        _metrics.inc("orient.edges", graph.m)
        # an edge (u, v) with u < v is "flipped" when the smaller vertex
        # ID receives the larger label (the orientation reverses ID order)
        lo, hi = graph.endpoints()
        _metrics.inc("orient.edges_flipped", int(np.count_nonzero(
            labels[lo] > labels[hi])))


def oriented_degrees(graph, labels) -> tuple[np.ndarray, np.ndarray]:
    """``(X, Y)`` -- out/in-degrees of ``G(theta)`` without the CSR.

    Two bincounts over the relabeled edges (endpoints decoded once from
    the graph's keys); with
    :func:`~repro.core.costs.component_ops`, the reference (and
    ``REPRO_NATIVE=0``) path of :func:`orientation_totals`.
    """
    labels = np.asarray(labels, dtype=np.int64)
    lo, hi = graph.endpoints()
    a, b = labels[lo], labels[hi]
    # the larger label is the edge's tail
    return (np.bincount(np.maximum(a, b), minlength=labels.size),
            np.bincount(np.minimum(a, b), minlength=labels.size))


def orientation_totals(graph, label_maps) -> np.ndarray:
    """The totals of (7)-(9) under each label map, as a ``(K, 3)`` array.

    The totals depend only on which endpoint of each edge carries the
    larger label, so no oriented CSR is built. ``label_maps`` is one
    map of shape ``(n,)`` or a ``(K, n)`` stack, each a permutation of
    ``0..n-1`` (ValueError otherwise); row ``j`` is ``(T1, T2, T3)``
    under map ``j``. One :func:`repro.engine.native.oriented_sums`
    call, or :func:`oriented_degrees` per map when it is gated.
    """
    maps = np.ascontiguousarray(np.atleast_2d(label_maps), dtype=np.int64)
    for labels in maps:
        check_labels(labels, graph.n)
    sums = native.oriented_sums(graph.keys, graph.degrees, maps)
    if sums is None:
        sums = np.array([list(component_ops(*oriented_degrees(
            graph, labels)).values()) for labels in maps],
            dtype=np.int64).reshape(-1, 3)
    return sums
