"""The oriented, relabeled digraph ``G(theta_n)`` of section 2.1.

The paper's three-step preprocessing is: (1) sort nodes by a global order
and assign IDs ``1..n`` (*relabeling*); (2) direct each edge from the
larger new ID to the smaller (*orientation*), so that out-neighbors of
``y`` have smaller labels and in-neighbors have larger; (3) list
triangles ``x < y < z`` in the directed graph.

:class:`OrientedGraph` is the output of steps (1) + (2): node IDs *are*
labels (0-based here), ``out[i]`` holds the smaller-labeled neighbors and
``in[i]`` the larger-labeled ones, both sorted ascending. The
acyclicity of the orientation is immediate: every edge decreases the
label.

Every engine reads this one layout (``uint32`` indices, ``int64``
indptr, lazy ``int64`` edge keys); none keeps a copy.

Orientation only splits each adjacency list by label, so the layout is
built without a sort: :func:`_oriented_csr` runs the native counting
pass over the graph's sorted edge keys
(:func:`repro.engine.native.oriented_csr`, O(n + m)) when the compiled
library is available. Otherwise, and under ``REPRO_NATIVE=0``, it runs
the reference :func:`_sorted_oriented_csr`, which sorts the m directed
edge keys once per direction. Both give the same arrays, element for
element and dtype for dtype.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.graph import Graph, _sorted_csr
from repro.obs import memory as _memory

#: Element type of the out-/in-CSR column indices. A label must fit in
#: it, so graphs with ``n > iinfo(INDEX_DTYPE).max`` are rejected.
INDEX_DTYPE = np.uint32


def check_labels(labels, n: int) -> np.ndarray:
    """``labels`` as int64; ValueError unless a permutation of ``0..n-1``."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (n,):
        raise ValueError(f"labels must have shape ({n},), got {labels.shape}")
    # n distinct values in range, counted without a sort
    if n and (labels.min() < 0 or labels.max() >= n
              or np.count_nonzero(np.bincount(labels)) != n):
        raise ValueError("labels must be a permutation of 0..n-1")
    return labels


def _sorted_oriented_csr(graph: Graph, labels: np.ndarray):
    """The reference build of :func:`_oriented_csr`: two sorts.

    Decodes the keys, relabels both endpoints and sorts the m directed
    keys once by ``(tail, head)`` for the out-CSR and once by
    ``(head, tail)`` for the in-CSR (:func:`_sorted_csr`).
    """
    n = graph.n
    # the decoded endpoints' buffers are reused for the labels, so
    # at most three m-sized temporaries are alive at once
    lo, hi = graph.endpoints()
    a = labels[lo]
    b = np.take(labels, hi, out=lo)
    src = np.maximum(a, b, out=hi)  # larger label: the edge's tail
    dst = np.minimum(a, b, out=a)  # smaller label: the edge's head
    del lo, hi, a, b

    # out-CSR: for node i, sorted list of out-neighbors (labels < i);
    # in-CSR: for node i, sorted list of in-neighbors (labels > i).
    # The sorted keys are not kept: the key arrays stay lazy
    out_indices, out_counts = _sorted_csr(src, dst, n, dtype=INDEX_DTYPE)
    out_indptr = np.concatenate([[0], np.cumsum(out_counts)]).astype(np.int64)
    in_indices, in_counts = _sorted_csr(dst, src, n, dtype=INDEX_DTYPE)
    in_indptr = np.concatenate([[0], np.cumsum(in_counts)]).astype(np.int64)
    return out_indices, out_indptr, in_indices, in_indptr


def _oriented_csr(graph: Graph, labels: np.ndarray):
    """``(out_indices, out_indptr, in_indices, in_indptr)`` of the
    orientation of ``graph`` by the checked permutation ``labels``.

    The only code that builds :class:`OrientedGraph`'s CSR: the native
    counting pass over the sorted keys
    (:func:`repro.engine.native.oriented_csr`) when the compiled library
    is available, else the reference :func:`_sorted_oriented_csr`. Both
    give the same arrays, element for element and dtype for dtype.
    """
    from repro.engine import native  # lazy: engine imports graphs
    built = native.oriented_csr(graph.keys, np.ascontiguousarray(labels))
    if built is not None:
        return built
    return _sorted_oriented_csr(graph, labels)


class OrientedGraph:
    """Relabeled acyclic orientation of a simple undirected graph.

    Parameters
    ----------
    graph:
        The undirected source graph.
    labels:
        Permutation array of shape ``(n,)``: ``labels[v]`` is the new ID
        of original vertex ``v``. The orientation directs each edge from
        the endpoint with the larger label to the one with the smaller.

    Attributes
    ----------
    out_degrees:
        ``X_i(theta)`` -- out-degree per (relabeled) node.
    in_degrees:
        ``Y_i(theta)`` -- in-degree per node.
    degrees:
        ``d_i(theta) = X_i + Y_i``, the total degree in label order.
    """

    def __init__(self, graph: Graph, labels):
        if graph.n > np.iinfo(INDEX_DTYPE).max:
            raise ValueError(
                f"n = {graph.n} does not fit the {np.dtype(INDEX_DTYPE)} "
                f"CSR indices (n must be below 2**32)")
        labels = check_labels(labels, graph.n)
        self.graph = graph
        self.labels = labels
        self.n = graph.n
        self.m = graph.m

        (self._out_indices, self._out_indptr,
         self._in_indices, self._in_indptr) = _oriented_csr(graph, labels)
        self.out_degrees = np.diff(self._out_indptr)
        self.in_degrees = np.diff(self._in_indptr)
        self.degrees = self.out_degrees + self.in_degrees
        self._edge_keys: set | None = None
        self._out_keys: np.ndarray | None = None
        self._in_keys: np.ndarray | None = None

        if _memory.is_enabled():
            _memory.track(self, "graph.csr",
                          (self._out_indices, self._out_indptr,
                           self._in_indices, self._in_indptr))
            _memory.track(self, "graph.degrees",
                          (self.out_degrees, self.in_degrees,
                           self.degrees))

    def out_neighbors(self, i: int) -> np.ndarray:
        """``N+(i)``: neighbors with smaller labels, sorted ascending."""
        return self._out_indices[self._out_indptr[i]:self._out_indptr[i + 1]]

    def in_neighbors(self, i: int) -> np.ndarray:
        """``N-(i)``: neighbors with larger labels, sorted ascending."""
        return self._in_indices[self._in_indptr[i]:self._in_indptr[i + 1]]

    def out_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """The out-adjacency as raw CSR ``(indices, indptr)`` arrays.

        Row ``i`` is ``indices[indptr[i]:indptr[i+1]]`` -- the sorted
        out-neighbors of ``i``; ``indices`` is :data:`INDEX_DTYPE`,
        ``indptr`` int64. Every engine operates on these directly
        (never on a copy) instead of slicing per node.
        """
        return self._out_indices, self._out_indptr

    def in_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """The in-adjacency as raw CSR ``(indices, indptr)`` arrays."""
        return self._in_indices, self._in_indptr

    def out_key_array(self) -> np.ndarray:
        """Directed edges as sorted int64 keys ``src * n + dst``.

        Because the out-CSR is ordered by ``(src, dst)``, the key array
        is globally sorted ascending -- so edge existence is a binary
        search (``np.searchsorted``) and prefix/suffix windows of any
        out-list are ``searchsorted`` bounds on this array. Cached.
        """
        if self._out_keys is None:
            rows = np.repeat(np.arange(self.n, dtype=np.int64),
                             self.out_degrees)
            self._out_keys = rows * np.int64(self.n) + self._out_indices
            _memory.track(self, "graph.keys", (self._out_keys,))
        return self._out_keys

    def in_key_array(self) -> np.ndarray:
        """Reverse-direction keys ``dst * n + src``, sorted ascending.

        The in-CSR analogue of :meth:`out_key_array`: window bounds for
        in-lists (``N-(v)`` restricted above/below a label) become
        ``searchsorted`` calls on this array. Cached.
        """
        if self._in_keys is None:
            rows = np.repeat(np.arange(self.n, dtype=np.int64),
                             self.in_degrees)
            self._in_keys = rows * np.int64(self.n) + self._in_indices
            _memory.track(self, "graph.keys", (self._in_keys,))
        return self._in_keys

    def edge_key_set(self) -> set:
        """Hash set of directed edges encoded as ``src * n + dst``.

        This is the edge-existence hash table the vertex iterators probe
        (section 2.2). Built lazily and cached.
        """
        if self._edge_keys is None:
            self._edge_keys = set(self.out_key_array().tolist())
        return self._edge_keys

    def has_directed_edge(self, src: int, dst: int) -> bool:
        """Is there an edge ``src -> dst``? (Requires ``src > dst``.)"""
        outs = self.out_neighbors(src)
        pos = int(np.searchsorted(outs, dst))
        return pos < outs.size and bool(outs[pos] == dst)

    def original_vertex(self, label: int) -> int:
        """Map a label back to the original vertex ID."""
        if not hasattr(self, "_inverse"):
            inverse = np.empty(self.n, dtype=np.int64)
            inverse[self.labels] = np.arange(self.n)
            self._inverse = inverse
        return int(self._inverse[label])

    def __repr__(self) -> str:
        return f"OrientedGraph(n={self.n}, m={self.m})"
