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
"""

from __future__ import annotations

import numpy as np

from repro.graphs.graph import Graph, _sorted_csr
from repro.obs import memory as _memory


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
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape != (graph.n,):
            raise ValueError(
                f"labels must have shape ({graph.n},), got {labels.shape}")
        # n distinct values in range, counted without a sort
        if graph.n and (labels.min() < 0 or labels.max() >= graph.n
                        or np.count_nonzero(np.bincount(labels))
                        != graph.n):
            raise ValueError("labels must be a permutation of 0..n-1")
        self.graph = graph
        self.labels = labels
        self.n = graph.n
        self.m = graph.m

        edges = graph.edges
        a = labels[edges[:, 0]] if self.m else np.empty(0, dtype=np.int64)
        b = labels[edges[:, 1]] if self.m else np.empty(0, dtype=np.int64)
        src = np.maximum(a, b)  # larger label: the edge's tail
        dst = np.minimum(a, b)  # smaller label: the edge's head

        # out-CSR: for node i, sorted list of out-neighbors (labels < i);
        # in-CSR: for node i, sorted list of in-neighbors (labels > i).
        # The sorted keys are not kept: the key arrays stay lazy
        self._out_indices, out_counts = _sorted_csr(src, dst, self.n)
        self._out_indptr = np.concatenate(
            [[0], np.cumsum(out_counts)]).astype(np.int64)
        self._in_indices, in_counts = _sorted_csr(dst, src, self.n)
        self._in_indptr = np.concatenate(
            [[0], np.cumsum(in_counts)]).astype(np.int64)

        self.out_degrees = out_counts.astype(np.int64)
        self.in_degrees = in_counts.astype(np.int64)
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

    def out_lists(self) -> list[np.ndarray]:
        """All out-lists as array views (avoids per-call slicing cost)."""
        return [self.out_neighbors(i) for i in range(self.n)]

    def in_lists(self) -> list[np.ndarray]:
        """All in-lists as array views."""
        return [self.in_neighbors(i) for i in range(self.n)]

    def out_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """The out-adjacency as raw CSR ``(indices, indptr)`` arrays.

        Row ``i`` is ``indices[indptr[i]:indptr[i+1]]`` -- the sorted
        out-neighbors of ``i``. The vectorized engine operates on these
        directly instead of slicing per node.
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
        return pos < outs.size and outs[pos] == dst

    def original_vertex(self, label: int) -> int:
        """Map a label back to the original vertex ID."""
        if not hasattr(self, "_inverse"):
            inverse = np.empty(self.n, dtype=np.int64)
            inverse[self.labels] = np.arange(self.n)
            self._inverse = inverse
        return int(self._inverse[label])

    def __repr__(self) -> str:
        return f"OrientedGraph(n={self.n}, m={self.m})"
