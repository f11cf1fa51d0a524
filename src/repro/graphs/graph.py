"""Simple undirected graph with sorted adjacency lists (CSR layout).

Matches the paper's standing assumption (section 2): "adjacency lists in
graphs are sorted ascending by node ID". Nodes are 0-based integers
``0..n-1`` (the paper writes ``1..n``; the shift is purely cosmetic).
The symmetric 2m-entry CSR is built on the first :meth:`Graph.csr` call:
degree-ranked relabeling and orientation pricing read only the edges
and degrees, so a Monte-Carlo cell under such an ordering never builds it.
"""

from __future__ import annotations

import numpy as np


def _sorted_csr(rows: np.ndarray, cols: np.ndarray, n: int,
                dtype=np.int64):
    """Column indices sorted by ``(row, col)``, and per-row counts.

    One sort of the int64 keys ``row * n + col``: the sorted keys
    decode back to columns by subtracting each key's ``row * n``.
    The columns come back as ``dtype``, decoded straight into it (in
    place for int64), so a narrower layout costs no extra pass.
    """
    width = np.int64(n)
    keys = rows * width + cols
    keys.sort()
    counts = np.bincount(rows, minlength=n)
    out = keys if np.dtype(dtype) == keys.dtype else np.empty(
        keys.size, dtype=dtype)
    np.subtract(keys, np.repeat(np.arange(n, dtype=np.int64) * width,
                                counts), out=out, casting="unsafe")
    return out, counts


class Graph:
    """Immutable simple undirected graph; CSR adjacency on demand.

    Parameters
    ----------
    n:
        Number of nodes (IDs ``0..n-1``). Isolated nodes are allowed.
    edges:
        Array-like of shape ``(m, 2)``. Self-loops are rejected;
        duplicate edges (in either orientation) are rejected -- the
        generators are responsible for producing simple graphs, and a
        silent dedup here would mask generator bugs.
    """

    def __init__(self, n: int, edges):
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if edges.size and (edges.min() < 0 or edges.max() >= n):
            raise ValueError("edge endpoint out of range")
        if edges.size and np.any(edges[:, 0] == edges[:, 1]):
            raise ValueError("self-loops are not allowed in a simple graph")
        # canonicalize each edge as (min, max)
        lo = np.minimum(edges[:, 0], edges[:, 1])
        hi = np.maximum(edges[:, 0], edges[:, 1])
        # a repeated edge is an equal pair of sorted keys; presorted
        # input (the configuration model's) skips the sort
        keys = lo * np.int64(n) + hi
        if not np.all(keys[1:] > keys[:-1]):
            keys.sort()
            if np.any(keys[1:] == keys[:-1]):
                raise ValueError("duplicate edges are not allowed")
        self.n = int(n)
        self.m = int(edges.shape[0])
        self._edges = np.column_stack([lo, hi])
        self._degrees = (np.bincount(lo, minlength=n)
                         + np.bincount(hi, minlength=n)).astype(np.int64)
        self._csr: tuple[np.ndarray, np.ndarray] | None = None

    @classmethod
    def from_edge_list(cls, edges, n: int | None = None) -> "Graph":
        """Build from an iterable of ``(u, v)`` pairs.

        When ``n`` is omitted it is inferred as ``max ID + 1``.
        """
        edges = np.asarray(list(edges), dtype=np.int64).reshape(-1, 2)
        if n is None:
            n = int(edges.max()) + 1 if edges.size else 0
        return cls(n, edges)

    @property
    def degrees(self) -> np.ndarray:
        """Degree of every node, shape ``(n,)``."""
        return self._degrees

    @property
    def edges(self) -> np.ndarray:
        """Canonical edge array of shape ``(m, 2)`` with ``u < v``."""
        return self._edges

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """The adjacency as raw CSR ``(indices, indptr)`` int64 arrays.

        Row ``v`` is ``indices[indptr[v]:indptr[v+1]]`` -- the sorted
        neighbors of ``v``, each edge stored in both directions. Built
        on the first call and cached.
        """
        if self._csr is None:
            lo, hi = self._edges.T
            indices, __ = _sorted_csr(np.concatenate([lo, hi]),
                                      np.concatenate([hi, lo]), self.n)
            self._csr = indices, np.concatenate([[0], self._degrees.cumsum()])
        return self._csr

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor IDs of ``v`` (a view into the CSR arrays)."""
        indices, indptr = self.csr()
        return indices[indptr[v]:indptr[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        """Membership test via binary search in the sorted list."""
        if u == v:
            return False
        nbrs = self.neighbors(u)
        pos = int(np.searchsorted(nbrs, v))
        return pos < nbrs.size and nbrs[pos] == v

    def adjacency_sets(self) -> list[set]:
        """Neighbor sets per node, for hash-based algorithms."""
        return [set(self.neighbors(v).tolist()) for v in range(self.n)]

    def triangle_count_reference(self) -> int:
        """Exact triangle count via trace(A^3)/6 on a dense matrix.

        Only intended for small test graphs (dense ``n x n`` memory).
        """
        if self.n > 4000:
            raise ValueError("dense reference count limited to n <= 4000")
        a = np.zeros((self.n, self.n), dtype=np.int64)
        if self.m:
            a[self._edges[:, 0], self._edges[:, 1]] = 1
            a[self._edges[:, 1], self._edges[:, 0]] = 1
        return int(np.trace(a @ a @ a) // 6)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"
