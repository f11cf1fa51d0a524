"""Simple undirected graph with sorted adjacency lists (CSR layout).

Matches the paper's standing assumption (section 2): "adjacency lists in
graphs are sorted ascending by node ID". Nodes are 0-based integers
``0..n-1`` (the paper writes ``1..n``; the shift is purely cosmetic).
"""

from __future__ import annotations

import numpy as np


def _sorted_csr(rows: np.ndarray, cols: np.ndarray, n: int,
                check_duplicates: bool = False):
    """Column indices sorted by ``(row, col)``, and per-row counts.

    One sort of the int64 keys ``row * n + col``: the sorted keys
    decode back to columns by subtracting each key's ``row * n``, and
    a repeated ``(row, col)`` pair is an equal adjacent pair of keys.
    """
    width = np.int64(n)
    keys = rows * width + cols
    keys.sort()
    if check_duplicates and np.any(keys[1:] == keys[:-1]):
        raise ValueError("duplicate edges are not allowed")
    counts = np.bincount(rows, minlength=n)
    keys -= np.repeat(np.arange(n, dtype=np.int64) * width, counts)
    return keys, counts


class Graph:
    """Immutable simple undirected graph in CSR form.

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
        # CSR over both directions; an edge listed twice (in either
        # orientation) shows up as an equal pair of sorted keys
        self._indices, counts = _sorted_csr(
            np.concatenate([lo, hi]), np.concatenate([hi, lo]), n,
            check_duplicates=True)
        self.n = int(n)
        self.m = int(edges.shape[0])
        self._edges = np.column_stack([lo, hi]) if edges.size else (
            np.empty((0, 2), dtype=np.int64))
        self._indptr = np.concatenate(
            [[0], np.cumsum(counts)]).astype(np.int64)
        self._degrees = counts.astype(np.int64)

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
        neighbors of ``v``, each edge stored in both directions.
        """
        return self._indices, self._indptr

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor IDs of ``v`` (a view into the CSR arrays)."""
        return self._indices[self._indptr[v]:self._indptr[v + 1]]

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
