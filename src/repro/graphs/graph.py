"""Simple undirected graph stored as one sorted array of edge keys.

Matches the paper's standing assumption (section 2): "adjacency lists in
graphs are sorted ascending by node ID". Nodes are 0-based integers
``0..n-1`` (the paper writes ``1..n``; the shift is purely cosmetic).

The one stored form of the edges is the strictly increasing int64 key
array ``lo * n + hi`` (``lo < hi``), 8 bytes per edge. Every other view
derives from it on demand:

* :attr:`Graph.edges` decodes the ``(m, 2)`` pairs on each access, in
  sorted ``(u, v)`` order whatever order the edges were given in (so
  :func:`repro.graphs.io.save_edge_list` writes them in that order, and
  :func:`repro.graphs.analysis.empirical_spread_sample` indexes it);
  :meth:`Graph.endpoints` decodes the two columns once for callers that
  need both;
* the symmetric 2m-entry CSR is built on the first :meth:`Graph.csr`
  call, by one sort of the 2m directed keys. Only the Python reference
  loops and baselines read it: relabeling (degree-ranked or, in C, the
  smallest-last order), orientation pricing and the oriented CSR read
  only the keys and degrees, so a Monte-Carlo cell never builds it.

The generators hand their sorted keys over through
:meth:`Graph._from_keys`, which copies and sorts nothing but still
checks them in O(m); the public constructor takes edges in any order
and orientation and ends in the same checks. Keys are ``int64``, so
``n`` is capped at :data:`MAX_KEYED_N`.
"""

from __future__ import annotations

import math

import numpy as np

from repro.obs import memory as _memory

#: Largest ``n`` whose keys ``lo * n + hi`` (and the bound ``n * n``)
#: fit in int64: ``isqrt(2**63 - 1)``. Both constructors reject more.
MAX_KEYED_N = math.isqrt(2**63 - 1)


def _sorted_csr(rows: np.ndarray, cols: np.ndarray, n: int,
                dtype=np.int64):
    """Column indices sorted by ``(row, col)``, and per-row counts.

    One sort of the int64 keys ``row * n + col``: the sorted keys
    decode back to columns as ``key % n``. The columns come back as
    ``dtype``, decoded straight into it (in place for int64), so a
    narrower layout costs no extra pass and no m-sized temporary.
    """
    width = np.int64(max(n, 1))
    keys = rows * width
    keys += cols
    keys.sort()
    counts = np.bincount(rows, minlength=n)
    out = keys if np.dtype(dtype) == keys.dtype else np.empty(
        keys.size, dtype=dtype)
    np.remainder(keys, width, out=out, casting="unsafe")
    return out, counts


def _decode(keys: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(lo, hi)`` of the keys ``lo * n + hi``."""
    width = np.int64(max(n, 1))
    lo = keys // width
    hi = lo * width
    np.subtract(keys, hi, out=hi)
    return lo, hi


def _check_n(n: int) -> None:
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if n > MAX_KEYED_N:
        raise ValueError(
            f"n = {n} overflows the int64 edge keys lo * n + hi "
            f"(n must be at most {MAX_KEYED_N})")


def _undirected_csr(keys: np.ndarray, degrees: np.ndarray, n: int):
    """The symmetric CSR ``(indices, indptr)`` of the keyed graph.

    The only code that builds :meth:`Graph.csr`: one sort of the 2m
    directed keys (:func:`_sorted_csr`), and the prefix sums of the
    degrees as the row offsets.
    """
    lo, hi = _decode(keys, n)
    indices, __ = _sorted_csr(np.concatenate([lo, hi]),
                              np.concatenate([hi, lo]), n)
    return indices, np.concatenate([[0], degrees.cumsum()])


#: Why :meth:`Graph._adopt` refuses a key array, by the fault code of
#: :func:`repro.engine.native.adopt_keys`, in the order it checks.
_KEY_FAULTS = {
    1: "edge keys must be strictly increasing",
    2: "edge key out of range: keys must lie in [0, n * n)",
    3: "self-loops are not allowed in a simple graph",
}


def _key_degrees(keys: np.ndarray, n: int) -> np.ndarray:
    """The int64 degrees of the checked keys ``lo * n + hi``.

    ValueError unless the keys are strictly increasing, in
    ``[0, n * n)`` and have ``lo < hi``; the first failed check, in that
    order, names the fault. The native pass
    (:func:`repro.engine.native.adopt_keys`) walks the keys once with
    no temporary when the compiled library is available; the reference
    decodes them into two m-sized arrays and runs two bincounts. Both
    raise the same message and count the same degrees.
    """
    from repro.engine import native  # lazy: engine imports graphs
    adopted = native.adopt_keys(keys, n)
    if adopted is not None:
        fault, degrees = adopted
        if fault:
            raise ValueError(_KEY_FAULTS[fault])
        return degrees
    if keys.size:
        if not np.all(keys[1:] > keys[:-1]):
            raise ValueError(_KEY_FAULTS[1])
        if keys[0] < 0 or keys[-1] >= np.int64(n) * np.int64(n):
            raise ValueError(_KEY_FAULTS[2])
    lo, hi = _decode(keys, n)
    if np.any(lo >= hi):
        raise ValueError(_KEY_FAULTS[3])
    degrees = np.bincount(lo, minlength=n)
    degrees += np.bincount(hi, minlength=n)
    return degrees.astype(np.int64, copy=False)


class Graph:
    """Immutable simple undirected graph over sorted edge keys.

    Parameters
    ----------
    n:
        Number of nodes (IDs ``0..n-1``), at most :data:`MAX_KEYED_N`.
        Isolated nodes are allowed.
    edges:
        Array-like of shape ``(m, 2)``, in any order and orientation.
        Self-loops are rejected; duplicate edges (in either
        orientation) are rejected -- the generators are responsible for
        producing simple graphs, and a silent dedup here would mask
        generator bugs.
    """

    def __init__(self, n: int, edges):
        _check_n(n)
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if edges.size and (edges.min() < 0 or edges.max() >= n):
            raise ValueError("edge endpoint out of range")
        if edges.size and np.any(edges[:, 0] == edges[:, 1]):
            raise ValueError("self-loops are not allowed in a simple graph")
        # canonicalize each edge as (min, max); a repeated edge is an
        # equal pair of sorted keys, and presorted input skips the sort
        keys = (np.minimum(edges[:, 0], edges[:, 1]) * np.int64(n)
                + np.maximum(edges[:, 0], edges[:, 1]))
        if not np.all(keys[1:] > keys[:-1]):
            keys.sort()
            if np.any(keys[1:] == keys[:-1]):
                raise ValueError("duplicate edges are not allowed")
        self._adopt(n, keys)

    @classmethod
    def _from_keys(cls, n: int, keys: np.ndarray) -> "Graph":
        """A graph over library-made keys, adopted without a copy.

        ``keys`` must be a strictly increasing 1-d int64 array of
        ``lo * n + hi`` with ``0 <= lo < hi < n``: sorted, so no
        duplicates, in range, and no self-loop. Each is checked in one
        O(m) pass (ValueError otherwise); nothing is sorted.
        """
        _check_n(n)
        graph = cls.__new__(cls)
        graph._adopt(n, keys)
        return graph

    def _adopt(self, n: int, keys: np.ndarray) -> None:
        """Check ``keys`` and take them as the graph's one edge array."""
        if (not isinstance(keys, np.ndarray) or keys.dtype != np.int64
                or keys.ndim != 1):
            raise ValueError("edge keys must be a 1-d int64 array")
        degrees = _key_degrees(keys, n)
        keys.flags.writeable = False
        self.n = int(n)
        self.m = int(keys.size)
        self._keys = keys
        self._degrees = degrees
        self._csr: tuple[np.ndarray, np.ndarray] | None = None
        _memory.track(self, "ugraph.keys", (self._keys,))
        _memory.track(self, "ugraph.degrees", (self._degrees,))

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
    def keys(self) -> np.ndarray:
        """The edges as strictly increasing int64 keys ``u * n + v``,
        ``u < v`` (read-only; the graph's one stored edge array)."""
        return self._keys

    def endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """``(u, v)``: both endpoint columns, ``u < v``, decoded once.

        Sorted by ``(u, v)``. Fresh arrays on every call.
        """
        return _decode(self._keys, self.n)

    @property
    def edges(self) -> np.ndarray:
        """Canonical edge array of shape ``(m, 2)`` with ``u < v``.

        Sorted by ``(u, v)``, decoded from the keys on every access
        (not cached, so the graph stays at 8 bytes per edge).
        """
        return np.column_stack(self.endpoints())

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """The adjacency as raw CSR ``(indices, indptr)`` int64 arrays.

        Row ``v`` is ``indices[indptr[v]:indptr[v+1]]`` -- the sorted
        neighbors of ``v``, each edge stored in both directions. Built
        on the first call, by one sort of the directed keys, and cached
        (16 bytes per edge). Only the Python reference loops and
        baselines read it; with the compiled kernels available, neither
        the Monte-Carlo cells nor the degenerate order build it: the
        native smallest-last order lays out and frees its own rows.
        """
        if self._csr is None:
            self._csr = _undirected_csr(self._keys, self._degrees, self.n)
            _memory.track(self, "ugraph.csr", self._csr)
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
        return pos < nbrs.size and bool(nbrs[pos] == v)

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
        u, v = self.endpoints()
        a[u, v] = 1
        a[v, u] = 1
        return int(np.trace(a @ a @ a) // 6)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"
