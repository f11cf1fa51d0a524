"""Random graphs realizing a prescribed degree sequence (section 7.2).

Two generators:

* :func:`configuration_model` -- classic stub matching [8], [30] followed
  by removal of self-loops and duplicate edges. Simple to reason about,
  but the removal step shrinks realized degrees, which the paper observes
  becomes significant for Pareto ``alpha < 2`` under linear truncation
  (simulations then stop matching ``E[X_i | D_n]``).
* :func:`residual_degree_model` -- the paper's remedy, a variation of
  Blitzstein-Diaconis [11]: each node's stubs are wired to partners
  chosen *in proportion to their residual degree*, excluding the node
  itself and its already-attached neighbors. Proportional selection uses
  a prefix-sum tree (``O(log n)`` per draw, ``O(m log n)`` total): a
  binary Fenwick tree in the Python reference, an 8-ary one with one
  cache line per node in C (``ceil(log8 n)`` levels). When the
  tail of the process gets stuck (every remaining stub-holder is already
  a neighbor), leftover stubs are resolved by double-edge swaps that
  preserve all other degrees, so the output realizes the requested
  sequence *exactly* -- matching the paper's "with the exception of
  possibly one last edge" guarantee (which we handle upstream by making
  the degree sum even).

The residual wiring loop runs in C (``repro_residual_wire`` in
:mod:`repro.engine.native`, built with the listing kernels) whenever
``native.available()`` is true, at well under a microsecond per edge.
The Python loop over :class:`~repro.graphs.fenwick.FenwickTree` stays
as the reference, and as the fallback when the library is gated off
(``REPRO_NATIVE=0``) or cannot be built. Validation, the Erdos-Gallai
guard, swap repair, the Havel-Hakimi fallback and the ``generator.*``
counters are shared by both paths.

The two paths are bit-identical: the same edges in the same order and
the same RNG state afterwards, so golden values and simulated tables
do not depend on which one ran. The argument:

* the draw does not depend on the shape of the tree. Every weight and
  prefix sum is an integer below ``2**53``, so ``FenwickTree``'s
  float64 updates and running total are exact, and so is each
  subtraction in its descent (an integer no larger than the remainder).
  ``FenwickTree.sample(u * total)`` therefore returns the unique ``j``
  with ``prefix(j) <= u * total < prefix(j + 1)``, where ``prefix(j)``
  is the weight below ``j``; as prefix sums are integers, that ``j`` is
  the same for ``floor(u * total)``. The C loop keeps the total as an
  integer, rounds ``u * total`` to a double exactly as Python does,
  and finds the same ``j`` from its floor with integer arithmetic in
  its 8-ary tree;
* the reference draws one uniform per placed edge. The C path draws
  ``sum(d) // 2`` (an upper bound) up front, and if it placed fewer
  edges it restores ``rng.bit_generator.state`` and redraws exactly
  that many;
* edges come back in placement order. When stubs are left over, the
  adjacency sets are rebuilt by inserting those edges in order, which
  reproduces the reference's sets, iteration order included, for the
  swap repair that follows.

``tests/test_generators_native.py`` pins the identity, and
``tests/test_residual_wire_boundaries.py`` pins it on draws that land
exactly on, or just below, a prefix sum.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.fenwick import FenwickTree
from repro.graphs.graph import Graph
from repro.obs import metrics as _metrics
from repro.obs.spans import span


def configuration_model(degrees, rng: np.random.Generator,
                        simplify: bool = True) -> Graph:
    """Stub-matching configuration model.

    Places ``d_i`` copies of node ``i`` in an array, shuffles, and pairs
    consecutive stubs. With ``simplify=True`` (the default), self-loops
    and duplicate edges are dropped, so realized degrees may fall short
    of the request -- this is the deficit discussed in section 7.2.

    Raises ``ValueError`` when the degree sum is odd (pair off the stubs
    first, e.g. via ``sample_degree_sequence(..., ensure_even_sum=True)``).
    """
    degrees = np.asarray(degrees, dtype=np.int64)
    _validate_degrees(degrees)
    if not simplify:
        raise ValueError(
            "multigraph output is not supported; the library operates on "
            "simple graphs only (pass simplify=True)")
    stubs = np.repeat(np.arange(degrees.size, dtype=np.int64), degrees)
    rng.shuffle(stubs)
    pairs = stubs.reshape(-1, 2)
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    keep = lo != hi
    lo, hi = lo[keep], hi[keep]
    # dedup in one sort; the survivors decode back to (lo, hi) in key order
    width = np.int64(degrees.size)
    keys = np.sort(lo * width + hi)
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    keys = keys[first]
    lo = keys // width
    edges = np.column_stack([lo, keys - lo * width])
    if _metrics.is_enabled():
        # stub pairs dropped as self-loops or duplicates: the degree
        # deficit discussed in section 7.2
        _metrics.inc("generator.rejections",
                     int(pairs.shape[0] - edges.shape[0]))
    return Graph(degrees.size, edges)


def residual_degree_model(degrees, rng: np.random.Generator,
                          max_swap_attempts: int = 10_000) -> Graph:
    """Realize ``degrees`` exactly via residual-proportional wiring.

    Nodes are processed in descending degree (hubs first, where the
    simple-graph constraint binds hardest). For the node ``i`` being
    wired, each remaining stub picks a partner ``j`` with probability
    proportional to the partner's residual degree among the *allowed*
    candidates -- everyone except ``i`` and nodes already adjacent to
    ``i``. Exclusion is implemented by temporarily zeroing those weights
    in the sampling tree and restoring them after ``i`` is fully wired.

    If at some point no candidate remains while stubs are still open,
    the leftovers are resolved afterwards with degree-preserving
    double-edge swaps.

    Raises ``ValueError`` for an odd degree sum or a degree ``>= n``, and
    ``RuntimeError`` if swap repair cannot finish within
    ``max_swap_attempts`` draws (practically only for near-complete or
    otherwise non-graphic sequences).
    """
    degrees = np.asarray(degrees, dtype=np.int64)
    _validate_degrees(degrees)
    n = degrees.size
    if degrees.max(initial=0) * 4 > n:
        # dense hubs are exactly where non-graphic sequences hide and
        # where repair can dead-end; fail fast with a clear message
        from repro.graphs.degree import erdos_gallai_graphical
        if not erdos_gallai_graphical(degrees):
            raise ValueError(
                "degree sequence is not graphic (Erdos-Gallai fails); "
                "sample with ensure_graphical=True or repair it first")
    order = np.argsort(degrees)[::-1]
    wired = _wire_native(degrees, order, rng)
    if wired is None:
        edges, residual, adjacency = _wire_python(degrees, order, rng)
    else:
        edges, residual = wired
        adjacency = None
    leftovers = _leftover_stubs(residual)
    if leftovers:
        if adjacency is None:
            # the swap repair works on Python containers; inserting the
            # edges in placement order reproduces the reference loop's
            # sets exactly, iteration order included
            edges = list(zip(*edges.T.tolist()))
            adjacency = [set() for __ in range(n)]
            for a, b in edges:
                adjacency[a].add(b)
                adjacency[b].add(a)
        if _metrics.is_enabled():
            # stubs the residual process could not place directly;
            # each is resolved by a degree-preserving swap below
            _metrics.inc("generator.swap_repaired_stubs", len(leftovers))
        try:
            _swap_repair(leftovers, adjacency, edges, rng,
                         max_swap_attempts)
        except RuntimeError:
            # pathological hub traps (every edge touches the stuck
            # node's neighborhood) are rare but real for alpha near 1
            # under linear truncation; fall back to a guaranteed
            # construction: Havel-Hakimi + double-edge-swap mixing
            _metrics.inc("generator.havel_hakimi_fallbacks")
            return havel_hakimi_graph(degrees, rng)
    return Graph(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2))


def _wire_native(degrees: np.ndarray, order: np.ndarray,
                 rng: np.random.Generator):
    """The wiring loop in C: ``(edges, residual)``, or None if gated.

    Draws ``sum(degrees) // 2`` uniforms up front (an upper bound on
    the edges the loop can place). The reference loop draws one per
    placed edge, so when the C loop stops short the stream is rewound
    and exactly ``used`` uniforms are drawn again, leaving ``rng`` where
    the Python loop leaves it, for any bit generator.
    """
    from repro.engine import native  # lazy: engine imports graphs
    if not native.available():
        return None
    half = int(degrees.sum()) // 2
    state = rng.bit_generator.state
    u = rng.random(half)
    residual = degrees.copy()
    edges = native.residual_wire(order, residual, u)
    if edges.shape[0] < half:
        rng.bit_generator.state = state
        rng.random(edges.shape[0])
    return edges, residual


def _wire_python(degrees: np.ndarray, order: np.ndarray,
                 rng: np.random.Generator):
    """The reference wiring loop: ``(edges, residual, adjacency)``."""
    residual = degrees.astype(np.float64).copy()
    tree = FenwickTree(residual)
    adjacency: list[set] = [set() for __ in range(degrees.size)]
    edges: list[tuple[int, int]] = []
    for i in order:
        i = int(i)
        if residual[i] <= 0:
            continue
        # exclude i itself and current neighbors for the whole wiring run;
        # excluded nodes have their tree weight zeroed and are restored to
        # their (possibly updated) residual once i is fully wired
        excluded: set[int] = {i}
        _zero_weight(tree, i)
        for j in adjacency[i]:
            _zero_weight(tree, j)
            excluded.add(j)
        while residual[i] > 0:
            total = tree.total
            if total <= 1e-9:
                break  # stuck: repaired by swaps in the caller
            j = tree.sample(rng.random() * total)
            _add_edge(i, j, adjacency, edges, residual)
            _zero_weight(tree, j)
            excluded.add(j)
        for node in excluded:
            if residual[node] > 0:
                tree.add(node, residual[node])
    return edges, residual, adjacency


def havel_hakimi_graph(degrees, rng: np.random.Generator | None = None,
                       mixing_swaps_per_edge: int = 5) -> Graph:
    """Deterministic Havel-Hakimi realization + edge-swap randomization.

    Always succeeds on a graphic sequence (and raises ``ValueError``
    otherwise). The deterministic construction is heavily assortative,
    so the result is mixed with random degree-preserving double-edge
    swaps; with enough swaps this approaches the uniform distribution
    over realizations, which is what the paper's edge-probability model
    (10) assumes.
    """
    degrees = np.asarray(degrees, dtype=np.int64)
    _validate_degrees(degrees)
    n = degrees.size
    import heapq
    heap = [(-int(d), v) for v, d in enumerate(degrees) if d > 0]
    heapq.heapify(heap)
    adjacency: list[set] = [set() for __ in range(n)]
    edges: list[tuple[int, int]] = []
    while heap:
        neg_d, v = heapq.heappop(heap)
        d = -neg_d
        if d == 0:
            continue
        if d > len(heap):
            raise ValueError("degree sequence is not graphic")
        partners = [heapq.heappop(heap) for __ in range(d)]
        for neg_du, u in partners:
            adjacency[v].add(u)
            adjacency[u].add(v)
            edges.append((v, u) if v < u else (u, v))
        for neg_du, u in partners:
            if -neg_du - 1 > 0:
                heapq.heappush(heap, (neg_du + 1, u))
    if rng is not None and edges:
        _shake(adjacency, edges, rng,
               rounds=mixing_swaps_per_edge * len(edges))
    return Graph(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2))


def generate_graph(degrees, rng: np.random.Generator,
                   method: str = "residual") -> Graph:
    """Dispatch to a named generator: ``"residual"`` or ``"configuration"``.

    ``"residual"`` (default) realizes the sequence exactly;
    ``"configuration"`` is the classic stub matcher with simplification.
    """
    with span("generate", method=method) as sp:
        if method == "residual":
            graph = residual_degree_model(degrees, rng)
        elif method == "configuration":
            graph = configuration_model(degrees, rng)
        else:
            raise ValueError(
                f"unknown generator {method!r}; use 'residual' or "
                f"'configuration'")
        sp.annotate(n=graph.n, m=graph.m)
    return graph


def _validate_degrees(degrees: np.ndarray) -> None:
    if degrees.ndim != 1 or degrees.size == 0:
        raise ValueError("degree sequence must be a non-empty 1-D array")
    if degrees.min() < 0:
        raise ValueError("degrees must be non-negative")
    if degrees.max() >= degrees.size:
        raise ValueError(
            f"degree {int(degrees.max())} impossible in a simple graph "
            f"with n={degrees.size}")
    if int(degrees.sum()) % 2 == 1:
        raise ValueError("degree sum must be even to realize a graph")


def _zero_weight(tree: FenwickTree, node: int) -> None:
    """Zero ``node``'s current weight in the sampling tree."""
    current = tree.get(node)
    if current > 0:
        tree.add(node, -current)


def _add_edge(i: int, j: int, adjacency: list, edges: list,
              residual: np.ndarray) -> None:
    adjacency[i].add(j)
    adjacency[j].add(i)
    edges.append((i, j) if i < j else (j, i))
    residual[i] -= 1
    residual[j] -= 1
    # the tree weights of both endpoints are handled by the caller: i is
    # excluded for its whole wiring run, j is zeroed right after this call
    # and restored to its updated residual at the end of the run


def _leftover_stubs(residual: np.ndarray) -> list[int]:
    """Expand positive residuals into a flat stub list."""
    stubs: list[int] = []
    for node in np.flatnonzero(residual > 0.5):
        stubs.extend([int(node)] * int(round(residual[node])))
    return stubs


def _swap_repair(stubs: list[int], adjacency: list, edges: list,
                 rng: np.random.Generator, max_attempts: int) -> None:
    """Place leftover stubs via degree-preserving double-edge swaps.

    For a stub pair ``(a, b)``: if the edge ``(a, b)`` can be added
    directly, add it. Otherwise find an existing edge ``(u, v)`` with
    ``u`` not adjacent to ``a`` and ``v`` not adjacent to ``b`` (and
    ``{u, v}`` disjoint from ``{a, b}``), remove it, and add ``(a, u)``
    and ``(b, v)`` -- all degrees other than ``a``'s and ``b``'s are
    preserved, theirs each gain one.

    The edge is located by rejection sampling first (fast on typical
    graphs), then by a deterministic scan over the non-neighbors of
    ``a`` (needed when ``a`` is a near-spanning hub and random edges
    almost surely touch its neighborhood). If even the scan fails, the
    graph is shaken with random degree-preserving swaps and the search
    retried, which walks the realization space until the move becomes
    available.
    """
    if len(stubs) % 2 == 1:
        raise RuntimeError("internal error: odd number of leftover stubs")
    rng.shuffle(stubs)
    while stubs:
        a = stubs.pop()
        b = stubs.pop()
        if a != b and b not in adjacency[a]:
            adjacency[a].add(b)
            adjacency[b].add(a)
            edges.append((a, b) if a < b else (b, a))
            continue
        if not edges:
            raise RuntimeError(
                "swap repair impossible: no edges available to rewire")
        placed = False
        for shake_round in range(6):
            found = (_find_swap_random(a, b, adjacency, edges, rng,
                                       attempts=2000)
                     or _find_swap_scan(a, b, adjacency, edges))
            if found is None and a != b:
                # the roles of a and b are not symmetric in the scan
                found = _find_swap_scan(b, a, adjacency, edges)
                if found is not None:
                    a, b = b, a
            if found is not None:
                _apply_swap(a, b, found, adjacency, edges)
                placed = True
                break
            _shake(adjacency, edges, rng, rounds=200)
        if not placed:
            raise RuntimeError(
                "swap repair failed after shaking; the degree sequence "
                "is likely not graphic")


def _find_swap_random(a, b, adjacency, edges, rng, attempts):
    """Rejection-sample an edge (u, v) usable for the (a, b) repair."""
    m = len(edges)
    for __ in range(min(attempts, 8 * m)):
        u, v = edges[int(rng.integers(m))]
        if rng.random() < 0.5:
            u, v = v, u
        if (u in (a, b) or v in (a, b) or u in adjacency[a]
                or v in adjacency[b]):
            continue
        return u, v
    return None


def _find_swap_scan(a, b, adjacency, edges):
    """Deterministic search: iterate non-neighbors of ``a``.

    A near-spanning hub ``a`` has few non-neighbors, so this scan is
    cheap exactly when rejection sampling is hopeless.
    """
    n = len(adjacency)
    for u in range(n):
        if u == a or u == b or u in adjacency[a]:
            continue
        for v in adjacency[u]:
            if v == a or v == b or v in adjacency[b]:
                continue
            return u, v
    return None


def _apply_swap(a, b, edge, adjacency, edges):
    """Remove ``edge = (u, v)``, add ``(a, u)`` and ``(b, v)``."""
    u, v = edge
    canonical = (u, v) if u < v else (v, u)
    idx = edges.index(canonical)
    edges[idx] = edges[-1]
    edges.pop()
    adjacency[u].discard(v)
    adjacency[v].discard(u)
    adjacency[a].add(u)
    adjacency[u].add(a)
    edges.append((a, u) if a < u else (u, a))
    adjacency[b].add(v)
    adjacency[v].add(b)
    edges.append((b, v) if b < v else (v, b))


def _shake(adjacency, edges, rng, rounds):
    """Random degree-preserving double-edge swaps to escape dead ends."""
    m = len(edges)
    if m < 2:
        return
    for __ in range(rounds):
        i = int(rng.integers(m))
        j = int(rng.integers(m))
        if i == j:
            continue
        u, v = edges[i]
        x, y = edges[j]
        if rng.random() < 0.5:
            x, y = y, x
        # rewire (u,v)+(x,y) -> (u,x)+(v,y) when it stays simple
        if len({u, v, x, y}) < 4:
            continue
        if x in adjacency[u] or y in adjacency[v]:
            continue
        adjacency[u].discard(v)
        adjacency[v].discard(u)
        adjacency[x].discard(y)
        adjacency[y].discard(x)
        adjacency[u].add(x)
        adjacency[x].add(u)
        adjacency[v].add(y)
        adjacency[y].add(v)
        edges[i] = (u, x) if u < x else (x, u)
        edges[j] = (v, y) if v < y else (y, v)
