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
  itself and its already-attached neighbors. When the tail of the
  process gets stuck (every remaining stub-holder is already a
  neighbor), leftover stubs are resolved by double-edge swaps that
  preserve all other degrees, so the output realizes the requested
  sequence *exactly* -- matching the paper's "with the exception of
  possibly one last edge" guarantee (which we handle upstream by making
  the degree sum even).

Both run in C (in :mod:`repro.engine.native`, built with the listing
kernels) whenever ``native.available()`` is true, and in Python/NumPy
otherwise (``REPRO_NATIVE=0``, or no compiler). Each C pass draws
through the generator's ``bitgen_t`` exactly as its reference draws,
so the two are bit-identical: the same edge keys, the same degrees,
the same ``generator.*`` counters and the same RNG state afterwards,
and golden values and simulated tables do not depend on which one ran.

The configuration model's pass (``repro_configuration_wire``) lays the
stubs out as uint32 in node order, inside the key array it returns,
and shuffles them by Fisher-Yates: entry ``i = S - 1, ..., 1`` swaps
with a uniform ``j`` in ``[0, i]`` drawn by numpy's bounded Lemire draw
(a multiply-shift rejection on ``next_uint32``, or ``next_uint64`` once
``i`` passes ``2**32 - 1``) -- the draws of
``rng.integers(0, np.arange(S, 1, -1), dtype=np.uint64)``. It then
pairs consecutive stubs, drops loops, sorts the pairs by two stable
counting scatters (by ``hi``, then by ``lo``) and drops repeated
edges: the sorted unique keys, with no ``np.sort`` and no m-sized
temporary beyond the uint32 ``hi`` buckets.
:func:`_configuration_python` -- those draws at once, the swaps in a
Python loop, a loop mask, a sort and a dedup mask -- is the reference.

Proportional selection draws from a pool of open stubs, one entry per
stub holding its node id, and rejects excluded partners, in the shape
of Bayati-Kim-Saberi's sampler. A draw takes the entry at
``p = min(floor(u * S), S - 1)`` for one uniform ``u`` and the
drawable size ``S``. When a node's turn comes, its neighbors are
exactly the nodes wired before it (every edge is made by the node
being wired), so the excluded set is "every node already wired, the
current one included, plus the partners it has picked". The drawn
entry is swap-removed (the last drawable entry fills its slot) whatever
it holds: a free node's stub is placed; a wired ("dead") node's is
dropped for good; a picked partner's is set aside and rejoins the pool
when the current node is done. Dropping or setting aside an excluded
entry leaves the allowed entries' relative weights alone, so an
accepted draw is uniform over the stubs of the allowed nodes -- exactly
"in proportion to residual degree among the allowed nodes" -- and
every draw shrinks the pool, so a node's run ends whatever the
uniforms. When dead and picked entries exceed half the drawable range,
one pass keeps the free entries in order, drops the dead ones and sets
the picked ones aside, so a draw is accepted with probability at least
1/2 (hubs, whose partners hold much of the pool, are where this
explicit-exclusion switch fires).

The residual loop's C pass is ``repro_residual_wire``, which reads
each uniform through ``next_double`` (the call ``rng.random()`` makes);
:func:`_wire_python` is the reference. Validation, the Erdos-Gallai
guard, swap repair, the Havel-Hakimi fallback and the ``generator.*``
counters are shared. Both C passes hand their keys to
:meth:`Graph._from_keys`, whose check and degree count is itself one
native pass over the keys.

The residual loop has a second sink, for Monte-Carlo cells that only
price the graph (:func:`residual_out_degrees`): under a degree-monotone
label map it counts each edge between different degrees at its tail as
it places it, and returns the few edges between equal degrees for the
tie-break to settle, so no key array, sort or :class:`Graph` is made.
It draws exactly as the key sink does; a wiring that needs swap repair
rewinds the generator and is realized instead. ``tests/test_generators_native.py`` pins
both identities (the configuration pairing against ``rng.integers``
itself, on three bit generators), and
``tests/test_residual_wire_boundaries.py`` pins the residual one on the
extreme draws ``0`` and ``1 - 2**-53`` and on draws landing exactly on
a slot boundary ``k / S``.
"""

from __future__ import annotations

import numpy as np

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
    from repro.engine import native  # lazy: engine imports graphs
    wired = native.configuration_wire(degrees, rng)
    keys, n_pairs = (wired if wired is not None
                     else _configuration_python(degrees, rng))
    if _metrics.is_enabled():
        # stub pairs dropped as self-loops or duplicates: the degree
        # deficit discussed in section 7.2
        _metrics.inc("generator.rejections", n_pairs - keys.size)
    return Graph._from_keys(degrees.size, keys)


def _configuration_python(degrees: np.ndarray, rng: np.random.Generator):
    """The reference stub matching: ``(keys, pairs)``.

    ``keys`` are the sorted unique ``lo * n + hi`` of the simplified
    graph, ``pairs`` the number of stub pairs. The stubs, in node order,
    are shuffled by Fisher-Yates: entry ``i = S - 1, ..., 1`` swaps with
    a uniform ``j`` in ``[0, i]``, all drawn at once by
    ``rng.integers`` (numpy's Lemire draw on ``next_uint32``), then
    swapped in a Python loop.
    """
    stubs = np.repeat(np.arange(degrees.size, dtype=np.int64),
                      degrees).tolist()
    draws = rng.integers(0, np.arange(len(stubs), 1, -1),
                         dtype=np.uint64).tolist()
    for i, j in zip(range(len(stubs) - 1, 0, -1), draws):
        stubs[i], stubs[j] = stubs[j], stubs[i]
    stubs = np.array(stubs, dtype=np.int64)
    pairs = stubs.reshape(-1, 2)
    n_pairs = pairs.shape[0]
    # the keys lo * n + hi take one m-sized array: hi overwrites the
    # stubs' first column, and the stubs are freed before the filter
    keys = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1], out=pairs[:, 0])
    keep = keys != hi
    keys *= np.int64(degrees.size)
    keys += hi
    del stubs, pairs, hi
    keys = keys[keep]
    # dedup in one sort: the survivors are the graph's sorted keys
    keys.sort()
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first], n_pairs


def residual_degree_model(degrees, rng: np.random.Generator,
                          max_swap_attempts: int = 10_000) -> Graph:
    """Realize ``degrees`` exactly via residual-proportional wiring.

    Nodes are processed in descending degree (hubs first, where the
    simple-graph constraint binds hardest), equal degrees by descending
    vertex ID. For the node ``i`` being wired, each remaining stub
    picks a partner ``j`` with probability proportional to the
    partner's residual degree among the *allowed* candidates --
    everyone except ``i`` and nodes already adjacent to ``i``. Partners
    are drawn from a pool of open stubs and excluded ones rejected (see
    the module docstring).

    If at some point no candidate remains while stubs are still open,
    the leftovers are resolved afterwards with degree-preserving
    double-edge swaps.

    Raises ``ValueError`` for an odd degree sum or a degree ``>= n``, and
    ``RuntimeError`` if swap repair cannot finish within
    ``max_swap_attempts`` draws (practically only for near-complete or
    otherwise non-graphic sequences).
    """
    degrees, order = _wiring_order(degrees)
    n = degrees.size
    wired = _wire_native(degrees, order, rng)
    keys, residual = (wired if wired is not None
                      else _wire_python(degrees, order, rng))
    leftovers = _leftover_stubs(residual)
    if not leftovers:
        keys.sort()
        return Graph._from_keys(n, keys)
    # the swap repair works on Python containers; inserting the edges
    # in placement order fixes the sets' iteration order for either loop
    lo, hi = np.divmod(keys, np.int64(n))
    edges = list(zip(lo.tolist(), hi.tolist()))
    adjacency: list[set] = [set() for __ in range(n)]
    for a, b in edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    if _metrics.is_enabled():
        # stubs the residual process could not place directly; each is
        # resolved by a degree-preserving swap below
        _metrics.inc("generator.swap_repaired_stubs", len(leftovers))
    try:
        _swap_repair(leftovers, adjacency, edges, rng, max_swap_attempts)
    except RuntimeError:
        # pathological hub traps (every edge touches the stuck node's
        # neighborhood) are rare but real for alpha near 1 under linear
        # truncation; fall back to a guaranteed construction:
        # Havel-Hakimi + double-edge-swap mixing
        _metrics.inc("generator.havel_hakimi_fallbacks")
        return havel_hakimi_graph(degrees, rng)
    return Graph._from_keys(n, _sorted_keys(edges, n))


def residual_out_degrees(degrees, rng: np.random.Generator,
                         descending: bool):
    """Wire ``degrees`` like :func:`residual_degree_model` and return
    the out-degrees of a degree-monotone orientation instead of a graph.

    Draws exactly as :func:`residual_degree_model` does, through the
    wiring loop's pricing sink
    (:func:`~repro.engine.native.residual_out_degrees`), so no edge
    key, sort or :class:`Graph` is made.
    Returns ``(out_degrees, ties)``: every edge between different
    degrees counted at its tail -- the smaller degree when
    ``descending`` (larger degrees take smaller labels), the larger one
    otherwise -- and the ``(k, 2)`` endpoints of the edges between equal
    degrees, whose tails the tie-break decides. Returns None when the
    native library is gated, and also when the wiring leaves stubs for
    swap repair; ``rng`` is then rewound to its state on entry, so
    :func:`residual_degree_model` realizes the same graph from the same
    draws. Raises like :func:`residual_degree_model` on a bad sequence.
    """
    from repro.engine import native  # lazy: engine imports graphs
    if not native.available():
        return None
    degrees, order = _wiring_order(degrees)
    state = rng.bit_generator.state
    residual = degrees.copy()
    out_degrees, ties = native.residual_out_degrees(order, residual, rng,
                                                    descending)
    if residual.any():
        rng.bit_generator.state = state
        return None
    return out_degrees, ties


def _wiring_order(degrees) -> tuple[np.ndarray, np.ndarray]:
    """The residual wiring's prologue: ``(degrees, order)``.

    Validates the sequence (ValueError as documented in
    :func:`residual_degree_model`, before any draw) and returns it as
    int64 with the processing order: hubs first, equal degrees by
    descending vertex ID (the stable ascending ranking, reversed; numpy's
    default argsort would order ties by the host's SIMD dispatch).
    """
    degrees = np.asarray(degrees, dtype=np.int64)
    _validate_degrees(degrees)
    if degrees.max(initial=0) * 4 > degrees.size:
        # dense hubs are exactly where non-graphic sequences hide and
        # where repair can dead-end; fail fast with a clear message
        from repro.graphs.degree import erdos_gallai_graphical
        if not erdos_gallai_graphical(degrees):
            raise ValueError(
                "degree sequence is not graphic (Erdos-Gallai fails); "
                "sample with ensure_graphical=True or repair it first")
    from repro.orientations.relabel import degree_ranking
    # a copy, so the ascending ranking is freed before the loop runs
    return degrees, degree_ranking(degrees)[::-1].copy()


def _wire_native(degrees: np.ndarray, order: np.ndarray,
                 rng: np.random.Generator):
    """The wiring loop in C: ``(keys, residual)``, or None if gated."""
    from repro.engine import native  # lazy: engine imports graphs
    if not native.available():
        return None
    residual = degrees.copy()
    return native.residual_wire(order, residual, rng), residual


#: Pool entry states in :func:`_wire_python` (``WIRE_*`` in the C loop).
_FREE, _DEAD, _PICKED = 0, 1, 2


def _wire_python(degrees: np.ndarray, order: np.ndarray, rng):
    """The reference wiring loop: ``(keys, residual)``.

    ``keys`` holds ``lo * n + hi`` per placed edge in placement order;
    ``residual`` the stubs left unplaced. One ``rng.random()`` per draw.
    """
    n = degrees.size
    res = degrees.tolist()
    pool = np.repeat(np.arange(n), degrees).tolist()
    size = len(pool)
    state = bytearray(n)
    pick_of = [0] * n
    keys: list[int] = []
    dead = 0  # dead entries in the range
    for i in order.tolist():
        if state[i] != _FREE:
            continue
        state[i] = _DEAD
        ri = res[i]
        dead += ri
        # picked: this run's partners; aside: their entries set aside;
        # excluded: their entries in the range; settled: picks whose
        # entries are all set aside
        picked: list[int] = []
        aside: list[int] = []
        excluded = settled = 0
        while ri > 0:
            if 2 * (dead + excluded) > size:
                kept = [v for v in pool[:size] if state[v] == _FREE]
                for t in range(settled, len(picked)):
                    aside[t] = res[picked[t]]
                settled = len(picked)
                size = len(kept)
                pool[:size] = kept
                dead = excluded = 0
            if size == 0:
                break  # stuck: repaired by swaps in the caller
            p = int(rng.random() * size)
            if p >= size:
                p = size - 1
            j = pool[p]
            size -= 1
            pool[p] = pool[size]
            sj = state[j]
            if sj == _DEAD:
                dead -= 1
                continue
            if sj == _PICKED:
                aside[pick_of[j]] += 1
                excluded -= 1
                continue
            keys.append(i * n + j if i < j else j * n + i)
            ri -= 1
            res[j] -= 1
            excluded += res[j]
            state[j] = _PICKED
            pick_of[j] = len(picked)
            picked.append(j)
            aside.append(0)
        res[i] = ri
        # the picks rejoin the pool with the entries set aside
        for j, count in zip(picked, aside):
            pool[size:size + count] = [j] * count
            size += count
            state[j] = _FREE
    return np.array(keys, dtype=np.int64), np.array(res, dtype=np.int64)


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
    return Graph._from_keys(n, _sorted_keys(edges, n))


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


def _sorted_keys(edges, n: int) -> np.ndarray:
    """Canonical ``(lo, hi)`` edges as the sorted keys ``lo * n + hi``."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    keys = edges[:, 0] * np.int64(n)
    keys += edges[:, 1]
    keys.sort()
    return keys


def _leftover_stubs(residual: np.ndarray) -> list[int]:
    """Expand positive residuals into a flat stub list."""
    stubs: list[int] = []
    for node in np.flatnonzero(residual):
        stubs.extend([int(node)] * int(residual[node]))
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
