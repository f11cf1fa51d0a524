"""NumPy-vectorized listing kernels over the ``OrientedGraph`` CSR.

Every one of the 18 methods reduces to the same vectorized shape: a
*unit* stream (the CSR entries one family pivots on), a *window* of
candidate partners per unit (a prefix of the unit's own row, a full row
of the other CSR, or a ``searchsorted``-bounded slice of it), and a
batched membership *probe* of ``window x unit`` pairs against the
directed-edge set. The per-method table below is a direct transcription
of the pure-Python loops in :mod:`repro.listing` -- same windows, same
probes, same triangles -- executed a few million candidates at a time
instead of one.

Membership is the hot operation (one probe per candidate, ~10^7 of
them at ``n = 10^5``), so it is two-level: a 2 MiB Bloom bit-table
over 32-bit pair hashes rejects ~93% of non-edges with a single
L2-resident gather, and only the passers (true hits plus a few percent
false positives) are confirmed exactly by binary search in the sorted
edge-key array. The filter is probabilistic but the result is exact --
every reported hit survives the ``searchsorted`` check.

Cost accounting: the instrumented Python listers count ``ops``
per-candidate; eqs. (7)-(9) and Propositions 1-2 prove those counters
equal closed-form functions of the oriented degrees, so this engine
reports the identical ``ops`` via :func:`repro.core.costs.total_ops`
without paying for per-candidate bookkeeping. ``comparisons`` for the
T/L hash-probe families equals ``ops``; for the scanning/lookup edge
iterators it is the *remote* Table 1 component (the probes a faithful
transcription issues), also in closed form -- see ``_PROBE_COMPONENT``.

Because every method lists the same triangle set, count-only calls
(``collect=False``) are free to run the cheapest of the three base
shapes (T1/T2/T3 candidate streams, picked by ``component_ops``
argmin) while still reporting the *requested* method's ``ops``.
:func:`run_numpy` also fronts the compiled kernels of
:mod:`repro.engine.native` through its ``use_native`` argument
(``False``: pure NumPy; ``True``: compiled, required; ``None``: compiled
when available): counts run the forward count kernel and collecting
streams the triangles from C in one pass, boxed into tuples beside
the kernel (identical canonical ``x < y < z`` triples -- the
orientation always points edges at smaller labels -- so only the
enumeration *order* differs, exactly as it already does between the
python and numpy engines).

Memory stays bounded: candidate pairs are materialized in chunks of
``CHUNK_CANDIDATES`` regardless of how skewed the degree sequence is.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from repro.core.costs import component_ops
from repro.core.methods import get_method
from repro.engine import native as _native
from repro.listing.base import ListingResult
from repro.obs import bus as _bus
from repro.obs import memory as _memory
from repro.obs import metrics as _metrics

#: Candidate pairs materialized per batch (caps peak working memory).
CHUNK_CANDIDATES = 1 << 21

#: Bloom filter size in bytes (2 MiB = 2^24 bits -- L2/L3 resident;
#: at m ~ 10^6 edges the false-positive rate is ~7%, so the exact
#: verification pass touches <10% of candidates).
_BLOOM_BYTES = 1 << 21
_BLOOM_SHIFT = np.uint32(32 - 21)  # top 21 hash bits pick the byte
_HASH_A = np.uint32(0x85EBCA6B)  # Murmur3 finalizer constants
_HASH_B = np.uint32(0xC2B2AE35)
_BIT_LUT = (np.uint8(1) << np.arange(8, dtype=np.uint8))


@dataclass(frozen=True)
class _Kernel:
    """One method's vectorized shape.

    Attributes
    ----------
    units:
        Which CSR the unit stream walks: ``"out"`` (directed edges as
        ``row -> value``) or ``"in"`` (edges ``value -> row``).
    window:
        Candidate window per unit ``(r=row, v=value, loc=position)``:

        * ``"prefix"`` -- the unit's own row before the unit (``loc``
          elements);
        * ``"out_of_row"`` -- all of row ``r`` in the out-CSR (the T2
          cross product);
        * ``"full_out"`` / ``"full_in"`` -- all of row ``v`` in the
          out-/in-CSR;
        * ``"in_lt"`` / ``"in_gt"`` -- row ``v`` of the in-CSR
          restricted to labels below / above ``r``;
        * ``"out_gt"`` -- row ``v`` of the out-CSR above ``r``.
    probe:
        Which directed edge each candidate ``w`` must close:
        ``"vw"`` = ``v -> w``, ``"rw"`` = ``r -> w``, ``"wr"`` =
        ``w -> r``.
    tri:
        How ``(x, y, z)`` maps onto ``(w, r, v)``.
    """

    units: str
    window: str
    probe: str
    tri: tuple[str, str, str]


#: Transcription of the 18 pure-Python loops (see module docstring).
_KERNELS: dict[str, _Kernel] = {
    # vertex iterators: candidate pairs around a pivot
    "T1": _Kernel("out", "prefix", "vw", ("w", "v", "r")),
    "T2": _Kernel("in", "out_of_row", "vw", ("w", "r", "v")),
    "T3": _Kernel("in", "prefix", "vw", ("r", "w", "v")),
    "T4": _Kernel("out", "prefix", "vw", ("w", "v", "r")),
    "T5": _Kernel("in", "out_of_row", "vw", ("w", "r", "v")),
    "T6": _Kernel("in", "prefix", "vw", ("r", "w", "v")),
    # scanning edge iterators: remote window per directed edge
    "E1": _Kernel("out", "full_out", "rw", ("w", "v", "r")),
    "E2": _Kernel("out", "prefix", "vw", ("w", "v", "r")),
    "E3": _Kernel("in", "full_in", "wr", ("r", "v", "w")),
    "E4": _Kernel("out", "in_lt", "rw", ("v", "w", "r")),
    "E5": _Kernel("out", "in_gt", "wr", ("v", "r", "w")),
    "E6": _Kernel("in", "out_gt", "wr", ("r", "w", "v")),
    # lookup edge iterators share the SEI search orders
    "L1": _Kernel("out", "full_out", "rw", ("w", "v", "r")),
    "L2": _Kernel("out", "prefix", "vw", ("w", "v", "r")),
    "L3": _Kernel("in", "full_in", "wr", ("r", "v", "w")),
    "L4": _Kernel("out", "in_lt", "rw", ("v", "w", "r")),
    "L5": _Kernel("out", "in_gt", "wr", ("v", "r", "w")),
    "L6": _Kernel("in", "out_gt", "wr", ("r", "w", "v")),
}

#: Methods the numpy engine implements (all 18).
NUMPY_METHODS = tuple(sorted(_KERNELS))

#: Probes a faithful transcription issues per SEI/LEI method, as a base
#: cost component (the Table 1 *remote* term): e.g. E1 scans the full
#: out-row of each out-neighbor, sum X_v over out-edges = the T2 sum.
_PROBE_COMPONENT = {
    "E1": "T2", "E2": "T1", "E3": "T2", "E4": "T3", "E5": "T3",
    "E6": "T1",
    "L1": "T2", "L2": "T1", "L3": "T2", "L4": "T3", "L5": "T3",
    "L6": "T1",
}


class _GraphCache:
    """Per-graph engine arrays: uint32 row arrays + the Bloom table.

    Built once per ``OrientedGraph`` (weakly keyed, so the cache dies
    with the graph). The column indices are the graph's own uint32
    CSR; this cache adds only the row array of each CSR (the unit
    stream's ``r`` side) and the Bloom table over the out-edges.
    """

    def __init__(self, oriented):
        n = oriented.n
        self.n64 = np.int64(n)
        self.out_keys = oriented.out_key_array()
        self.out_rows32 = np.repeat(
            np.arange(n, dtype=np.uint32), oriented.out_degrees)
        self.in_rows32 = np.repeat(
            np.arange(n, dtype=np.uint32), oriented.in_degrees)
        self.bloom = self._build_bloom(self.out_rows32,
                                       oriented.out_csr()[0])
        if _memory.is_enabled():
            _memory.track(self, "engine.cache",
                          (self.out_rows32, self.in_rows32))
            _memory.track(self, "engine.bloom", (self.bloom,))

    @staticmethod
    def _build_bloom(src32, dst32) -> np.ndarray:
        bloom = np.zeros(_BLOOM_BYTES, dtype=np.uint8)
        if src32.size == 0:
            return bloom
        h = src32 * _HASH_A
        h ^= dst32 * _HASH_B
        byte = h >> _BLOOM_SHIFT
        bit = (h & np.uint32(7)).astype(np.uint8)
        for b in range(8):
            sel = byte[bit == b]
            if sel.size:
                occupied = np.bincount(
                    sel, minlength=_BLOOM_BYTES).astype(bool)
                bloom |= occupied.astype(np.uint8) << np.uint8(b)
        return bloom

    def probe_hits(self, a32, b32, stats=None) -> np.ndarray:
        """Indices ``i`` where directed edge ``a32[i] -> b32[i]`` exists.

        Exact: Bloom-prefiltered, then confirmed by binary search in
        the sorted edge-key array. With ``stats`` (a counter dict, only
        handed in while metrics are enabled) the probe/hit/confirm
        volumes are accumulated for the ``engine.*`` telemetry.
        """
        if self.out_keys.size == 0:
            return np.empty(0, dtype=np.int64)
        h = a32 * _HASH_A
        h ^= b32 * _HASH_B
        cand = self.bloom[h >> _BLOOM_SHIFT]
        np.bitwise_and(h, np.uint32(7), out=h)
        cand &= _BIT_LUT[h]
        idxs = np.nonzero(cand)[0]
        if stats is not None:
            stats["bloom_probes"] += int(a32.size)
            stats["bloom_hits"] += int(idxs.size)
            stats["confirm_binsearches"] += int(idxs.size)
        if idxs.size == 0:
            return idxs
        key = a32[idxs].astype(np.int64) * self.n64 + b32[idxs]
        pos = np.searchsorted(self.out_keys, key)
        np.minimum(pos, self.out_keys.size - 1, out=pos)
        return idxs[self.out_keys.take(pos) == key]


_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

#: Closed-form cost components per graph (eqs. (7)-(9)); keyed weakly
#: so repeated ``run_numpy`` calls on one graph (a bench sweeping all
#: 18 methods, say) pay the degree reductions once.
_COMPS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _graph_cache(oriented) -> _GraphCache:
    cache = _CACHE.get(oriented)
    if cache is None:
        cache = _GraphCache(oriented)
        _CACHE[oriented] = cache
    return cache


def _component_ops(oriented) -> dict:
    comps = _COMPS.get(oriented)
    if comps is None:
        comps = component_ops(oriented.out_degrees, oriented.in_degrees)
        _COMPS[oriented] = comps
    return comps


def _windows(oriented, kernel, rows, vals, ptr, lens):
    """Per-unit candidate windows ``(source, starts, counts)``."""
    out_idx, out_ptr = oriented.out_csr()
    in_idx, in_ptr = oriented.in_csr()

    def keys():  # each unit's int64 key ``v * n + r``
        k = np.multiply(vals, oriented.n, dtype=np.int64)
        k += rows
        return k

    if kernel.window == "prefix":
        source = vals
        starts = np.repeat(ptr[:-1], lens)
        counts = np.arange(vals.size, dtype=np.int64) - starts
    elif kernel.window == "out_of_row":
        source = out_idx
        starts = out_ptr[rows]
        counts = oriented.out_degrees[rows]
    elif kernel.window == "full_out":
        source = out_idx
        starts = out_ptr[vals]
        counts = oriented.out_degrees[vals]
    elif kernel.window == "full_in":
        source = in_idx
        starts = in_ptr[vals]
        counts = oriented.in_degrees[vals]
    elif kernel.window == "in_lt":
        source = in_idx
        starts = in_ptr[vals]
        counts = np.searchsorted(oriented.in_key_array(), keys()) - starts
    elif kernel.window == "in_gt":
        source = in_idx
        starts = np.searchsorted(oriented.in_key_array(), keys(),
                                 side="right")
        counts = in_ptr[vals + 1] - starts
    else:  # "out_gt"
        source = out_idx
        starts = np.searchsorted(oriented.out_key_array(), keys(),
                                 side="right")
        counts = out_ptr[vals + 1] - starts
    return source, starts, counts


def _new_stats() -> dict:
    """Zeroed per-run kernel counters (see :func:`_publish_stats`)."""
    return {"chunks": 0, "candidates": 0, "bloom_probes": 0,
            "bloom_hits": 0, "confirm_binsearches": 0}


def _publish_stats(stats: dict) -> None:
    """Fold one run's kernel counters into ``engine.*`` metrics.

    Published once per ``run_numpy`` call (never inside the chunk
    loop), so the enabled overhead is a handful of dict increments per
    run; with metrics disabled no stats dict exists at all and the hot
    path is untouched.
    """
    _metrics.inc("engine.runs")
    _metrics.inc("engine.chunks", stats["chunks"])
    _metrics.inc("engine.candidates", stats["candidates"])
    _metrics.inc("engine.bloom_probes", stats["bloom_probes"])
    _metrics.inc("engine.bloom_hits", stats["bloom_hits"])
    _metrics.inc("engine.confirm_binsearches",
                 stats["confirm_binsearches"])


def _run_kernel(oriented, kernel, collect, stats=None, label=""):
    """Run one vectorized shape; returns ``(count, triangle_batches)``.

    The chunk loop is the engine's hot path: everything candidate-sized
    is uint32/int32, window expansion is one ``repeat`` + one
    ``arange`` + one add, and membership goes through the graph
    cache's Bloom-verified probe. ``stats`` (only passed while metrics
    are enabled) accumulates the per-chunk telemetry. With the live
    event bus on, a throttled ``progress`` tracker reports candidates
    consumed vs. the total (known exactly up front from ``cum[-1]``);
    with the bus off -- the default -- no tracker exists and the loop
    is unchanged.
    """
    cache = _graph_cache(oriented)
    if kernel.units == "out":
        vals32, ptr = oriented.out_csr()
        lens = oriented.out_degrees
        rows32 = cache.out_rows32
    else:
        vals32, ptr = oriented.in_csr()
        lens = oriented.in_degrees
        rows32 = cache.in_rows32
    source32, starts, counts = _windows(
        oriented, kernel, rows32, vals32, ptr, lens)

    cum = np.empty(counts.size + 1, dtype=np.int64)
    cum[0] = 0
    np.cumsum(counts, out=cum[1:])

    progress = None
    if _bus.is_enabled() and cum[-1] > 0:
        from repro.obs.live import Progress
        progress = Progress(label or "kernel", float(cum[-1]),
                            predicted_ops=float(cum[-1]),
                            scope="chunk", min_interval_s=0.5)

    count = 0
    batches: list[np.ndarray] | None = [] if collect else None
    nu = counts.size
    u0 = 0
    while u0 < nu:
        _memory.check_budget("engine chunk loop")
        u1 = int(np.searchsorted(cum, cum[u0] + CHUNK_CANDIDATES,
                                 side="right")) - 1
        u1 = min(max(u1, u0 + 1), nu)
        k = int(cum[u1] - cum[u0])
        if k == 0:
            u0 = u1
            continue
        if stats is not None:
            stats["chunks"] += 1
            stats["candidates"] += k
        cnt = counts[u0:u1]
        base = (starts[u0:u1] - (cum[u0:u1] - cum[u0])).astype(np.int32)
        pos = np.arange(k, dtype=np.int32)
        pos += np.repeat(base, cnt)
        w32 = source32[pos]
        if kernel.probe == "vw":
            a32 = np.repeat(vals32[u0:u1], cnt)
            b32 = w32
        elif kernel.probe == "rw":
            a32 = np.repeat(rows32[u0:u1], cnt)
            b32 = w32
        else:  # "wr"
            a32 = w32
            b32 = np.repeat(rows32[u0:u1], cnt)
        hits = cache.probe_hits(a32, b32, stats)
        count += hits.size
        if batches is not None and hits.size:
            unit = np.repeat(np.arange(u0, u1, dtype=np.int64), cnt)[hits]
            parts = {"w": w32[hits], "r": rows32[unit],
                     "v": vals32[unit]}
            batches.append(np.stack(
                [parts[name] for name in kernel.tri], axis=1))
        if progress is not None:
            progress.advance(k, ops=k)
        u0 = u1
    return count, batches


def _publish_native_stats() -> None:
    """Fold the last native run's telemetry into ``engine.native.*``.

    Per-thread op tallies become labelled counters
    (``engine.native.ops.t<k>``) -- deterministic for a fixed thread
    count by the static block assignment, so run-history comparisons
    on them are stable. Called only while metrics are enabled.
    """
    ns = _native.last_stats()
    if ns is None:
        return
    _metrics.inc("engine.native.runs")
    _metrics.inc("engine.native.ops", ns["ops"])
    _metrics.set_gauge("engine.native_threads", float(ns["threads"]))
    _metrics.set_gauge("engine.native_blocks", float(ns["blocks"]))
    for t, t_ops in enumerate(ns["ops_per_thread"]):
        _metrics.inc(f"engine.native.ops.t{t}", t_ops)


def run_method_kernel(oriented, method: str) -> int:
    """Count-only run of *exactly* ``method``'s kernel shape.

    Unlike ``run_numpy(collect=False)`` -- which is free to count
    through the cheapest base shape, since every method lists the same
    triangles -- this drives the named method's own windows, so the
    arrays it genuinely requires (e.g. the lazy in-key array for the
    ``in_lt``/``in_gt`` methods) actually materialize. The memory
    observability surface (``repro mem``) uses it to make the
    footprint-conformance comparison honest. Returns the count.
    """
    method = method.upper()
    kernel = _KERNELS.get(method)
    if kernel is None:
        raise ValueError(f"unknown method {method!r}; choose from "
                         f"{NUMPY_METHODS}")
    stats = _new_stats() if _metrics.is_enabled() else None
    count, _ = _run_kernel(oriented, kernel, collect=False,
                           stats=stats, label=f"mem:{method}")
    if stats is not None:
        _publish_stats(stats)
    return count


def run_numpy(oriented, method: str = "E1", collect: bool = True,
              use_native: bool | None = None) -> ListingResult:
    """Run one of the 18 methods through the vectorized engine.

    Returns a :class:`ListingResult` equivalent to the pure-Python
    engine's: identical triangles (as a set -- enumeration order
    differs from loop order), identical ``count``, ``ops`` and
    ``hash_inserts``; ``comparisons`` is closed-form (see module
    docstring). ``use_native`` gates the compiled kernels: ``None``
    (default) uses them when available, ``False`` stays pure NumPy,
    ``True`` requires them (``RuntimeError`` otherwise).
    ``extra["engine"]`` names the engine that produced the result:
    ``"native"`` when a compiled kernel did, else ``"numpy"``.
    """
    method = method.upper()
    kernel = _KERNELS.get(method)
    if kernel is None:
        raise ValueError(f"unknown method {method!r}; choose from "
                         f"{NUMPY_METHODS}")
    comps = _component_ops(oriented)
    spec = get_method(method)
    ops = sum(comps[c] for c in spec.components)
    hash_inserts = oriented.m if spec.family in ("vertex", "lei") else 0
    comparisons = ops if spec.family in ("vertex", "lei") \
        else comps[_PROBE_COMPONENT[method]]

    stats = _new_stats() if _metrics.is_enabled() else None
    # the compiled kernels are method-independent: one forward pass
    found = None
    if use_native is not False:
        # a collect is one streamed pass, boxed in C beside the kernel
        # (rows by (z, y) then x, shared ints, no per-row list)
        found = (_native.collect_triangles(oriented) if collect
                 else _native.count_triangles(oriented))
    used_native = found is not None
    if use_native and not used_native:
        raise RuntimeError("native engine requested but unavailable: "
                           f"{_native.status()}")
    triangles = None
    if used_native and collect:
        count, triangles = len(found), found
    elif used_native:
        count = found
    elif collect:
        count, batches = _run_kernel(oriented, kernel, collect=True,
                                     stats=stats, label=f"list:{method}")
        triangles = (list(zip(*np.concatenate(batches).T.tolist()))
                     if batches else [])
    else:
        # every method lists the same triangles: count the cheapest
        # base shape
        shape = min(("T1", "T2", "T3"), key=comps.get)
        count, _ = _run_kernel(oriented, _KERNELS[shape], collect=False,
                               stats=stats, label=f"count:{shape}")
    if stats is not None:
        _publish_stats(stats)
    if _metrics.is_enabled() and used_native:
        _publish_native_stats()
    _metrics.set_gauge("engine.native", 1.0 if used_native else 0.0)

    extra = {"engine": "native" if used_native else "numpy"}
    if used_native:
        last = _native.last_stats()
        if last is not None:
            extra["native_threads"] = last["threads"]
    return ListingResult(
        method=method,
        count=count,
        triangles=triangles,
        ops=ops,
        comparisons=comparisons,
        hash_inserts=hash_inserts,
        n=oriented.n,
        extra=extra,
    )
