"""Compiled listing/counting kernels (gcc + ctypes, zero dependencies).

The vectorized NumPy kernels bottom out at a few tens of nanoseconds
per candidate on a memory-bound host -- each elementwise pass streams
the whole chunk through RAM. The C kernels in this module do the same
exact work at ~1 ns per elementary operation, because the working set
per pivot is a handful of cache lines. Everything compiles *at first
use* with whatever C compiler the host already has (``cc``/``gcc``;
nothing is installed) and loads via :mod:`ctypes`. Everything is
gated: no compiler, a failed compile, or ``REPRO_NATIVE=0`` all
degrade to the NumPy path (a failed compile is cached for the process
and reported once as a structured warning; the rest stay DEBUG).

Version 2 extends the original count-only merge loop into a small
kernel library:

* **Two intersection variants** (Latapy 2008; Ortmann & Brandes 2014):
  ``merge`` -- two-pointer merge of the sorted prefix ``N+(z)[< y]``
  against ``N+(y)`` per directed edge ``z -> y``; and ``bitmap`` -- a
  per-thread byte mark array over ``N+(z)`` probed by one load per
  candidate, the hash/lookup regime that wins on skewed rows. Both
  enumerate the identical triangle sequence ``(x, y, z)`` with
  ``x < y < z``, ascending in ``x`` within each edge, so emitted
  buffers are bit-identical across variants *and* thread counts.
* **Listing, not just counting**: triangles are emitted into
  preallocated ``uint32`` buffers -- either exact-size (count pass,
  prefix offsets, emit pass) or streamed chunk-by-chunk through a
  resumable ``(z, iy)`` cursor so callers bound memory without
  per-triangle Python boxing.
* **A pthreads block driver**: the vertex range is pre-split into
  ``REPRO_NATIVE_BLOCKS`` edge-balanced blocks (a pure function of the
  graph, *not* of the thread count) and threads claim blocks statically
  round-robin. Per-block triangle/op counters are merged back in block
  order, so counts, ops, and emitted buffers are bit-identical at any
  ``REPRO_NATIVE_THREADS`` value.
* **Residual-degree wiring** (:func:`residual_wire`): the main loop of
  :func:`repro.graphs.generators.residual_degree_model`, in the same
  compile unit, bit-identical to the Python reference loop.
* **Smallest-last order** (:func:`smallest_last`): the Matula-Beck
  bucket queue of :func:`repro.orientations.degenerate.smallest_last_order`,
  bit-identical to its Python reference loop.

The exactness argument is the forward/compact-forward one: for each
edge ``z -> y``, every ``x`` in the intersection of ``N+(z)`` and
``N+(y)`` satisfies
``x < y < z`` (out-neighbors have smaller labels), and each triangle
has exactly one such ``(z, y)`` pair -- so the count is
orientation-exact and method-independent.
"""

from __future__ import annotations

import ctypes
import logging as _stdlog
import os
import shutil
import subprocess
import sys
import tempfile
import weakref

import numpy as np

from repro.obs import memory as _memory

__all__ = [
    "KERNEL_KINDS",
    "available",
    "count_triangles",
    "last_stats",
    "list_triangles_array",
    "resolve_kind",
    "resolve_threads",
    "residual_wire",
    "self_test",
    "smallest_last",
    "status",
    "stream_triangles",
]

#: Intersection-kernel variants the library compiles.
KERNEL_KINDS = ("merge", "bitmap")

_KIND_CODES = {"merge": 0, "bitmap": 1}

#: Vertex blocks the threaded driver splits a graph into. A fixed
#: block count (independent of the thread count) is what makes the
#: merged per-block counters and the emitted buffers bit-identical at
#: any pool geometry.
DEFAULT_BLOCKS = 64

_C_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <pthread.h>

#define KIND_MERGE 0
#define KIND_BITMAP 1

/* One prepared run over an edge-balanced block decomposition of the
 * oriented CSR. indices are uint32 (the engine gates graphs to
 * n < 2^32) and sorted ascending within each row; halving the operand
 * width nearly halves the memory-bound scan cost. block_starts has
 * nblocks+1 vertex boundaries. In the count pass (emit == 0)
 * block_counts/block_ops receive per-block triangle and elementary-op
 * totals; in the emit pass triangles are written as (x, y, z) uint32
 * triples at buf + 3 * offsets[block]. */
typedef struct {
    const int64_t *indptr;
    const uint32_t *indices;
    const int64_t *block_starts;
    int64_t nblocks;
    int64_t n;
    int kind;
    int emit;
    const int64_t *offsets;
    uint32_t *buf;
    int64_t *block_counts;
    int64_t *block_ops;
    int nthreads;
} plan_t;

typedef struct {
    const plan_t *plan;
    int tid;
    uint8_t *mark; /* n-byte scratch, bitmap kind only */
    int failed;
} worker_t;

/* Forward kernels over one vertex block. Both kinds enumerate, per
 * directed edge z -> y (iy ascending), the intersection
 * N+(z)[< y] with N+(y) in ascending x -- identical sequences, so
 * emitted buffers never depend on the kind or the thread count. The
 * count-only loops are branchless (predicated advances / summed mark
 * bytes); the emit loops branch on the rare match. */
static void run_block(const plan_t *p, int64_t b, uint8_t *mark)
{
    const int64_t *indptr = p->indptr;
    const uint32_t *indices = p->indices;
    const int64_t z0 = p->block_starts[b];
    const int64_t z1 = p->block_starts[b + 1];
    int64_t count = 0;
    int64_t ops = 0;
    uint32_t *out = p->emit ? p->buf + 3 * p->offsets[b] : 0;

    if (p->kind == KIND_MERGE) {
        for (int64_t z = z0; z < z1; z++) {
            const int64_t s = indptr[z];
            const int64_t e = indptr[z + 1];
            for (int64_t iy = s; iy < e; iy++) {
                const uint32_t y = indices[iy];
                int64_t i = s;
                int64_t j = indptr[y];
                const int64_t je = indptr[y + 1];
                if (out) {
                    while (i < iy && j < je) {
                        const uint32_t a = indices[i];
                        const uint32_t c = indices[j];
                        ops++;
                        if (a == c) {
                            *out++ = a;
                            *out++ = y;
                            *out++ = (uint32_t)z;
                            count++;
                        }
                        i += (a <= c);
                        j += (c <= a);
                    }
                } else {
                    while (i < iy && j < je) {
                        const uint32_t a = indices[i];
                        const uint32_t c = indices[j];
                        ops++;
                        count += (a == c);
                        i += (a <= c);
                        j += (c <= a);
                    }
                }
            }
        }
    } else {
        for (int64_t z = z0; z < z1; z++) {
            const int64_t s = indptr[z];
            const int64_t e = indptr[z + 1];
            for (int64_t i = s; i < e; i++)
                mark[indices[i]] = 1;
            for (int64_t iy = s; iy < e; iy++) {
                const uint32_t y = indices[iy];
                int64_t j = indptr[y];
                const int64_t je = indptr[y + 1];
                ops += je - j;
                if (out) {
                    for (; j < je; j++) {
                        const uint32_t x = indices[j];
                        if (mark[x]) {
                            *out++ = x;
                            *out++ = y;
                            *out++ = (uint32_t)z;
                            count++;
                        }
                    }
                } else {
                    for (; j < je; j++)
                        count += mark[indices[j]];
                }
            }
            for (int64_t i = s; i < e; i++)
                mark[indices[i]] = 0;
        }
    }
    if (!p->emit)
        p->block_counts[b] = count;
    p->block_ops[b] = ops;
}

/* Threads claim blocks statically round-robin by thread index, so the
 * block -> thread assignment (hence every per-thread tally Python
 * derives from the block arrays) is deterministic. */
static void *worker(void *arg)
{
    worker_t *w = (worker_t *)arg;
    const plan_t *p = w->plan;
    for (int64_t b = w->tid; b < p->nblocks; b += p->nthreads)
        run_block(p, b, w->mark);
    return 0;
}

int repro_forward(const int64_t *indptr, const uint32_t *indices,
                  const int64_t *block_starts, int64_t nblocks,
                  int64_t n, int kind, int nthreads, int emit,
                  const int64_t *offsets, uint32_t *buf,
                  int64_t *block_counts, int64_t *block_ops)
{
    plan_t p = {indptr, indices, block_starts, nblocks, n, kind, emit,
                offsets, buf, block_counts, block_ops, nthreads};
    if (nthreads < 1)
        nthreads = 1;
    if (nthreads > nblocks)
        nthreads = (int)(nblocks > 0 ? nblocks : 1);
    p.nthreads = nthreads;

    if (nthreads == 1) {
        uint8_t *mark = 0;
        if (kind == KIND_BITMAP) {
            mark = (uint8_t *)calloc(n > 0 ? (size_t)n : 1, 1);
            if (!mark)
                return -1;
        }
        for (int64_t b = 0; b < nblocks; b++)
            run_block(&p, b, mark);
        free(mark);
        return 0;
    }

    pthread_t *threads =
        (pthread_t *)malloc(sizeof(pthread_t) * (size_t)nthreads);
    worker_t *ws =
        (worker_t *)malloc(sizeof(worker_t) * (size_t)nthreads);
    if (!threads || !ws) {
        free(threads);
        free(ws);
        return -1;
    }
    int rc = 0;
    for (int t = 0; t < nthreads; t++) {
        ws[t].plan = &p;
        ws[t].tid = t;
        ws[t].failed = 0;
        ws[t].mark = 0;
        if (kind == KIND_BITMAP) {
            ws[t].mark = (uint8_t *)calloc(n > 0 ? (size_t)n : 1, 1);
            if (!ws[t].mark)
                rc = -1;
        }
    }
    int started = 0;
    if (rc == 0) {
        for (; started < nthreads; started++) {
            if (pthread_create(&threads[started], 0, worker,
                               &ws[started]) != 0) {
                rc = -1;
                break;
            }
        }
    }
    for (int t = 0; t < started; t++)
        pthread_join(threads[t], 0);
    for (int t = 0; t < nthreads; t++)
        free(ws[t].mark);
    free(threads);
    free(ws);
    return rc;
}

/* Resumable single-thread emitter: processes directed edges from
 * cursor = {z, iy} and appends triangles to buf until fewer than
 * max-out-degree triples may fit, then saves the cursor and returns
 * the number of triangles written. cap is in triangles. The caller
 * guarantees cap >= the maximum out-degree so every (z, iy) pair's
 * worst case fits an empty buffer. ops accumulates into *ops_out. */
int64_t repro_forward_stream(const int64_t *indptr,
                             const uint32_t *indices,
                             int64_t n, int kind, int64_t *cursor,
                             uint32_t *buf, int64_t cap,
                             int64_t *ops_out, uint8_t *mark)
{
    int64_t z = cursor[0];
    int64_t iy = cursor[1];
    int64_t written = 0;
    int64_t ops = 0;

    for (; z < n; z++) {
        const int64_t s = indptr[z];
        const int64_t e = indptr[z + 1];
        if (iy < s)
            iy = s;
        if (kind == KIND_BITMAP)
            for (int64_t i = s; i < e; i++)
                mark[indices[i]] = 1;
        for (; iy < e; iy++) {
            const uint32_t y = indices[iy];
            const int64_t js = indptr[y];
            const int64_t je = indptr[y + 1];
            int64_t worst = iy - s;
            if (je - js < worst)
                worst = je - js;
            if (written + worst > cap)
                goto pause;
            uint32_t *out = buf + 3 * written;
            if (kind == KIND_MERGE) {
                int64_t i = s;
                int64_t j = js;
                while (i < iy && j < je) {
                    const uint32_t a = indices[i];
                    const uint32_t c = indices[j];
                    ops++;
                    if (a == c) {
                        *out++ = a;
                        *out++ = y;
                        *out++ = (uint32_t)z;
                        written++;
                    }
                    i += (a <= c);
                    j += (c <= a);
                }
            } else {
                ops += je - js;
                for (int64_t j = js; j < je; j++) {
                    const uint32_t x = indices[j];
                    if (mark[x]) {
                        *out++ = x;
                        *out++ = y;
                        *out++ = (uint32_t)z;
                        written++;
                    }
                }
            }
        }
        if (kind == KIND_BITMAP)
            for (int64_t i = s; i < e; i++)
                mark[indices[i]] = 0;
        iy = -1; /* next z starts at its own row head */
    }
pause:
    if (kind == KIND_BITMAP && z < n) {
        const int64_t s = indptr[z];
        const int64_t e = indptr[z + 1];
        for (int64_t i = s; i < e; i++)
            mark[indices[i]] = 0;
    }
    cursor[0] = z;
    cursor[1] = iy;
    *ops_out += ops;
    return written;
}

/* Set node v's sampling weight to w: one Fenwick point update by the
 * difference, as FenwickTree.add does, plus the running total. */
static void set_weight(double *tree, double *weight, double *total,
                       int64_t n, int64_t v, double w)
{
    const double delta = w - weight[v];
    for (int64_t i = v + 1; i <= n; i += i & -i)
        tree[i] += delta;
    *total += delta;
    weight[v] = w;
}

/* Residual-degree wiring: the main loop of
 * repro.graphs.generators.residual_degree_model (section 7.2). Nodes
 * are taken in the caller's hubs-first order; each open stub of node i
 * picks a partner with probability proportional to its residual
 * degree among every node except i and i's neighbours.
 *
 * The sampling tree mirrors repro.graphs.fenwick.FenwickTree op for op
 * in float64: the same O(n) construction, the same running total, and
 * the same binary-lifting descent on target = u * total. Every weight
 * and partial sum is an integer below 2^53, so tree updates are exact
 * in any order, and the descent's fractional remainder meets the same
 * operands in the same sequence as the Python loop. A node's current
 * weight is tracked in weight[] instead of two prefix sums (equal, by
 * the same exactness). Neighbour lists live in a CSR scratch array
 * whose row v has room for degree(v) entries.
 *
 * residual holds the degrees on entry and the unplaced stubs on exit;
 * edges receives (min, max) pairs in placement order; u holds nu >=
 * sum(degrees) / 2 uniforms, one consumed per placed edge. Returns the
 * number of edges placed, -1 when scratch allocation fails, and -2 if
 * a descent lands outside the positive weights (an internal error). */
int64_t repro_residual_wire(int64_t n, const int64_t *order,
                            int64_t *residual, const double *u,
                            int64_t nu, int64_t *edges)
{
    double *tree = (double *)calloc((size_t)n + 1, sizeof(double));
    double *weight = (double *)malloc(((size_t)n + 1) * sizeof(double));
    int64_t *start = (int64_t *)malloc(((size_t)n + 1) * sizeof(int64_t));
    int64_t *fill = (int64_t *)calloc((size_t)n + 1, sizeof(int64_t));
    int64_t *nbrs = (int64_t *)malloc(
        ((size_t)(2 * nu) + 1) * sizeof(int64_t));
    double total = 0.0;
    int64_t placed = -1;
    if (!tree || !weight || !start || !fill || !nbrs)
        goto done;

    start[0] = 0;
    for (int64_t v = 0; v < n; v++) {
        start[v + 1] = start[v] + residual[v];
        weight[v] = (double)residual[v];
        tree[v + 1] = weight[v];
        total += weight[v];
    }
    for (int64_t i = 1; i <= n; i++) {
        const int64_t parent = i + (i & -i);
        if (parent <= n)
            tree[parent] += tree[i];
    }
    int log = 0;
    while (((int64_t)1 << log) < n)
        log++;

    placed = 0;
    for (int64_t k = 0; k < n; k++) {
        const int64_t i = order[k];
        if (residual[i] <= 0)
            continue;
        /* exclude i and its current neighbours for i's whole run */
        int64_t *row = nbrs + start[i];
        set_weight(tree, weight, &total, n, i, 0.0);
        for (int64_t t = 0; t < fill[i]; t++)
            if (weight[row[t]] > 0)
                set_weight(tree, weight, &total, n, row[t], 0.0);
        while (residual[i] > 0) {
            if (total <= 1e-9)
                break; /* stuck: the caller repairs by swaps */
            /* volatile: round the product before the descent, so no
             * compiler can fuse it into the first subtraction */
            volatile double target = u[placed] * total;
            double remaining = target;
            int64_t j = 0;
            for (int64_t step = (int64_t)1 << log; step > 0; step >>= 1) {
                const int64_t next = j + step;
                if (next <= n && tree[next] <= remaining) {
                    remaining -= tree[next];
                    j = next;
                }
            }
            if (j >= n || !(weight[j] > 0)) {
                placed = -2;
                goto done;
            }
            edges[2 * placed] = i < j ? i : j;
            edges[2 * placed + 1] = i < j ? j : i;
            placed++;
            row[fill[i]++] = j;
            nbrs[start[j] + fill[j]++] = i;
            residual[i]--;
            residual[j]--;
            set_weight(tree, weight, &total, n, j, 0.0);
        }
        /* restore i and its neighbours to their updated residuals */
        if (residual[i] > 0)
            set_weight(tree, weight, &total, n, i, (double)residual[i]);
        for (int64_t t = 0; t < fill[i]; t++)
            if (residual[row[t]] > 0)
                set_weight(tree, weight, &total, n, row[t],
                           (double)residual[row[t]]);
    }
done:
    free(tree);
    free(weight);
    free(start);
    free(fill);
    free(nbrs);
    return placed;
}

/* Matula-Beck smallest-last order: the bucket queue of
 * repro.orientations.degenerate._smallest_last_python, op for op. Each
 * bucket is a stack (push at the end, pop from the end), a vertex
 * leaves its bucket by swap-with-last through position[], the scan for
 * the lowest non-empty bucket restarts at max(current - 1, 0), and the
 * neighbours of a deleted vertex are visited in CSR order -- so order[]
 * and the degeneracy are bit-identical to the Python loop.
 *
 * A vertex in bucket d has current degree d <= its initial degree, so
 * bucket d never holds more than #{v : degrees[v] >= d} vertices. One
 * slot array of n + sum(degrees) entries, cut at those suffix counts,
 * holds every bucket without reallocation.
 *
 * Returns the degeneracy, -1 when scratch allocation fails, and -2 if a
 * present vertex would drop below degree 0 (an asymmetric adjacency). */
int64_t repro_smallest_last(int64_t n, const int64_t *indptr,
                            const int64_t *indices,
                            const int64_t *degrees, int64_t *order)
{
    int64_t max_deg = 0;
    for (int64_t v = 0; v < n; v++)
        if (degrees[v] > max_deg)
            max_deg = degrees[v];
    int64_t *degree = (int64_t *)malloc(((size_t)n + 1) * sizeof(int64_t));
    int64_t *position =
        (int64_t *)malloc(((size_t)n + 1) * sizeof(int64_t));
    uint8_t *removed = (uint8_t *)calloc((size_t)n + 1, 1);
    int64_t *start =
        (int64_t *)calloc((size_t)max_deg + 2, sizeof(int64_t));
    int64_t *size = (int64_t *)calloc((size_t)max_deg + 1, sizeof(int64_t));
    int64_t *slots = 0;
    int64_t degeneracy = -1;
    if (!degree || !position || !removed || !start || !size)
        goto done;

    /* size[] first counts degrees, then suffix-sums them into bucket
     * capacities; start[] is their prefix sum */
    for (int64_t v = 0; v < n; v++)
        size[degrees[v]]++;
    for (int64_t d = max_deg - 1; d >= 0; d--)
        size[d] += size[d + 1];
    for (int64_t d = 0; d <= max_deg; d++) {
        start[d + 1] = start[d] + size[d];
        size[d] = 0;
    }
    slots = (int64_t *)malloc(((size_t)start[max_deg + 1] + 1)
                              * sizeof(int64_t));
    if (!slots)
        goto done;
    for (int64_t v = 0; v < n; v++) {
        const int64_t d = degrees[v];
        degree[v] = d;
        position[v] = size[d];
        slots[start[d] + size[d]++] = v;
    }

    degeneracy = 0;
    int64_t current = 0;
    for (int64_t step = 0; step < n; step++) {
        current = current > 0 ? current - 1 : 0;
        while (current <= max_deg && size[current] == 0)
            current++;
        if (current > max_deg) {
            degeneracy = -2;
            goto done;
        }
        const int64_t v = slots[start[current] + --size[current]];
        removed[v] = 1;
        order[step] = v;
        if (current > degeneracy)
            degeneracy = current;
        for (int64_t i = indptr[v]; i < indptr[v + 1]; i++) {
            const int64_t u = indices[i];
            if (removed[u])
                continue;
            const int64_t d = degree[u];
            if (d <= 0) {
                degeneracy = -2;
                goto done;
            }
            /* move u from bucket d to bucket d - 1 */
            int64_t *bucket = slots + start[d];
            const int64_t pos = position[u];
            const int64_t last = bucket[--size[d]];
            bucket[pos] = last;
            position[last] = pos;
            degree[u] = d - 1;
            position[u] = size[d - 1];
            slots[start[d - 1] + size[d - 1]++] = u;
        }
    }
done:
    free(degree);
    free(position);
    free(removed);
    free(start);
    free(size);
    free(slots);
    return degeneracy;
}
"""

_I64P = ctypes.POINTER(ctypes.c_int64)
_U32P = ctypes.POINTER(ctypes.c_uint32)
_U8P = ctypes.POINTER(ctypes.c_uint8)
_F64P = ctypes.POINTER(ctypes.c_double)


class _Library:
    """Resolved ctypes handles of the compiled kernel library."""

    def __init__(self, cdll: ctypes.CDLL):
        self._cdll = cdll  # keep the mapping alive
        self.forward = cdll.repro_forward
        self.forward.restype = ctypes.c_int
        self.forward.argtypes = [
            _I64P, _U32P, _I64P, ctypes.c_int64, ctypes.c_int64,
            ctypes.c_int, ctypes.c_int, ctypes.c_int, _I64P, _U32P,
            _I64P, _I64P,
        ]
        self.forward_stream = cdll.repro_forward_stream
        self.forward_stream.restype = ctypes.c_int64
        self.forward_stream.argtypes = [
            _I64P, _U32P, ctypes.c_int64, ctypes.c_int, _I64P, _U32P,
            ctypes.c_int64, _I64P, _U8P,
        ]
        self.residual_wire = cdll.repro_residual_wire
        self.residual_wire.restype = ctypes.c_int64
        self.residual_wire.argtypes = [
            ctypes.c_int64, _I64P, _I64P, _F64P, ctypes.c_int64, _I64P,
        ]
        self.smallest_last = cdll.repro_smallest_last
        self.smallest_last.restype = ctypes.c_int64
        self.smallest_last.argtypes = [
            ctypes.c_int64, _I64P, _I64P, _I64P, _I64P,
        ]


_UNSET = object()
_lib = _UNSET  # tri-state: _UNSET -> not tried; None -> unavailable
_status: dict = {"state": "unresolved", "reason": None, "compiler": None}
_last_stats: dict | None = None


def _build_library():
    """Compile the kernels into a per-process temp dir; None on failure.

    The outcome is recorded in :data:`_status`; :func:`available`
    caches the result so a failed compile never re-invokes the
    compiler in this process, and emits exactly one structured WARNING
    through :mod:`repro.obs.logging`.
    """
    if os.environ.get("REPRO_NATIVE", "1").lower() in ("0", "false", ""):
        _status.update(state="gated", reason="REPRO_NATIVE disabled")
        return None
    compiler = shutil.which("cc") or shutil.which("gcc")
    if compiler is None:
        _status.update(state="no-compiler",
                       reason="no cc/gcc on PATH")
        return None
    _status["compiler"] = compiler
    workdir = tempfile.mkdtemp(prefix="repro-native-")
    src = os.path.join(workdir, "kernel.c")
    lib = os.path.join(workdir, "kernel.so")
    try:
        with open(src, "w") as fh:
            fh.write(_C_SOURCE)
        subprocess.run(
            [compiler, "-O3", "-shared", "-fPIC", "-pthread",
             "-o", lib, src],
            check=True, capture_output=True, timeout=120)
        handle = _Library(ctypes.CDLL(lib))
        _status.update(state="ok", reason=None)
        return handle
    except subprocess.CalledProcessError as exc:
        detail = (exc.stderr or b"").decode("utf-8", "replace").strip()
        _status.update(state="compile-failed",
                       reason=detail.splitlines()[-1] if detail
                       else "compiler exited non-zero")
        return None
    except (OSError, subprocess.SubprocessError, AttributeError) as exc:
        _status.update(state="compile-failed", reason=str(exc))
        return None


def available() -> bool:
    """Whether the compiled kernels are usable in this process.

    The first call resolves (and caches) the compile attempt -- gated,
    missing-compiler, and success outcomes log as structured DEBUG
    events, a *failed compile* as one structured WARNING -- and
    publishes the ``engine.native_available`` gauge when metrics are
    enabled. Subsequent calls are a cached attribute check: a failure
    never retries the compiler within the process.
    """
    global _lib
    if _lib is _UNSET:
        _lib = _build_library()
        from repro.obs import metrics as _metrics
        from repro.obs.logging import get_logger, log_event
        level = (_stdlog.WARNING
                 if _status["state"] == "compile-failed"
                 else _stdlog.DEBUG)
        log_event(get_logger(__name__), level,
                  "native kernel resolution",
                  available=_lib is not None,
                  state=_status["state"],
                  reason=_status["reason"] or "",
                  gated=os.environ.get("REPRO_NATIVE", "1"))
        _metrics.set_gauge("engine.native_available",
                           1.0 if _lib is not None else 0.0)
    return _lib is not None


def status() -> dict:
    """Resolution state: ``{state, reason, compiler}`` (post-resolve).

    ``state`` is one of ``unresolved``, ``ok``, ``gated``,
    ``no-compiler``, ``compile-failed``, or ``disabled`` (a test
    monkeypatched the library away). Benchmark sidecars record this
    next to their timings.
    """
    out = dict(_status)
    if _lib is None and out["state"] in ("unresolved", "ok"):
        out["state"] = "disabled"
    return out


def resolve_threads(threads: int | None = None) -> int:
    """Worker threads for the block driver.

    Explicit argument first, then ``REPRO_NATIVE_THREADS``, then the
    CPU count. Always at least 1. Thread count never changes results
    -- only wall-clock.
    """
    if threads is not None:
        return max(1, int(threads))
    env = os.environ.get("REPRO_NATIVE_THREADS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return os.cpu_count() or 1


def resolve_kind(oriented, kind: str | None = None) -> str:
    """Intersection variant: explicit, ``REPRO_NATIVE_KERNEL``, or auto.

    The auto heuristic follows the degree-regime argument (Latapy
    2008): the bitmap probe does one predicted byte load per candidate
    where the merge does a data-dependent pointer dance, so it wins
    whenever its ``n``-byte mark array stays cache-friendly -- measured
    ~1.5-3x on both the 3k and 100k Pareto benches. The two-pointer
    merge takes over for huge vertex sets where per-thread mark arrays
    would thrash (or be refused by the allocator).
    """
    if kind is None:
        kind = os.environ.get("REPRO_NATIVE_KERNEL", "auto") \
            .strip().lower() or "auto"
    if kind == "auto":
        kind = "bitmap" if oriented.n <= (1 << 25) else "merge"
    if kind not in _KIND_CODES:
        raise ValueError(f"unknown native kernel {kind!r}; choose from "
                         f"{KERNEL_KINDS + ('auto',)}")
    return kind


class _GraphArrays:
    """Per-graph native-call state, weakly cached on the oriented graph.

    Contiguous int64 CSR mirrors (ctypes-ready), the edge-balanced
    block decomposition, and the max out-degree (the streaming
    emitter's worst-case row). Building this once per graph keeps the
    per-call overhead of the native path to a few argument loads --
    which is most of what the ns/edge metric sees on small graphs.
    """

    def __init__(self, oriented, nblocks: int):
        indices, indptr = oriented.out_csr()
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.uint32)
        self.n = int(oriented.n)
        self.m = int(self.indices.size)
        self.max_out_degree = (int(oriented.out_degrees.max())
                               if self.n else 0)
        nblocks = max(1, min(nblocks, self.n or 1))
        # Edge-balanced boundaries: a pure function of the graph, so
        # counts/ops/buffers cannot depend on the thread count.
        targets = np.linspace(0, self.m, nblocks + 1)
        starts = np.searchsorted(self.indptr, targets, side="left")
        starts[0], starts[-1] = 0, self.n
        self.block_starts = np.ascontiguousarray(
            np.maximum.accumulate(starts), dtype=np.int64)
        self.nblocks = nblocks
        self.block_counts = np.zeros(nblocks, dtype=np.int64)
        self.block_ops = np.zeros(nblocks, dtype=np.int64)
        if _memory.is_enabled():
            _memory.track(self, "native.csr",
                          (self.indptr, self.indices))
        self._p_indptr = self.indptr.ctypes.data_as(_I64P)
        self._p_indices = self.indices.ctypes.data_as(_U32P)
        self._p_starts = self.block_starts.ctypes.data_as(_I64P)
        self._p_counts = self.block_counts.ctypes.data_as(_I64P)
        self._p_ops = self.block_ops.ctypes.data_as(_I64P)


_ARRAYS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _resolve_blocks() -> int:
    env = os.environ.get("REPRO_NATIVE_BLOCKS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return DEFAULT_BLOCKS


def _graph_arrays(oriented) -> _GraphArrays:
    arrays = _ARRAYS.get(oriented)
    if arrays is None:
        arrays = _GraphArrays(oriented, _resolve_blocks())
        _ARRAYS[oriented] = arrays
    return arrays


def _record_stats(arrays: _GraphArrays, kind: str, threads: int,
                  count: int) -> None:
    """Stash one native run's block counters for :func:`last_stats`.

    Only a snapshot of the per-block op counters is taken on the hot
    path; the per-thread breakdown (deterministic from the static
    round-robin block assignment) is derived lazily at read time.
    """
    global _last_stats
    _last_stats = (arrays.block_ops.copy(),
                   min(max(threads, 1), arrays.nblocks),
                   kind, arrays.nblocks, count)


def last_stats() -> dict | None:
    """Telemetry of the most recent native run in this process.

    ``{kind, threads, blocks, ops, ops_per_thread, triangles}`` --
    ``ops`` counts the kernel's elementary operations (merge pointer
    advances or bitmap probes), merged from the per-block counters in
    block order; ``ops_per_thread`` follows the static round-robin
    block assignment, so it is identical run-to-run for a fixed
    thread count.
    """
    if _last_stats is None:
        return None
    if isinstance(_last_stats, dict):  # streaming path records directly
        return dict(_last_stats)
    block_ops, threads, kind, nblocks, count = _last_stats
    return {
        "kind": kind,
        "threads": threads,
        "blocks": nblocks,
        "ops": int(block_ops.sum()),
        "ops_per_thread": [int(block_ops[t::threads].sum())
                           for t in range(threads)],
        "triangles": count,
    }


def count_triangles(oriented, threads: int | None = None,
                    kind: str | None = None):
    """Exact triangle count via the compiled kernels, or None if gated.

    Accepts any :class:`~repro.graphs.digraph.OrientedGraph`; the
    caller falls back to the NumPy path on None. ``threads`` defaults
    to ``REPRO_NATIVE_THREADS`` (then the CPU count); the result is
    bit-identical at any value. Graphs with ``n >= 2^32`` exceed the
    uint32 index mirrors and fall back.
    """
    if not available() or oriented.n >= 2**32:
        return None
    arrays = _graph_arrays(oriented)
    kind = resolve_kind(oriented, kind)
    threads = resolve_threads(threads)
    if arrays.m == 0:
        _record_stats(arrays, kind, threads, 0)
        return 0
    rc = _lib.forward(
        arrays._p_indptr, arrays._p_indices, arrays._p_starts,
        arrays.nblocks, arrays.n, _KIND_CODES[kind], threads, 0,
        None, None, arrays._p_counts, arrays._p_ops)
    if rc != 0:
        return None
    count = int(arrays.block_counts.sum())
    _record_stats(arrays, kind, threads, count)
    return count


def list_triangles_array(oriented, threads: int | None = None,
                         kind: str | None = None):
    """All triangles as a ``(count, 3)`` uint32 array, or None if gated.

    Two passes over the block decomposition: a threaded count pass
    yields per-block totals, their prefix sum fixes each block's write
    offset, and a threaded emit pass fills one exact-size preallocated
    buffer. Rows are ``(x, y, z)`` with ``x < y < z``, ordered by
    ``(z, y)`` then ascending ``x`` -- the same bytes at any thread
    count and for either kernel kind.
    """
    if not available() or oriented.n >= 2**32:
        return None
    arrays = _graph_arrays(oriented)
    kind = resolve_kind(oriented, kind)
    threads = resolve_threads(threads)
    if arrays.m == 0:
        _record_stats(arrays, kind, threads, 0)
        return np.empty((0, 3), dtype=np.uint32)
    rc = _lib.forward(
        arrays._p_indptr, arrays._p_indices, arrays._p_starts,
        arrays.nblocks, arrays.n, _KIND_CODES[kind], threads, 0,
        None, None, arrays._p_counts, arrays._p_ops)
    if rc != 0:
        return None
    total = int(arrays.block_counts.sum())
    offsets = np.zeros(arrays.nblocks, dtype=np.int64)
    np.cumsum(arrays.block_counts[:-1], out=offsets[1:])
    buf = np.empty(total * 3, dtype=np.uint32)
    token = _memory.check_in("native.triangles", buf)
    try:
        rc = _lib.forward(
            arrays._p_indptr, arrays._p_indices, arrays._p_starts,
            arrays.nblocks, arrays.n, _KIND_CODES[kind], threads, 1,
            offsets.ctypes.data_as(_I64P), buf.ctypes.data_as(_U32P),
            arrays._p_counts, arrays._p_ops)
    finally:
        _memory.check_out(token)
    if rc != 0:
        return None
    _record_stats(arrays, kind, threads, total)
    return buf.reshape(-1, 3)


def stream_triangles(oriented, chunk_triangles: int = 1 << 20,
                     kind: str | None = None):
    """Generator of ``(k, 3)`` uint32 triangle batches, or None if gated.

    The streaming spill-back path: a resumable C cursor fills one
    reusable ``chunk_triangles``-capacity buffer per call, so peak
    memory is one chunk regardless of the triangle count and Python
    never boxes individual triangles. Batch concatenation equals
    :func:`list_triangles_array` exactly.
    """
    if not available() or oriented.n >= 2**32:
        return None
    arrays = _graph_arrays(oriented)
    kind_name = resolve_kind(oriented, kind)

    def _gen():
        cap = max(int(chunk_triangles), arrays.max_out_degree, 1)
        cursor = np.zeros(2, dtype=np.int64)
        ops = np.zeros(1, dtype=np.int64)
        buf = np.empty(cap * 3, dtype=np.uint32)
        mark = np.zeros(max(arrays.n, 1), dtype=np.uint8)
        tokens = (_memory.check_in("native.triangles", buf),
                  _memory.check_in("native.mark", mark))
        total = 0
        try:
            while cursor[0] < arrays.n:
                _memory.check_budget("native streaming listing")
                written = _lib.forward_stream(
                    arrays._p_indptr, arrays._p_indices, arrays.n,
                    _KIND_CODES[kind_name],
                    cursor.ctypes.data_as(_I64P),
                    buf.ctypes.data_as(_U32P), cap,
                    ops.ctypes.data_as(_I64P),
                    mark.ctypes.data_as(_U8P))
                if written < 0:
                    raise RuntimeError("native streaming kernel failed")
                if written:
                    total += int(written)
                    yield buf[:written * 3].reshape(-1, 3).copy()
                elif cursor[0] < arrays.n:  # pragma: no cover - safety
                    raise RuntimeError(
                        "native streaming kernel stalled")
        finally:
            for token in tokens:
                _memory.check_out(token)
        global _last_stats
        _last_stats = {"kind": kind_name, "threads": 1,
                       "blocks": 1, "ops": int(ops[0]),
                       "ops_per_thread": [int(ops[0])],
                       "triangles": total}

    return _gen()


def residual_wire(order, residual, u):
    """Run the residual-degree wiring loop in C, or None if gated.

    ``order`` is the node processing order, ``residual`` an int64 copy
    of the degree sequence (updated in place to the unplaced stubs),
    and ``u`` at least ``sum(degrees) // 2`` uniforms on ``[0, 1)``.
    Returns the placed edges as an ``(used, 2)`` int64 array of
    ``(min, max)`` pairs in placement order; edge ``k`` consumed
    ``u[k]``. The caller,
    :func:`repro.graphs.generators.residual_degree_model`, owns the RNG
    bookkeeping that makes this bit-identical to its Python loop.
    """
    if not available():
        return None
    order = np.ascontiguousarray(order, dtype=np.int64)
    u = np.ascontiguousarray(u, dtype=np.float64)
    n = residual.size
    if (residual.dtype != np.int64 or not residual.flags.c_contiguous
            or order.shape != (n,)):
        raise ValueError("residual must be a contiguous int64 array "
                         "the size of order")
    # the C loop indexes by order and sizes its scratch by the degrees
    if n and (order.min() < 0 or order.max() >= n
              or residual.min() < 0 or 2 * u.size < residual.sum()):
        raise ValueError("order must index 0..n-1, degrees must be "
                         "non-negative, and u needs sum(degrees) // 2 "
                         "draws")
    edges = np.empty((u.size, 2), dtype=np.int64)
    used = _lib.residual_wire(
        n, order.ctypes.data_as(_I64P),
        residual.ctypes.data_as(_I64P), u.ctypes.data_as(_F64P),
        u.size, edges.ctypes.data_as(_I64P))
    if used == -1:
        raise MemoryError("native residual wiring: scratch allocation "
                          "failed")
    if used < 0:
        raise RuntimeError("native residual wiring: descent left the "
                           "positive weights")
    return edges[:used]


def smallest_last(indptr, indices, degrees):
    """Matula-Beck smallest-last order in C, or None if gated.

    Takes an undirected graph's symmetric CSR (``indptr``, ``indices``)
    and its ``degrees``, all contiguous int64. Returns
    ``(order, degeneracy)`` bit-identical to
    :func:`repro.orientations.degenerate._smallest_last_python`:
    ``order[k]`` is the vertex deleted at step ``k``.
    """
    if not available():
        return None
    arrays = (indptr, indices, degrees)
    if any(not isinstance(a, np.ndarray) or a.dtype != np.int64
           or a.ndim != 1 or not a.flags.c_contiguous for a in arrays):
        raise ValueError("indptr, indices and degrees must be contiguous "
                         "1-d int64 arrays")
    n = degrees.size
    # the C loop reads rows by indptr, indexes by vertex and sizes its
    # buckets by the degrees, so all three must describe one CSR
    if (indptr.shape != (n + 1,) or indptr[0] != 0
            or indptr[-1] != indices.size
            or not np.array_equal(np.diff(indptr), degrees)
            or (n and degrees.min() < 0)):
        raise ValueError("degrees must be the row lengths of a CSR "
                         "with indptr[0] == 0 and indptr[-1] == "
                         "indices.size")
    if indices.size and (indices.min() < 0 or indices.max() >= n):
        raise ValueError("indices must index 0..n-1")
    order = np.empty(n, dtype=np.int64)
    degeneracy = _lib.smallest_last(
        n, indptr.ctypes.data_as(_I64P), indices.ctypes.data_as(_I64P),
        degrees.ctypes.data_as(_I64P), order.ctypes.data_as(_I64P))
    if degeneracy == -1:
        raise MemoryError("native smallest-last: scratch allocation "
                          "failed")
    if degeneracy < 0:
        raise ValueError("native smallest-last: the adjacency is not "
                         "symmetric")
    return order, int(degeneracy)


def self_test() -> bool:
    """Compile-and-verify: a triangle + a path, a residual wiring, and a
    smallest-last order.

    Used by benchmarks and CI before trusting the library.
    """
    if not available():
        return False
    from repro.graphs.graph import Graph
    from repro.graphs.digraph import OrientedGraph
    tri = OrientedGraph(Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)]),
                        np.arange(4))
    if count_triangles(tri) != 1:
        return False
    listed = list_triangles_array(tri)
    if listed is None or listed.tolist() != [[0, 1, 2]]:
        return False
    # residual wiring: C loop against the Python reference, same seed
    from repro.graphs import generators
    degrees = np.array([5, 4, 4, 3, 3, 3, 2, 2, 1, 1], dtype=np.int64)
    order = np.argsort(degrees)[::-1]
    rng_ref, rng_native = np.random.default_rng(7), np.random.default_rng(7)
    ref_edges, ref_residual, __ = generators._wire_python(
        degrees, order, rng_ref)
    edges, residual = generators._wire_native(degrees, order, rng_native)
    if not (edges.tolist() == [list(e) for e in ref_edges]
            and residual.tolist() == ref_residual.tolist()
            and rng_native.bit_generator.state
            == rng_ref.bit_generator.state):
        return False
    # smallest-last order: C bucket queue against the Python reference
    # on a wheel with a pendant path -- degree ties on the rim, and a
    # hub that moves down one bucket per deleted spoke
    from repro.orientations import degenerate
    hub = [(0, v) for v in range(1, 8)]
    rim = [(v, v + 1) for v in range(1, 7)] + [(7, 1)]
    wheel = Graph(11, hub + rim + [(7, 8), (8, 9), (9, 10)])
    indices, indptr = wheel.csr()
    order, k = smallest_last(indptr, indices, wheel.degrees)
    ref_order, ref_k = degenerate._smallest_last_python(wheel)
    return order.tolist() == ref_order.tolist() and k == ref_k


if __name__ == "__main__":  # pragma: no cover - manual smoke hook
    print("native available:", available(), "status:", status(),
          "self_test:", self_test(), file=sys.stderr)
