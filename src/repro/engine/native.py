"""Compiled listing/counting kernels (gcc + ctypes, zero dependencies).

The instrumented Python listers pay microseconds per candidate. The C
kernels in this module list the same triangles at ~1 ns per
elementary operation, because the working set per pivot is a handful
of cache lines. The library compiles with
whatever C compiler the host already has (``cc``/``gcc``; nothing is
installed), is cached per user under :func:`tempfile.gettempdir`
(keyed by the source, the compiler and the flags, so later processes
load it without compiling; stale keys are pruned), and loads via
:mod:`ctypes`. Everything is gated: no compiler, a failed compile,
or ``REPRO_NATIVE=0`` all degrade to the Python reference (a failed compile
is cached for the process and reported once as a structured warning;
the rest stay DEBUG).

Version 2 extends the original count-only loop into a small kernel
library:

* **One forward intersection** (Latapy 2008): per directed edge
  ``z -> y``, the candidates ``x`` of ``N+(y)`` are probed against a
  byte mark array over ``N+(z)``, one load per candidate. It enumerates
  each triangle once as ``(x, y, z)`` with ``x < y < z``, ascending in
  ``x`` within each edge, so the emitted rows are the same at any
  chunk size. Each thread holds one ``n``-byte mark.
* **Listing, not just counting**: one C loop writes triangles, into
  preallocated ``uint32`` buffers filled chunk by chunk through a
  resumable ``(z, iy)`` cursor so callers bound memory
  (:func:`stream_triangles`, and the collect below, which needs no
  count pass).
* **A threaded count pass**: the vertex range is pre-split into
  :data:`DEFAULT_BLOCKS` edge-balanced blocks (a pure function of the
  graph, *not* of the thread count) and threads claim blocks statically
  round-robin. Per-block triangle/op counters are merged back in block
  order, so counts and ops are bit-identical at any
  ``REPRO_NATIVE_THREADS`` value.
* **Residual-degree wiring** (:func:`residual_wire`): the main loop of
  :func:`repro.graphs.generators.residual_degree_model`, in the same
  compile unit, drawing partners by rejection from a pool of open
  stubs with uniforms read from the generator's ``bitgen_t``,
  bit-identical to the Python reference loop. Each vertex's state is
  one 16-byte record. The same loop has a pricing sink
  (:func:`residual_out_degrees`) that writes no edge: it counts each
  edge at its tail under a degree-monotone label map and hands back
  the equal-degree edges, on the same draws.
* **Configuration-model wiring** (:func:`configuration_wire`): the
  stub matching of :func:`repro.graphs.generators.configuration_model`
  in one pass -- uint32 stubs inside the returned key array,
  Fisher-Yates with NumPy's bounded Lemire draws (those of
  ``rng.integers``) through ``bitgen_t``, then loops dropped, two
  counting scatters and repeats dropped -- bit-identical to the
  reference (keys and RNG state).
* **Key adoption** (:func:`adopt_keys`): the check and the degree count
  of :meth:`repro.graphs.graph.Graph._adopt` in one sequential walk
  over the edge keys, naming the reference's fault.
* **Oriented CSR from keys** (:func:`oriented_csr`): the out- and
  in-CSR of :class:`repro.graphs.digraph.OrientedGraph` from the sorted
  edge keys and a label map, in O(n + m) counting scatters with no
  sort, equal to the sorting reference build element for element.
* **Smallest-last order** (:func:`smallest_last`): the Matula-Beck
  bucket queue of :func:`repro.orientations.degenerate.smallest_last_peel`
  straight from the sorted edge keys -- uint32 neighbour rows in
  ``Graph.csr()``'s order and one 8-byte record per vertex, all freed
  before return -- bit-identical to its Python reference loop, with
  each vertex's degree at deletion (its degenerate out-degree).
* **Orientation pricing** (:func:`oriented_sums`): the totals of
  eqs. (7)-(9) under several label maps in one call (the exact
  planner's, and the Monte-Carlo cells' that realize their graphs)
  from the sorted edge keys,
  equal to :func:`repro.orientations.relabel.oriented_degrees`
  followed by :func:`repro.core.costs.component_ops` per map.
* **Collect boxing** (:func:`collect_triangles`):
  the list of ``(x, y, z)`` tuples that ``collect=True`` returns, in
  one streamed pass: a worker thread runs the stream cursor into a
  ring of two chunk buffers while the calling thread boxes each filled
  chunk in C (``PyTuple_Pack`` per tuple), with one shared ``int`` per
  vertex across the whole list and every tuple untracked by the
  garbage collector. The boxer's source (:data:`_C_BOXER`) is appended
  to the kernels' and hand-declares the few stable-ABI calls it makes,
  so the build still needs no ``Python.h``; it is called through a
  GIL-holding :class:`ctypes.PyDLL` handle on the same mapping, not a
  second library.

The exactness argument is the forward/compact-forward one: for each
edge ``z -> y``, every ``x`` in the intersection of ``N+(z)`` and
``N+(y)`` satisfies
``x < y < z`` (out-neighbors have smaller labels), and each triangle
has exactly one such ``(z, y)`` pair -- so the count is
orientation-exact and method-independent.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import itertools
import logging as _stdlog
import os
import re
import shutil
import stat
import subprocess
import sys
import tempfile
import threading
import time
import weakref

import numpy as np

from repro.obs import memory as _memory

__all__ = [
    "adopt_keys",
    "available",
    "collect_triangles",
    "configuration_wire",
    "count_triangles",
    "last_stats",
    "oriented_csr",
    "oriented_sums",
    "resolve_threads",
    "residual_out_degrees",
    "residual_wire",
    "self_test",
    "smallest_last",
    "status",
    "stream_triangles",
]

#: Vertex blocks the threaded count pass splits a graph into. A fixed
#: block count (independent of the thread count) is what makes the
#: merged per-block counters bit-identical at any pool geometry.
DEFAULT_BLOCKS = 64

_C_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <pthread.h>

/* One prepared count pass over an edge-balanced block decomposition of
 * the oriented CSR. indices are uint32 (the engine gates graphs to
 * n < 2^32) and sorted ascending within each row; halving the operand
 * width nearly halves the memory-bound scan cost. block_starts has
 * nblocks+1 vertex boundaries; block_counts/block_ops receive
 * per-block triangle and elementary-op totals. */
typedef struct {
    const int64_t *indptr;
    const uint32_t *indices;
    const int64_t *block_starts;
    int64_t nblocks;
    int64_t *block_counts;
    int64_t *block_ops;
    int nthreads;
} plan_t;

typedef struct {
    const plan_t *plan;
    int tid;
    uint8_t *mark; /* n-byte scratch, zero between rows */
} worker_t;

/* The one loop that writes triangles: a resumable emitter. From
 * cursor = {z, iy} it takes the directed edges z -> y (z ascending up
 * to n, iy ascending within the row) and writes, per edge, every x of
 * N+(z)[< y] that is also in N+(y), ascending: N+(z) is marked in the
 * byte array mark and each x of N+(y) is probed with one load. So
 * every triangle appears once, as (x, y, z) with x < y < z, in an
 * order that depends on the graph alone. It stops early, before an
 * edge whose worst case
 * min(iy - s, |N+(y)|) might not fit the cap triangles left in buf,
 * saves the cursor (z == n once done) and returns the triangles
 * written; ops accumulates one per probe into *ops_out. Any cap >= the
 * maximum out-degree fits every edge into an empty buffer. mark is zero
 * once row n - 1 is done; a pause leaves row z marked, which the
 * resumed call marks again. */
int64_t repro_forward_stream(const int64_t *indptr,
                             const uint32_t *indices, int64_t n,
                             int64_t *cursor, uint32_t *buf, int64_t cap,
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
        for (int64_t i = s; i < e; i++)
            mark[indices[i]] = 0;
        iy = -1; /* next z starts at its own row head */
    }
pause:
    cursor[0] = z;
    cursor[1] = iy;
    *ops_out += ops;
    return written;
}

/* The count pass over one vertex block: the emitter's probes without the
 * writes, branchless (the mark bytes are summed). */
static void count_block(const plan_t *p, int64_t b, uint8_t *mark)
{
    const int64_t *indptr = p->indptr;
    const uint32_t *indices = p->indices;
    int64_t count = 0;
    int64_t ops = 0;

    for (int64_t z = p->block_starts[b]; z < p->block_starts[b + 1]; z++) {
        const int64_t s = indptr[z];
        const int64_t e = indptr[z + 1];
        for (int64_t i = s; i < e; i++)
            mark[indices[i]] = 1;
        for (int64_t iy = s; iy < e; iy++) {
            const uint32_t y = indices[iy];
            const int64_t je = indptr[y + 1];
            ops += je - indptr[y];
            for (int64_t j = indptr[y]; j < je; j++)
                count += mark[indices[j]];
        }
        for (int64_t i = s; i < e; i++)
            mark[indices[i]] = 0;
    }
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
        count_block(p, b, w->mark);
    return 0;
}

/* The count pass over every block, on nthreads threads with one n-byte
 * mark each. Returns 0, or -1 when scratch allocation or a thread start
 * fails. */
int repro_forward(const int64_t *indptr, const uint32_t *indices,
                  const int64_t *block_starts, int64_t nblocks,
                  int64_t n, int nthreads, int64_t *block_counts,
                  int64_t *block_ops)
{
    plan_t p = {indptr, indices, block_starts, nblocks, block_counts,
                block_ops, nthreads};
    if (nthreads < 1)
        nthreads = 1;
    if (nthreads > nblocks)
        nthreads = (int)(nblocks > 0 ? nblocks : 1);
    p.nthreads = nthreads;

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
        ws[t].mark = (uint8_t *)calloc(n > 0 ? (size_t)n : 1, 1);
        if (!ws[t].mark)
            rc = -1;
    }
    int started = 0;
    if (rc == 0 && nthreads == 1) {
        worker(&ws[0]);
    } else if (rc == 0) {
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

/* numpy's bitgen_t (numpy/random/bitgen.h): the C face of every
 * numpy.random bit generator, reached from Python as
 * rng.bit_generator.ctypes.bit_generator. next_double is the call that
 * rng.random() makes, one per uniform on [0, 1). */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

/* What a draw landing on one of a node's stubs finds: a free node is a
 * partner; a dead node (wired already, or being wired) never is again;
 * a node the current node has picked is excluded until it is done. */
enum { WIRE_FREE = 0, WIRE_DEAD = 1, WIRE_PICKED = 2 };

/* One vertex of the wiring loop, in one 16-byte record: a placed edge
 * reads and writes its partner's line once, besides its state byte.
 * res: stubs left; pick: the partner's index in the current run while
 * it is picked; deg: the degree on entry; out: the edges counted at the
 * vertex as their tail (pricing sink). */
typedef struct {
    uint32_t res, pick, deg, out;
} wire_node_t;

/* Residual-degree wiring: the main loop of
 * repro.graphs.generators.residual_degree_model (section 7.2), step for
 * step the same as its Python reference _wire_python. Nodes are taken
 * in the caller's hubs-first order; each open stub of node i picks a
 * partner with probability proportional to its residual degree among
 * every node except i and i's neighbours.
 *
 * The open stubs sit in one pool of node ids, one entry per stub, and
 * a draw is uniform over the first `size` entries: p = floor(u * size),
 * clamped to size - 1. When a node's turn comes its neighbours are the
 * nodes wired before it (every edge is made by the node being wired),
 * so the excluded set is the dead nodes plus the partners picked in the
 * current run. The entry at p is swap-removed (the last drawable entry
 * fills its slot) whatever it holds: a free node's stub is placed; a
 * dead node's is dropped for good; a picked node's is set aside and
 * rejoins the pool when the run ends. An accepted draw is thus uniform
 * over the stubs of the allowed nodes -- the law of the wiring process
 * -- and every draw shrinks the range, so a run ends for any sequence
 * of uniforms. A node's own entries turn dead when its run starts.
 *
 * When dead and picked entries exceed half the range, one pass keeps
 * the free entries in order at the front, drops the dead ones and sets
 * the picked ones aside, so a draw is accepted with probability at
 * least 1/2. The run is stuck when no allowed stub is left; the caller
 * repairs the leftovers by swaps.
 *
 * Each placed edge goes to one of two sinks. The key sink (keys not
 * NULL) writes lo * n + hi, in placement order; keys needs room for
 * sum(degrees) / 2. The pricing sink (keys NULL) writes no edge: under
 * a degree-monotone label map, an edge between different degrees has
 * its tail (its larger label) at the smaller degree when descending is
 * non-zero and at the larger one otherwise, so the loop counts it at
 * once in out[tail]; an edge between equal degrees, whose orientation
 * the tie-break decides, is appended as the pair (i, j) to *ties, a
 * malloc'd buffer the caller frees (NULL when there is none), and
 * *nties receives their number. out receives the out-degrees counted.
 *
 * residual holds the degrees on entry and the unplaced stubs on exit.
 * Uniforms come from rng, one per draw; both sinks draw alike. Returns
 * the number of edges placed, -1 when an allocation fails, and -3,
 * before allocating anything, if n >= 2^32 or a degree does not fit
 * 32 bits. */
int64_t repro_residual_wire(int64_t n, const int64_t *order,
                            int64_t *residual, bitgen_t *rng,
                            int64_t *keys, int descending, int64_t *out,
                            uint32_t **ties, int64_t *nties)
{
    if (!keys) {
        *ties = NULL;
        *nties = 0;
    }
    if (n < 0 || n > (int64_t)UINT32_MAX)
        return -3;
    int64_t stubs = 0;
    for (int64_t v = 0; v < n; v++) {
        if (residual[v] < 0 || residual[v] > (int64_t)UINT32_MAX)
            return -3;
        stubs += residual[v];
    }
    const size_t words = (size_t)n + 1;
    uint32_t *pool = (uint32_t *)malloc(((size_t)stubs + 1)
                                        * sizeof(uint32_t));
    wire_node_t *node = (wire_node_t *)malloc(words * sizeof(wire_node_t));
    /* picked[t]: the t-th partner of the run; aside[t]: its entries set
     * aside */
    uint32_t *picked = (uint32_t *)malloc(words * sizeof(uint32_t));
    uint32_t *aside = (uint32_t *)calloc(words, sizeof(uint32_t));
    uint8_t *state = (uint8_t *)calloc(words, 1);
    uint32_t *tie = NULL;
    int64_t ntie = 0, tiecap = 0;
    int64_t placed = -1;
    if (!pool || !node || !picked || !aside || !state)
        goto done;

    int64_t size = 0;
    for (int64_t v = 0; v < n; v++) {
        const uint32_t d = (uint32_t)residual[v];
        node[v] = (wire_node_t){d, 0, d, 0};
        for (uint32_t t = 0; t < d; t++)
            pool[size++] = (uint32_t)v;
    }
    int64_t dead = 0; /* dead entries in the range */
    placed = 0;
    for (int64_t k = 0; k < n; k++) {
        const uint32_t i = (uint32_t)order[k];
        if (state[i] != WIRE_FREE)
            continue;
        state[i] = WIRE_DEAD;
        uint32_t ri = node[i].res;
        const uint32_t di = node[i].deg;
        dead += ri;
        /* picked entries in the range; picks whose entries are all
         * set aside */
        int64_t excluded = 0;
        uint32_t npick = 0, settled = 0;
        while (ri > 0) {
            if (2 * (dead + excluded) > size) {
                int64_t kept = 0;
                for (int64_t s = 0; s < size; s++) {
                    const uint32_t v = pool[s];
                    pool[kept] = v; /* branch-free: kept only if free */
                    kept += state[v] == WIRE_FREE;
                }
                for (; settled < npick; settled++)
                    aside[settled] = node[picked[settled]].res;
                size = kept;
                dead = 0;
                excluded = 0;
            }
            if (size == 0)
                break; /* stuck: the caller repairs by swaps */
            const double u = rng->next_double(rng->state);
            int64_t p = (int64_t)(u * (double)size);
            if (p >= size)
                p = size - 1;
            const uint32_t j = pool[p];
            pool[p] = pool[--size];
            const uint8_t sj = state[j];
            if (sj == WIRE_DEAD) {
                dead--;
                continue;
            }
            wire_node_t *nj = &node[j];
            if (sj == WIRE_PICKED) {
                aside[nj->pick]++;
                excluded--;
                continue;
            }
            if (keys) {
                keys[placed] = i < j ? (int64_t)i * n + j
                                     : (int64_t)j * n + i;
            } else if (nj->deg != di) {
                if ((nj->deg < di) == (descending != 0))
                    nj->out++;
                else
                    node[i].out++;
            } else {
                if (ntie == tiecap) {
                    tiecap = 2 * tiecap + 64;
                    uint32_t *grown = (uint32_t *)realloc(
                        tie, (size_t)tiecap * 2 * sizeof(uint32_t));
                    if (!grown) {
                        placed = -1;
                        goto done;
                    }
                    tie = grown;
                }
                tie[2 * ntie] = i;
                tie[2 * ntie + 1] = j;
                ntie++;
            }
            placed++;
            ri--;
            excluded += --nj->res;
            state[j] = WIRE_PICKED;
            nj->pick = npick;
            picked[npick++] = j;
        }
        node[i].res = ri;
        /* the picks rejoin the pool with the entries set aside */
        for (uint32_t t = 0; t < npick; t++) {
            const uint32_t j = picked[t];
            for (; aside[t] > 0; aside[t]--)
                pool[size++] = j;
            state[j] = WIRE_FREE;
        }
    }
    for (int64_t v = 0; v < n; v++) {
        residual[v] = node[v].res;
        if (!keys)
            out[v] = node[v].out;
    }
    if (!keys) {
        *ties = tie;
        *nties = ntie;
        tie = NULL;
    }
done:
    free(pool);
    free(node);
    free(picked);
    free(aside);
    free(state);
    free(tie);
    return placed;
}

/* Frees a buffer the library allocated for its caller (the ties of the
 * wiring loop's pricing sink). */
void repro_free(void *p)
{
    free(p);
}

/* numpy's random_bounded_uint64 (numpy/random/src/distributions) with
 * off = 0 and Lemire's multiply-shift rejection: a uniform integer in
 * [0, rng] for rng >= 1, from next_uint32 while rng fits 32 bits
 * (rng == 2^32 - 1 takes the word as it is) and from next_uint64 after.
 * Generator.integers(0, high, dtype=np.uint64) takes one per element of
 * an array of bounds high = rng + 1. */
static inline uint64_t bounded_lemire(bitgen_t *rng_state, uint64_t rng)
{
    if (rng <= 0xffffffffULL) {
        if (rng == 0xffffffffULL)
            return rng_state->next_uint32(rng_state->state);
        const uint32_t excl = (uint32_t)rng + 1;
        uint64_t m = (uint64_t)rng_state->next_uint32(rng_state->state)
                     * excl;
        uint32_t leftover = (uint32_t)m;
        if (leftover < excl) {
            /* 2^32 mod excl; excl is an upper bound, so most draws skip
             * the division */
            const uint32_t threshold = (UINT32_MAX - (uint32_t)rng) % excl;
            while (leftover < threshold) {
                m = (uint64_t)rng_state->next_uint32(rng_state->state)
                    * excl;
                leftover = (uint32_t)m;
            }
        }
        return m >> 32;
    }
    const uint64_t excl = rng + 1;
    __uint128_t m = (__uint128_t)rng_state->next_uint64(rng_state->state)
                    * excl;
    uint64_t leftover = (uint64_t)m;
    if (leftover < excl) {
        const uint64_t threshold = (UINT64_MAX - rng) % excl;
        while (leftover < threshold) {
            m = (__uint128_t)rng_state->next_uint64(rng_state->state)
                * excl;
            leftover = (uint64_t)m;
        }
    }
    return (uint64_t)(m >> 64);
}

/* Swap draws taken per chunk of the shuffle (each target is prefetched
 * as it is drawn, so the chunk's swaps find it in cache), and how many
 * pairs ahead the counting scatters prefetch. */
enum { SHUFFLE_CHUNK = 256, SCATTER_AHEAD = 16 };

/* The configuration model (section 7.2): stub matching, then erasing
 * loops and repeated edges. Bit-identical to the NumPy reference
 * repro.graphs.generators._configuration_python on the same stream.
 *
 * The stubs (degrees[v] copies of v, in node order) are shuffled by
 * Fisher-Yates: for i = S - 1 down to 1, entry i swaps with entry
 * bounded_lemire(i), the draws of
 * rng.integers(0, np.arange(S, 1, -1), dtype=np.uint64). The draws do
 * not depend on the entries, so a chunk of them is taken first, each
 * target prefetched, and then the chunk's swaps run in order.
 * Consecutive entries pair up; a pair with lo == hi is a loop and is
 * dropped. Two stable counting scatters, by hi and then by lo,
 * lay the rest out in (lo, hi) order without a sort: the first writes
 * each pair's lo into its hi bucket, the second walks the hi buckets
 * in ascending order and writes lo * n + hi into lo's bucket of keys.
 * Repeated edges are then adjacent and are dropped.
 *
 * keys needs room for (sum(degrees) + 1) / 2 entries and receives the
 * sorted unique keys. The uint32 stubs are shuffled and paired inside
 * it (S stubs take the bytes of S / 2 keys), and they are dead once the
 * first scatter has run, before the first key is written over them.
 * Returns the number of keys, -1 when scratch allocation fails (or the
 * stubs could not fit in memory), and -3, before drawing or allocating
 * anything, if n >= 2^32 or a degree is negative or does not fit 32
 * bits. */
int64_t repro_configuration_wire(int64_t n, const int64_t *degrees,
                                 bitgen_t *rng, int64_t *keys)
{
    if (n < 0 || n > (int64_t)UINT32_MAX)
        return -3;
    uint64_t stubs = 0;
    for (int64_t v = 0; v < n; v++) {
        if (degrees[v] < 0 || degrees[v] > (int64_t)UINT32_MAX)
            return -3;
        stubs += (uint64_t)degrees[v];
    }
    if (stubs >= SIZE_MAX / sizeof(int64_t))
        return -1; /* more stubs than memory can hold */
    const uint64_t pairs = stubs / 2;
    uint32_t *stub = (uint32_t *)keys;
    uint32_t *by_hi = NULL;
    /* at_lo[v] / at_hi[v]: the next slot of v's bucket by lo / by hi */
    int64_t *at_lo = (int64_t *)calloc((size_t)n + 1, sizeof(int64_t));
    int64_t *at_hi = (int64_t *)calloc((size_t)n + 1, sizeof(int64_t));
    int64_t unique = -1;
    if (!at_lo || !at_hi)
        goto done;

    uint64_t s = 0;
    for (int64_t v = 0; v < n; v++)
        for (int64_t t = 0; t < degrees[v]; t++)
            stub[s++] = (uint32_t)v;
    uint64_t draw[SHUFFLE_CHUNK];
    for (uint64_t top = stubs; top > 1;) {
        /* this chunk swaps entries top - 1 down to top - count */
        const uint64_t count = top - 1 < SHUFFLE_CHUNK ? top - 1
                                                       : SHUFFLE_CHUNK;
        for (uint64_t c = 0; c < count; c++) {
            draw[c] = bounded_lemire(rng, top - 1 - c);
            __builtin_prefetch(stub + draw[c], 1);
        }
        for (uint64_t c = 0; c < count; c++) {
            const uint64_t i = top - 1 - c, j = draw[c];
            const uint32_t held = stub[j];
            stub[j] = stub[i];
            stub[i] = held;
        }
        top -= count;
    }
    /* pair up and drop loops, keeping (lo, hi) in place, and count the
     * survivors per hi; a paired stub not in a loop is a lo or a hi, so
     * each node's count per lo is its degree less its loop stubs, its
     * count per hi and the last stub of an odd count, left unpaired */
    uint64_t kept = 0;
    for (int64_t v = 0; v < n; v++)
        at_lo[v] = degrees[v];
    if (stubs % 2)
        at_lo[stub[stubs - 1]]--;
    for (uint64_t p = 0; p < pairs; p++) {
        const uint32_t a = stub[2 * p], b = stub[2 * p + 1];
        const uint32_t lo = a < b ? a : b, hi = a < b ? b : a;
        if (p + SCATTER_AHEAD < pairs) {
            const uint32_t *q = stub + 2 * (p + SCATTER_AHEAD);
            __builtin_prefetch(at_hi + (q[0] < q[1] ? q[1] : q[0]), 1);
        }
        if (lo == hi) {
            at_lo[lo] -= 2;
            continue;
        }
        stub[2 * kept] = lo;
        stub[2 * kept + 1] = hi;
        kept++;
        at_hi[hi]++;
    }
    int64_t lo_start = 0, hi_start = 0;
    for (int64_t v = 0; v < n; v++) {
        const int64_t lo_count = at_lo[v] - at_hi[v], hi_count = at_hi[v];
        at_lo[v] = lo_start;
        at_hi[v] = hi_start;
        lo_start += lo_count;
        hi_start += hi_count;
    }
    by_hi = (uint32_t *)malloc((kept + 1) * sizeof(uint32_t));
    if (!by_hi)
        goto done;
    for (uint64_t p = 0; p < kept; p++) {
        /* the bucket cursor two strides ahead, its slot one ahead */
        if (p + 2 * SCATTER_AHEAD < kept)
            __builtin_prefetch(at_hi + stub[2 * (p + 2 * SCATTER_AHEAD) + 1],
                               1);
        if (p + SCATTER_AHEAD < kept)
            __builtin_prefetch(by_hi + at_hi[stub[2 * (p + SCATTER_AHEAD)
                                                  + 1]], 1);
        by_hi[at_hi[stub[2 * p + 1]]++] = stub[2 * p];
    }
    /* the stubs are dead: no access to them as uint32 may move past
     * this point, where keys start to be written over them as int64 */
    __asm__ volatile("" ::: "memory");
    /* at_hi[h] is now the end of h's bucket */
    for (int64_t h = 0, t = 0; h < n; h++)
        for (; t < at_hi[h]; t++) {
            if (t + 2 * SCATTER_AHEAD < (int64_t)kept)
                __builtin_prefetch(at_lo + by_hi[t + 2 * SCATTER_AHEAD], 1);
            if (t + SCATTER_AHEAD < (int64_t)kept)
                __builtin_prefetch(keys + at_lo[by_hi[t + SCATTER_AHEAD]], 1);
            const uint32_t lo = by_hi[t];
            keys[at_lo[lo]++] = (int64_t)lo * n + h;
        }
    unique = 0;
    for (uint64_t p = 0; p < kept; p++)
        if (unique == 0 || keys[p] != keys[unique - 1])
            keys[unique++] = keys[p];
done:
    free(by_hi);
    free(at_lo);
    free(at_hi);
    return unique;
}

/* Per-vertex state of repro_smallest_last in one 8-byte record, so a
 * neighbour visit reads one cache line for all of it: the current
 * degree, with SL_REMOVED set once the vertex is deleted (degrees stay
 * below n <= INT32_MAX), and the vertex's slot in its bucket. */
typedef struct {
    uint32_t degree, position;
} sl_vertex;

#define SL_REMOVED 0x80000000u

/* Row entries ahead whose records the peel prefetches. */
enum { SL_AHEAD = 8 };

/* Matula-Beck smallest-last order from a graph's strictly increasing
 * edge keys lo * n + hi and its degrees: the bucket queue of
 * repro.orientations.degenerate._smallest_last_python, op for op.
 *
 * A walk over the rows of the keys checks every key and lays the
 * neighbour rows out as uint32 scratch in Graph.csr()'s order, with no
 * division: the keys of row v are the run in [v * n, (v + 1) * n), so
 * hi is the key minus the row base v * n. Row v is its lower part (the
 * lo of every key whose hi is v, ascending, filled by earlier runs) and
 * then its upper part (the hi of every key whose lo is v, ascending,
 * the run itself). The row offsets are the prefix sums of degrees;
 * every write is bounded by their total and each row's length is
 * checked when its run of keys ends, so degrees that are not the keys'
 * degrees are refused, never overrun.
 *
 * The peel then mirrors the Python loop: each bucket is a stack (push at
 * the end, pop from the end), a vertex leaves its bucket by
 * swap-with-last through its record's position, the scan for the lowest
 * non-empty bucket restarts at max(current - 1, 0), and the neighbours
 * of a deleted vertex are visited in row order -- so order[] and the
 * degeneracy are bit-identical to the Python loop, ties included.
 * out_degree[v] receives v's degree when it is deleted: its neighbours
 * still present are deleted later and get smaller labels, so this is
 * v's out-degree X under the degenerate labels. A vertex in bucket d has current degree d <= its initial degree, so
 * bucket d never holds more than #{v : degrees[v] >= d} vertices; one
 * slot array of n + 2m entries, cut at those suffix counts, holds every
 * bucket without reallocation. All scratch is freed before return.
 *
 * Returns the degeneracy; -1 when scratch allocation fails; -2 on a key
 * that does not increase strictly, is negative or >= n * n, or has
 * lo >= hi (or on n < 0); -3, before reading any array, on an n above
 * INT32_MAX, which the records cannot hold; -4 when degrees are not the
 * keys' degrees. */
int64_t repro_smallest_last(int64_t n, int64_t m, const int64_t *keys,
                            const int64_t *degrees, int64_t *order,
                            int64_t *out_degree)
{
    if (n < 0 || m < 0)
        return -2;
    if (n > INT32_MAX)
        return -3;
    if (m > 0 && (keys[0] < 0 || keys[m - 1] >= n * n))
        return -2;
    /* the degrees size the rows and the buckets: each below n, summing
     * to 2m (at most n (n - 1), so the sum cannot overflow) */
    int64_t max_deg = 0, total = 0;
    for (int64_t v = 0; v < n; v++) {
        if (degrees[v] < 0 || degrees[v] >= n)
            return -4;
        total += degrees[v];
        if (degrees[v] > max_deg)
            max_deg = degrees[v];
    }
    if (total % 2 || total / 2 != m)
        return -4;
    int64_t *row = (int64_t *)malloc(((size_t)n + 1) * sizeof(int64_t));
    int64_t *fill = (int64_t *)malloc(((size_t)n + 1) * sizeof(int64_t));
    /* the rows and then the bucket slots (n + 2m of them, see below)
     * in one block: one large allocation, which the allocator hands
     * back whole to the next call instead of faulting in fresh pages */
    uint32_t *nbr = (uint32_t *)malloc((2 * (size_t)total + (size_t)n + 2)
                                       * sizeof(uint32_t));
    sl_vertex *vx = (sl_vertex *)malloc(((size_t)n + 1) * sizeof(sl_vertex));
    int64_t *start =
        (int64_t *)calloc((size_t)max_deg + 2, sizeof(int64_t));
    int64_t *size = (int64_t *)calloc((size_t)max_deg + 1, sizeof(int64_t));
    uint32_t *near = (uint32_t *)malloc(((size_t)max_deg + 1)
                                        * sizeof(uint32_t));
    int64_t degeneracy = -1;
    if (!row || !fill || !nbr || !vx || !start || !size || !near)
        goto done;

    row[0] = 0;
    for (int64_t v = 0; v < n; v++) {
        row[v + 1] = row[v] + degrees[v];
        fill[v] = row[v];
    }
    int64_t e = 0, prev = -1;
    for (int64_t v = 0; v < n; v++) {
        /* base + n <= n * n: the bounds cannot overflow, nor can
         * keys[e] - base once keys[e] > base + v */
        const int64_t base = v * n, end = base + n;
        /* every key whose hi is v came before this row, so v's lower
         * part is complete and its upper part starts where it ends;
         * a write is checked against the total only, and the row's
         * length once the row is done */
        int64_t upper = fill[v];
        /* every key below base was consumed by an earlier row */
        for (; e < m && keys[e] < end; prev = keys[e++]) {
            if (keys[e] <= prev || keys[e] <= base + v) {
                degeneracy = -2;
                goto done;
            }
            const int64_t hi = keys[e] - base;
            if (upper >= total || fill[hi] >= total) {
                degeneracy = -4;
                goto done;
            }
            nbr[upper++] = (uint32_t)hi;
            nbr[fill[hi]++] = (uint32_t)v;
        }
        if (upper != row[v + 1]) {
            degeneracy = -4;
            goto done;
        }
    }
    if (e < m) {
        degeneracy = -2; /* keys at or beyond n * n */
        goto done;
    }
    free(fill);
    fill = NULL;

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
    uint32_t *const slots = nbr + total + 1;
    for (int64_t v = 0; v < n; v++) {
        const int64_t d = degrees[v];
        vx[v].degree = (uint32_t)d;
        vx[v].position = (uint32_t)size[d];
        slots[start[d] + size[d]++] = (uint32_t)v;
    }

    degeneracy = 0;
    int64_t current = 0;
    for (int64_t step = 0; step < n; step++) {
        /* n - step vertices remain, so some bucket up to max_deg holds
         * one */
        current = current > 0 ? current - 1 : 0;
        while (size[current] == 0)
            current++;
        const uint32_t v = slots[start[current] + --size[current]];
        vx[v].degree |= SL_REMOVED;
        order[step] = v;
        out_degree[v] = current;
        if (current > degeneracy)
            degeneracy = current;
        /* the present neighbours of v in row order, gathered without
         * a branch (whether one is gone is data-random), then each
         * moves from its bucket d to bucket d - 1 (d >= 1) */
        int64_t live = 0;
        const int64_t stop = row[v + 1];
        for (int64_t i = row[v]; i < stop; i++) {
            if (i + SL_AHEAD < stop)
                __builtin_prefetch(vx + nbr[i + SL_AHEAD]);
            const uint32_t u = nbr[i];
            near[live] = u;
            live += !(vx[u].degree & SL_REMOVED);
        }
        for (int64_t i = 0; i < live; i++) {
            const uint32_t u = near[i], d = vx[u].degree;
            uint32_t *bucket = slots + start[d];
            const uint32_t pos = vx[u].position;
            const uint32_t last = bucket[--size[d]];
            bucket[pos] = last;
            vx[last].position = pos;
            vx[u].degree = d - 1;
            vx[u].position = (uint32_t)size[d - 1];
            slots[start[d - 1] + size[d - 1]++] = u;
        }
    }
done:
    free(row);
    free(fill);
    free(nbr);
    free(vx);
    free(start);
    free(size);
    free(near);
    return degeneracy;
}

/* Largest n whose edge keys lo * n + hi, and the bound n * n, fit in
 * int64: isqrt(2^63 - 1), repro.graphs.graph.MAX_KEYED_N. */
#define MAX_KEYED_N 3037000499LL

/* What repro_adopt_keys finds wrong with a key array, in the order
 * repro.graphs.graph.Graph._adopt reports faults: any decrease or
 * repeat anywhere first, then a key outside [0, n * n), then a key
 * with lo >= hi. */
enum { KEYS_OK = 0, KEYS_UNSORTED = 1, KEYS_RANGE = 2, KEYS_LOOP = 3 };

/* The check and the degree count of Graph._adopt, in one sequential
 * pass over the edge keys lo * n + hi with no division: the row base
 * lo * n is walked up by n as the keys rise past it, and hi is the key
 * minus that base.
 * degrees (n entries) receives each vertex's degree when the keys are
 * well formed. Returns KEYS_OK or the fault Graph._adopt reports, and
 * -2 before reading anything if n > MAX_KEYED_N. */
int64_t repro_adopt_keys(int64_t n, int64_t m, const int64_t *keys,
                         int64_t *degrees)
{
    if (n < 0 || n > MAX_KEYED_N)
        return -2;
    for (int64_t v = 0; v < n; v++)
        degrees[v] = 0;
    if (m == 0)
        return KEYS_OK;
    const int64_t last = keys[m - 1];
    if (keys[0] < 0 || last >= n * n) {
        for (int64_t e = 1; e < m; e++)
            if (keys[e] <= keys[e - 1])
                return KEYS_UNSORTED;
        return KEYS_RANGE;
    }
    int64_t status = KEYS_OK, prev = -1, lo = 0, base = 0;
    for (int64_t e = 0; e < m; e++) {
        const int64_t key = keys[e];
        /* a key above the last one must be followed by a decrease;
         * otherwise base <= key < n * n, so lo stays below n */
        if (key <= prev || key > last)
            return KEYS_UNSORTED;
        prev = key;
        while (key - base >= n) {
            lo++;
            base += n;
        }
        const int64_t hi = key - base;
        if (hi <= lo) {
            status = KEYS_LOOP;
            continue;
        }
        degrees[lo]++;
        degrees[hi]++;
    }
    return status;
}

/* The out- and in-CSR of repro.graphs.digraph.OrientedGraph, built from
 * a graph's strictly increasing edge keys lo * n + hi and a label map,
 * with no sort. Each edge points from its larger-labelled endpoint (the
 * tail) to its smaller (the head); out row s holds the heads of the
 * edges leaving s and in row d the tails of the edges entering d, both
 * ascending.
 *
 * A walk over the rows of the keys (no division) checks every key and
 * counts each vertex's degree and out-degree. The counters sit next to
 * the vertex's label in one 16-byte record, so an edge touches one
 * random cache line, and the row vertex's share is kept in registers.
 * Prefix sums over the per-label counts give the row offsets. Three
 * counting scatters then fill the rows. A second walk drops every tail
 * into its head's in row, in key order. Walking the heads in ascending
 * order appends each head to the out rows of its tails, so every out
 * row comes out ascending; walking the tails in ascending order over
 * those out rows refills the in rows ascending the same way. The output
 * is the sorting reference's, element for element.
 *
 * Returns 0; -1 when scratch allocation fails; -2 on a key that does
 * not increase strictly, is negative or >= n * n, or has lo >= hi (or
 * on n > MAX_KEYED_N); -3 on a label outside [0, n). The counts stay
 * consistent whatever labels in range say, so nothing is written
 * outside the n + 1 offsets and the m indices of either CSR. */
typedef struct {
    int64_t degree;
    uint32_t label, out;
} oriented_vertex;

int64_t repro_oriented_csr(int64_t n, int64_t m, const int64_t *keys,
                           const int64_t *labels,
                           int64_t *out_indptr, uint32_t *out_indices,
                           int64_t *in_indptr, uint32_t *in_indices)
{
    if (n < 0 || n > MAX_KEYED_N)
        return -2;
    for (int64_t v = 0; v < n; v++)
        if (labels[v] < 0 || labels[v] >= n)
            return -3;
    oriented_vertex *vx = (oriented_vertex *)malloc(
        ((size_t)n + 1) * sizeof(oriented_vertex));
    int64_t *fill = (int64_t *)malloc(((size_t)n + 1) * sizeof(int64_t));
    int64_t status = 0, e = 0, prev = -1;
    if (!vx || !fill) {
        status = -1;
        goto done;
    }
    for (int64_t v = 0; v < n; v++) {
        vx[v].degree = 0;
        vx[v].label = (uint32_t)labels[v];
        vx[v].out = 0;
    }
    for (int64_t u = 0; u < n; u++) {
        /* base + n <= n * n: the bounds cannot overflow, nor can
         * keys[e] - base once keys[e] > base + u */
        const int64_t base = u * n, end = base + n, start = e;
        const uint32_t lu = vx[u].label;
        uint32_t out_u = 0;
        /* every key below base was consumed by an earlier row */
        for (; e < m && keys[e] < end; prev = keys[e++]) {
            if (keys[e] <= prev || keys[e] <= base + u) {
                status = -2;
                goto done;
            }
            oriented_vertex *h = vx + (keys[e] - base);
            const uint32_t h_is_tail = h->label > lu;
            h->degree++;
            h->out += h_is_tail;
            out_u += 1 - h_is_tail;
        }
        vx[u].degree += e - start;
        vx[u].out += out_u;
    }
    if (e < m) {
        status = -2; /* keys at or beyond n * n */
        goto done;
    }
    for (int64_t v = 0; v <= n; v++)
        out_indptr[v] = in_indptr[v] = 0;
    for (int64_t v = 0; v < n; v++) {
        out_indptr[vx[v].label + 1] += vx[v].out;
        in_indptr[vx[v].label + 1] += vx[v].degree - vx[v].out;
    }
    for (int64_t v = 0; v < n; v++) {
        out_indptr[v + 1] += out_indptr[v];
        in_indptr[v + 1] += in_indptr[v];
    }
    for (int64_t v = 0; v < n; v++)
        fill[v] = in_indptr[v];
    e = 0;
    for (int64_t u = 0; u < n; u++) {
        const int64_t base = u * n, end = base + n;
        const uint32_t lu = vx[u].label;
        for (; e < m && keys[e] < end; e++) {
            const uint32_t lh = vx[keys[e] - base].label;
            const uint32_t tail = lh > lu ? lh : lu;
            in_indices[fill[lu ^ lh ^ tail]++] = tail;
        }
    }
    for (int64_t v = 0; v < n; v++)
        fill[v] = out_indptr[v];
    for (int64_t d = 0; d < n; d++)
        for (int64_t i = in_indptr[d]; i < in_indptr[d + 1]; i++)
            out_indices[fill[in_indices[i]]++] = (uint32_t)d;
    for (int64_t v = 0; v < n; v++)
        fill[v] = in_indptr[v];
    for (int64_t s = 0; s < n; s++)
        for (int64_t i = out_indptr[s]; i < out_indptr[s + 1]; i++)
            in_indices[fill[out_indices[i]]++] = (uint32_t)s;
done:
    free(vx);
    free(fill);
    return status;
}

/* The planner's exact pricing: the three integer totals of eqs. (7)-(9)
 * under each of k label maps. keys are the graph's strictly increasing
 * edge keys lo * n + hi; labels holds k rows of n labels. Each edge
 * points from its larger-labelled endpoint, so that endpoint's
 * out-degree X grows by one, and Y = degrees - X. sums[3j..] receives
 * sum X(X-1)/2, sum XY and sum Y(Y-1)/2 under row j -- the T1/T2/T3
 * totals of repro.core.costs.component_ops.
 *
 * One walk over the rows of the keys (no division) checks every key and
 * prices all k maps at once. The labels are copied vertex-major, so a
 * vertex's k labels, and its k out-degrees, share a cache line or two:
 * an edge touches its two endpoints' lines once, not once per map.
 * Label comparisons are data-random, so the tail is counted without a
 * branch: v gains one exactly when lab[v] >= lab[u], and u the rest.
 *
 * Returns 0, -1 when scratch allocation fails, and -2 on a key that
 * does not increase strictly, is negative or >= n * n, or has
 * lo >= hi (or on n > MAX_KEYED_N). */
int64_t repro_oriented_sums(int64_t n, int64_t m, const int64_t *keys,
                            const int64_t *degrees, int64_t k,
                            const int64_t *labels, int64_t *sums)
{
    if (n < 0 || n > MAX_KEYED_N || k < 0)
        return -2;
    const size_t cells = (size_t)n * (size_t)k + 1;
    int64_t *lab = (int64_t *)malloc(cells * sizeof(int64_t));
    int64_t *out = (int64_t *)calloc(cells, sizeof(int64_t));
    int64_t status = 0, e = 0, prev = -1;
    if (!lab || !out) {
        status = -1;
        goto done;
    }
    for (int64_t j = 0; j < k; j++)
        for (int64_t v = 0; v < n; v++)
            lab[v * k + j] = labels[j * n + v];
    for (int64_t u = 0; u < n; u++) {
        /* as in repro_oriented_csr: no overflow before the check */
        const int64_t base = u * n, end = base + n;
        const int64_t *lu = lab + u * k;
        int64_t *ou = out + u * k;
        /* every key below base was consumed by an earlier row */
        for (; e < m && keys[e] < end; prev = keys[e++]) {
            if (keys[e] <= prev || keys[e] <= base + u) {
                status = -2;
                goto done;
            }
            const int64_t v = keys[e] - base;
            const int64_t *lv = lab + v * k;
            int64_t *ov = out + v * k;
            for (int64_t j = 0; j < k; j++) {
                const int64_t up = lv[j] >= lu[j];
                ov[j] += up;
                ou[j] += 1 - up;
            }
        }
    }
    if (e < m) {
        status = -2; /* keys at or beyond n * n */
        goto done;
    }
    for (int64_t j = 0; j < k; j++) {
        int64_t t1 = 0, t2 = 0, t3 = 0;
        for (int64_t v = 0; v < n; v++) {
            const int64_t x = out[v * k + j];
            const int64_t y = degrees[v] - x;
            t1 += x * (x - 1) / 2;
            t2 += x * y;
            t3 += y * (y - 1) / 2;
        }
        sums[3 * j] = t1;
        sums[3 * j + 1] = t2;
        sums[3 * j + 2] = t3;
    }
done:
    free(lab);
    free(out);
    return status;
}
"""

#: The collect path's boxer. It is compiled into the same library as
#: :data:`_C_SOURCE` but kept apart from it, because it calls into the
#: running interpreter: ``_C_SOURCE`` alone links into a standalone
#: (sanitizer) executable, this part only into a process that already
#: has libpython's symbols. The handful of stable-ABI calls it makes
#: are declared by hand, so the build needs no ``Python.h``.
_C_BOXER = r"""
#include <stdint.h>

typedef struct _object PyObject;
typedef intptr_t Py_ssize_t;
extern int PyList_Append(PyObject *, PyObject *);
extern PyObject *PyTuple_Pack(Py_ssize_t, ...);
extern PyObject *PyLong_FromUnsignedLong(unsigned long);
extern void Py_DecRef(PyObject *);
extern void PyObject_GC_UnTrack(void *);

/* Appends to list the (x, y, z) tuples of the k uint32 triples in buf,
 * in buffer order. ids is the caller's id table, one slot per id: the
 * int of id v is made on first use, kept in ids[v] (the table owns one
 * reference) and shared by every tuple holding v, in this chunk and
 * every later one; repro_box_release gives the table's references
 * back. A tuple of ints can never be part of a reference cycle, so each
 * is untracked by the collector at once, as a collection would do on
 * its first pass. Runs with the GIL held; returns 0, or -1 with a
 * Python error set when an allocation fails (the tuples appended so far
 * stay in list). */
int repro_box_append(PyObject *list, const uint32_t *buf, int64_t k,
                     PyObject **ids)
{
    for (int64_t i = 0; i < k; i++) {
        const uint32_t *row = buf + 3 * i;
        for (int c = 0; c < 3; c++)
            if (ids[row[c]] == NULL
                    && (ids[row[c]] = PyLong_FromUnsignedLong(row[c]))
                           == NULL)
                return -1;
        PyObject *tuple = PyTuple_Pack(3, ids[row[0]], ids[row[1]],
                                       ids[row[2]]);
        if (tuple == NULL)
            return -1;
        PyObject_GC_UnTrack(tuple);
        const int rc = PyList_Append(list, tuple);
        Py_DecRef(tuple);
        if (rc != 0)
            return -1;
    }
    return 0;
}

/* Gives back the id table's references and clears its n slots. Runs
 * with the GIL held. */
void repro_box_release(PyObject **ids, int64_t n)
{
    for (int64_t v = 0; v < n; v++) {
        if (ids[v] != NULL) {
            Py_DecRef(ids[v]);
            ids[v] = NULL;
        }
    }
}
"""

_I64P = ctypes.POINTER(ctypes.c_int64)
_U32P = ctypes.POINTER(ctypes.c_uint32)
_U8P = ctypes.POINTER(ctypes.c_uint8)


class _Library:
    """Resolved ctypes handles of the compiled kernel library."""

    def __init__(self, cdll: ctypes.CDLL):
        self._cdll = cdll  # keep the mapping alive
        self.forward = cdll.repro_forward
        self.forward.restype = ctypes.c_int
        self.forward.argtypes = [
            _I64P, _U32P, _I64P, ctypes.c_int64, ctypes.c_int64,
            ctypes.c_int, _I64P, _I64P,
        ]
        self.forward_stream = cdll.repro_forward_stream
        self.forward_stream.restype = ctypes.c_int64
        self.forward_stream.argtypes = [
            _I64P, _U32P, ctypes.c_int64, _I64P, _U32P, ctypes.c_int64,
            _I64P, _U8P,
        ]
        self.residual_wire = cdll.repro_residual_wire
        self.residual_wire.restype = ctypes.c_int64
        self.residual_wire.argtypes = [
            ctypes.c_int64, _I64P, _I64P, ctypes.c_void_p, _I64P,
            ctypes.c_int, _I64P, ctypes.POINTER(_U32P), _I64P,
        ]
        self.free = cdll.repro_free
        self.free.restype = None
        self.free.argtypes = [ctypes.c_void_p]
        self.configuration_wire = cdll.repro_configuration_wire
        self.configuration_wire.restype = ctypes.c_int64
        self.configuration_wire.argtypes = [
            ctypes.c_int64, _I64P, ctypes.c_void_p, _I64P,
        ]
        self.smallest_last = cdll.repro_smallest_last
        self.smallest_last.restype = ctypes.c_int64
        self.smallest_last.argtypes = [
            ctypes.c_int64, ctypes.c_int64, _I64P, _I64P, _I64P, _I64P,
        ]
        self.adopt_keys = cdll.repro_adopt_keys
        self.adopt_keys.restype = ctypes.c_int64
        self.adopt_keys.argtypes = [
            ctypes.c_int64, ctypes.c_int64, _I64P, _I64P,
        ]
        self.oriented_csr = cdll.repro_oriented_csr
        self.oriented_csr.restype = ctypes.c_int64
        self.oriented_csr.argtypes = [
            ctypes.c_int64, ctypes.c_int64, _I64P, _I64P, _I64P, _U32P,
            _I64P, _U32P,
        ]
        self.oriented_sums = cdll.repro_oriented_sums
        self.oriented_sums.restype = ctypes.c_int64
        self.oriented_sums.argtypes = [
            ctypes.c_int64, ctypes.c_int64, _I64P, _I64P, ctypes.c_int64,
            _I64P, _I64P,
        ]
        # the same mapping, called with the GIL held: the boxer builds
        # Python objects
        pydll = ctypes.PyDLL(cdll._name, handle=cdll._handle)
        self.box_append = pydll.repro_box_append
        self.box_append.restype = ctypes.c_int
        self.box_append.argtypes = [ctypes.py_object, _U32P,
                                    ctypes.c_int64, ctypes.c_void_p]
        self.box_release = pydll.repro_box_release
        self.box_release.restype = None
        self.box_release.argtypes = [ctypes.c_void_p, ctypes.c_int64]


_UNSET = object()
_lib = _UNSET  # tri-state: _UNSET -> not tried; None -> unavailable
_status: dict = {"state": "unresolved", "reason": None, "compiler": None,
                 "cache": "off"}
_last_stats: tuple | None = None

#: Compiler flags of the kernel library. They are part of the cache
#: key, so a build with other flags gets its own cached file.
_CFLAGS = ("-O3", "-shared", "-fPIC", "-pthread")

#: A cached library of another key older than this is pruned when a
#: miss publishes a library: each source, compiler or flag change
#: strands one, and no process still loads a file this old.
_STALE_LIBRARY_S = 7 * 24 * 3600

#: A ``build-*`` work dir older than this is pruned likewise: a compile
#: takes seconds, so it was left by a process killed mid-build.
_STALE_BUILD_S = 3600

_LIBRARY_NAME = re.compile(r"[0-9a-f]{64}\.so")


def _library_source() -> str:
    """The C source of the library: the kernels, then the boxer."""
    return _C_SOURCE + _C_BOXER


def _cache_key(compiler: str) -> str:
    """SHA-256 over the C source, the compiler's identity and the flags.

    The compiler is identified by its resolved path, size and mtime: an
    upgrade replaces the binary and so changes the key, without paying
    for a ``cc --version`` subprocess on every start.
    """
    real = os.path.realpath(compiler)
    st = os.stat(real)
    digest = hashlib.sha256()
    for part in (_library_source(),
                 f"{real}:{st.st_size}:{st.st_mtime_ns}",
                 " ".join(_CFLAGS)):
        digest.update(part.encode())
        digest.update(b"\0")
    return digest.hexdigest()


def _cache_dir() -> str | None:
    """The per-user library cache under the temp dir; None if untrusted.

    ``<gettempdir()>/repro-native-cache-<uid>``, created with mode
    ``0o700`` on first use. It is trusted only if it is a real
    directory (not a symlink) owned by this uid with mode exactly
    ``0o700``, so no other user can plant or swap a library in it.
    """
    if not hasattr(os, "getuid"):
        return None
    uid = os.getuid()
    path = os.path.join(tempfile.gettempdir(), f"repro-native-cache-{uid}")
    try:
        os.mkdir(path, 0o700)
    except FileExistsError:
        pass
    except OSError:
        return None
    try:
        st = os.lstat(path)
    except OSError:
        return None
    if (not stat.S_ISDIR(st.st_mode) or st.st_uid != uid
            or stat.S_IMODE(st.st_mode) != 0o700):
        return None
    return path


def _cached_path(compiler: str) -> str | None:
    """Where this source/compiler/flags library is cached; None if the
    cache is off."""
    cache = _cache_dir()
    if cache is None:
        return None
    try:
        return os.path.join(cache, _cache_key(compiler) + ".so")
    except OSError:
        return None


def _trusted_file(path: str) -> bool:
    """A regular file owned by this uid, writable by nobody else."""
    try:
        st = os.lstat(path)
    except OSError:
        return False
    return (stat.S_ISREG(st.st_mode) and st.st_uid == os.getuid()
            and not st.st_mode & (stat.S_IWGRP | stat.S_IWOTH))


def _prune_cache(cache: str, keep: tuple[str, ...]) -> None:
    """Remove stale libraries and work dirs from the cache dir.

    Only ``<64-hex>.so`` regular files older than
    :data:`_STALE_LIBRARY_S` and ``build-*`` directories older than
    :data:`_STALE_BUILD_S`, owned by this uid and not in ``keep``, go;
    symlinks and every other name stay. Best effort: a name that
    vanishes or cannot be removed is skipped.
    """
    now = time.time()
    try:
        names = os.listdir(cache)
    except OSError:
        return
    for name in names:
        path = os.path.join(cache, name)
        if path in keep:
            continue
        try:
            st = os.lstat(path)
        except OSError:
            continue
        if st.st_uid != os.getuid():
            continue
        age = now - st.st_mtime
        if (stat.S_ISREG(st.st_mode) and _LIBRARY_NAME.fullmatch(name)
                and age > _STALE_LIBRARY_S):
            with contextlib.suppress(OSError):
                os.unlink(path)
        elif (stat.S_ISDIR(st.st_mode) and name.startswith("build-")
                and age > _STALE_BUILD_S):
            shutil.rmtree(path, ignore_errors=True)


def _build_library():
    """Load the kernels from the per-user cache, or compile them; None
    on failure.

    A cache hit (:func:`_cache_dir`, file named by :func:`_cache_key`)
    is one ``dlopen``. On a miss the library compiles in a private work
    dir inside the cache dir, loads from there, and is published with
    an atomic :func:`os.replace`, so concurrent processes never see a
    partial file; the work dir is removed either way. A published
    library prunes the stale ones it replaces (:func:`_prune_cache`).
    An untrusted or unwritable cache dir compiles in a plain temp dir
    instead, and an unloadable cached file is recompiled and replaced.

    The outcome is recorded in :data:`_status` (``cache`` is ``hit``,
    ``miss`` or ``off``); :func:`available` caches the result so a
    failed compile never re-invokes the compiler in this process, and
    emits exactly one structured WARNING through
    :mod:`repro.obs.logging`.
    """
    gate = os.environ.get("REPRO_NATIVE", "1").strip().lower()
    if gate in ("", "0", "false", "no", "off"):
        _status.update(state="gated", reason="REPRO_NATIVE disabled")
        return None
    compiler = shutil.which("cc") or shutil.which("gcc")
    if compiler is None:
        _status.update(state="no-compiler",
                       reason="no cc/gcc on PATH")
        return None
    _status["compiler"] = compiler
    target = _cached_path(compiler)
    if target is not None:
        _status["cache"] = "miss"
        if _trusted_file(target):
            try:
                handle = _Library(ctypes.CDLL(target))
            except (OSError, AttributeError):
                pass  # unloadable: the compile below replaces it
            else:
                _status.update(state="ok", reason=None, cache="hit")
                return handle
    workdir = None
    try:
        if target is not None:
            try:
                workdir = tempfile.mkdtemp(prefix="build-",
                                           dir=os.path.dirname(target))
            except OSError:
                target = None  # unwritable cache: compile, don't publish
        if workdir is None:
            workdir = tempfile.mkdtemp(prefix="repro-native-")
        src = os.path.join(workdir, "kernel.c")
        lib = os.path.join(workdir, "kernel.so")
        with open(src, "w") as fh:
            fh.write(_library_source())
        subprocess.run([compiler, *_CFLAGS, "-o", lib, src],
                       check=True, capture_output=True, timeout=120)
        handle = _Library(ctypes.CDLL(lib))
        if target is not None:
            # no group/other write bits whatever the umask, or no later
            # process would trust the file
            with contextlib.suppress(OSError):
                os.chmod(lib, 0o700)
                os.replace(lib, target)
                _prune_cache(os.path.dirname(target), (target, workdir))
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
    finally:
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)


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
                  gated=_status["state"] == "gated")
        _metrics.set_gauge("engine.native_available",
                           1.0 if _lib is not None else 0.0)
    return _lib is not None


def status() -> dict:
    """Resolution state: ``{state, reason, compiler, cache}``
    (post-resolve).

    ``state`` is one of ``unresolved``, ``ok``, ``gated``,
    ``no-compiler``, ``compile-failed``, or ``disabled`` (a test
    monkeypatched the library away). ``cache`` is ``hit`` (loaded from
    the per-user cache), ``miss`` (looked up, then compiled) or ``off``
    (not consulted: gated, no compiler, or an untrusted cache dir).
    Benchmark sidecars record this next to their timings.
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


class _GraphArrays:
    """Per-graph native-call state, weakly cached on the oriented graph.

    The graph's own out-CSR (uint32 indices, int64 indptr -- passed by
    pointer, never copied), the edge-balanced block decomposition with
    its per-block counters, and the max out-degree (the streaming
    emitter's worst-case row). Building this once per graph keeps the
    per-call overhead of the native path to a few argument loads --
    which is most of what the ns/edge metric sees on small graphs.
    """

    def __init__(self, oriented):
        # references (not copies) keep the pointers valid
        self.indices, self.indptr = oriented.out_csr()
        if (self.indices.dtype != np.uint32 or self.indptr.dtype != np.int64
                or not self.indices.flags.c_contiguous
                or not self.indptr.flags.c_contiguous):
            raise ValueError("native kernels need a contiguous uint32/int64 "
                             "out-CSR, as OrientedGraph stores it")
        self.n = int(oriented.n)
        self.m = int(self.indices.size)
        self.max_out_degree = (int(oriented.out_degrees.max())
                               if self.n else 0)
        nblocks = max(1, min(DEFAULT_BLOCKS, self.n or 1))
        # Edge-balanced boundaries: a pure function of the graph, so
        # counts/ops cannot depend on the thread count.
        targets = np.linspace(0, self.m, nblocks + 1)
        starts = np.searchsorted(self.indptr, targets, side="left")
        starts[0], starts[-1] = 0, self.n
        self.block_starts = np.ascontiguousarray(
            np.maximum.accumulate(starts), dtype=np.int64)
        self.nblocks = nblocks
        self.block_counts = np.zeros(nblocks, dtype=np.int64)
        self.block_ops = np.zeros(nblocks, dtype=np.int64)
        self._p_indptr = self.indptr.ctypes.data_as(_I64P)
        self._p_indices = self.indices.ctypes.data_as(_U32P)
        self._p_starts = self.block_starts.ctypes.data_as(_I64P)
        self._p_counts = self.block_counts.ctypes.data_as(_I64P)
        self._p_ops = self.block_ops.ctypes.data_as(_I64P)


_ARRAYS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _graph_arrays(oriented) -> _GraphArrays:
    arrays = _ARRAYS.get(oriented)
    if arrays is None:
        arrays = _GraphArrays(oriented)
        _ARRAYS[oriented] = arrays
    return arrays


def _record_stats(block_ops: np.ndarray, threads: int,
                  count: int) -> None:
    """Stash one native run's op counters for :func:`last_stats`.

    Only a snapshot of the per-block op counters is taken on the hot
    path; the per-thread breakdown (deterministic from the static
    round-robin block assignment) is derived lazily at read time.
    """
    global _last_stats
    _last_stats = (block_ops.copy(), threads, count)


def last_stats() -> dict | None:
    """Telemetry of the most recent native run in this process.

    ``{threads, blocks, ops, ops_per_thread, triangles}`` -- ``ops``
    counts the kernel's elementary operations (mark-array probes),
    merged from the per-block counters in block order;
    ``ops_per_thread`` follows the static round-robin block assignment,
    so it is identical run-to-run for a fixed thread count. A streamed
    run is one block on one thread. A collect
    (:func:`collect_triangles`) is one streamed block too, on two
    threads when a producer thread emits beside the boxing one (every
    op is then thread 0's, the producer's, and thread 1 only boxes)
    and on one when it runs serially.
    """
    if _last_stats is None:
        return None
    block_ops, threads, count = _last_stats
    return {
        "threads": threads,
        "blocks": int(block_ops.size),
        "ops": int(block_ops.sum()),
        "ops_per_thread": [int(block_ops[t::threads].sum())
                           for t in range(threads)],
        "triangles": count,
    }


def count_triangles(oriented, threads: int | None = None):
    """Exact triangle count via the compiled kernels, or None if gated.

    Accepts any :class:`~repro.graphs.digraph.OrientedGraph`; the
    caller falls back to the Python reference on None. ``threads`` defaults
    to ``REPRO_NATIVE_THREADS`` (then the CPU count); the result is
    bit-identical at any value. One threaded pass of ``repro_forward``,
    recorded for :func:`last_stats`; MemoryError when the kernel cannot
    allocate its mark arrays or start a thread -- never the gated None
    that callers fall back on.
    """
    if not available():
        return None
    arrays = _graph_arrays(oriented)
    threads = resolve_threads(threads)
    if arrays.m and _lib.forward(
            arrays._p_indptr, arrays._p_indices, arrays._p_starts,
            arrays.nblocks, arrays.n, threads, arrays._p_counts,
            arrays._p_ops):
        raise MemoryError("native forward kernel: scratch allocation or "
                          "thread start failed")
    count = int(arrays.block_counts.sum())
    _record_stats(arrays.block_ops, min(threads, arrays.nblocks), count)
    return count


class _IdTable:
    """The boxer's id -> ``int`` table for one boxed list: ``n`` slots,
    filled on first use by ``repro_box_append`` and shared by every
    chunk boxed through it; leaving the ``with`` block gives its
    references back, so each ``int`` is then held by its tuples alone.
    """

    def __init__(self, n: int):
        self._slots = np.zeros(max(n, 1), dtype=np.uintp)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        _lib.box_release(self._slots.ctypes.data, self._slots.size)

    def box(self, boxed: list, buf: np.ndarray, k: int) -> None:
        """Append the first ``k`` triples of ``buf`` to ``boxed``."""
        if _lib.box_append(boxed, buf.ctypes.data_as(_U32P), k,
                           self._slots.ctypes.data):
            raise MemoryError("native boxer: allocation failed")


#: Triangles per chunk of a collect's stream (raised to the max
#: out-degree, the smallest chunk every edge fits): 768 KiB a buffer.
_COLLECT_CHUNK = 1 << 16

#: Chunk buffers in a collect's ring: one being boxed while the worker
#: fills the other. Emitting a chunk takes a fraction of boxing it, and
#: the worker needs the GIL (held through each boxing call) to hand a
#: chunk over, so a third buffer would only add resident memory.
_COLLECT_RING = 2


class _Stream:
    """One pass of the resumable ``repro_forward_stream`` cursor.

    Owns the cursor, the op counter, the ``n``-byte mark and
    ``nbuffers`` chunk buffers of ``cap`` triangles each (``cap`` is
    ``chunk_triangles`` raised to the max out-degree, so every edge
    fits an empty buffer), all checked in with the memory ledger for
    the ``with`` block. :meth:`chunks` is the one cursor loop that
    :func:`stream_triangles` and :func:`collect_triangles` drive.
    """

    def __init__(self, arrays: _GraphArrays, chunk_triangles: int,
                 nbuffers: int = 1):
        self.arrays = arrays
        self.cap = max(int(chunk_triangles), arrays.max_out_degree, 1)
        self.buffers = [np.empty(self.cap * 3, dtype=np.uint32)
                        for __ in range(nbuffers)]
        self.mark = np.zeros(max(arrays.n, 1), dtype=np.uint8)
        self.cursor = np.zeros(2, dtype=np.int64)
        self.ops = np.zeros(1, dtype=np.int64)
        self.triangles = 0
        self._tokens = ()

    def __enter__(self):
        self._tokens = tuple(
            [_memory.check_in("native.triangles", buf)
             for buf in self.buffers]
            + [_memory.check_in("native.mark", self.mark)])
        return self

    def __exit__(self, *exc_info):
        for token in self._tokens:
            _memory.check_out(token)

    def chunks(self, buffers):
        """Yield ``(buffer, k)`` per kernel call until the pass ends:
        each call writes the next ``k`` triangles into a buffer drawn
        from the iterable ``buffers``, which must not be drawn again
        before it is handed back. Only the last call can write none.
        """
        arrays = self.arrays
        for buf in buffers:
            if self.cursor[0] >= arrays.n:
                return
            _memory.check_budget("native streaming listing")
            written = int(_lib.forward_stream(
                arrays._p_indptr, arrays._p_indices, arrays.n,
                self.cursor.ctypes.data_as(_I64P),
                buf.ctypes.data_as(_U32P), self.cap,
                self.ops.ctypes.data_as(_I64P),
                self.mark.ctypes.data_as(_U8P)))
            if not written and self.cursor[0] < arrays.n:
                raise RuntimeError(  # pragma: no cover - safety
                    "native streaming kernel stalled")
            self.triangles += written
            yield buf, written


def stream_triangles(oriented, chunk_triangles: int = 1 << 20):
    """Generator of ``(k, 3)`` uint32 triangle batches, or None if gated.

    The streaming spill-back path: a resumable C cursor fills one
    reusable ``chunk_triangles``-capacity buffer per call, so peak
    memory is one chunk and one n-byte mark regardless of the triangle
    count and Python never boxes individual triangles. Rows are
    ``(x, y, z)`` with ``x < y < z``, ordered by ``(z, y)`` then
    ascending ``x``, the same at any ``chunk_triangles``.
    """
    if not available():
        return None
    arrays = _graph_arrays(oriented)

    def _gen():
        with _Stream(arrays, chunk_triangles) as stream:
            for buf, k in stream.chunks(itertools.repeat(stream.buffers[0])):
                if k:
                    yield buf[:k * 3].reshape(-1, 3).copy()
        _record_stats(stream.ops, 1, stream.triangles)

    return _gen()


def collect_triangles(oriented, threads: int | None = None):
    """All triangles as a list of ``(x, y, z)`` tuples of Python ints,
    or None if gated: what ``collect=True`` returns on the native path.

    One streamed pass, no count pass: the :func:`stream_triangles`
    cursor fills a ring of :data:`_COLLECT_RING` chunk buffers of
    :data:`_COLLECT_CHUNK` triangles on a worker thread, whose ctypes
    calls drop the GIL, while this thread boxes each filled chunk in C
    into one list with one id table: one ``int`` per distinct id,
    shared by every tuple holding it across chunks, and each tuple
    untracked by the garbage collector at once (a tuple of ints cannot
    be part of a cycle, so a collection would untrack it anyway). The list
    is :func:`stream_triangles`' rows, in order.
    The worker is joined before this returns, on error or interrupt
    too, and its exceptions are raised here; a failed thread start is
    a ``MemoryError``, like the kernels' own. With one native thread
    (``threads``, else ``REPRO_NATIVE_THREADS``) the pass runs on this
    thread alone. :func:`last_stats` reports the threads used.
    """
    if not available():
        return None
    arrays = _graph_arrays(oriented)
    threads = 1 if resolve_threads(threads) == 1 else 2
    boxed: list = []
    ring = 1 if threads == 1 else _COLLECT_RING
    with _Stream(arrays, _COLLECT_CHUNK, ring) as stream, \
            _IdTable(arrays.n) as ids:
        chunks = (stream.chunks(itertools.repeat(stream.buffers[0]))
                  if threads == 1 else _beside(stream))
        with contextlib.closing(chunks):  # joins the worker
            for buf, k in chunks:
                ids.box(boxed, buf, k)
    _record_stats(stream.ops, threads, stream.triangles)
    return boxed


def _beside(stream: _Stream):
    """Yield ``stream``'s chunks as a worker thread emits them.

    The worker drives :meth:`_Stream.chunks` over the stream's ring of
    buffers: a buffer goes back to the worker when the caller asks for
    the next chunk, so the caller may read each yielded chunk until
    then. The worker runs no Python code besides the loop (no spans,
    no metrics). Closing or leaving the generator, by return or
    exception, stops the worker and joins it; an exception raised in
    the worker is raised here.
    """
    import queue  # only a threaded collect needs it; imports stay light

    free: queue.SimpleQueue = queue.SimpleQueue()
    filled: queue.SimpleQueue = queue.SimpleQueue()
    for buf in stream.buffers:
        free.put(buf)

    def ring():  # the free buffers, until the caller puts None
        while (buf := free.get()) is not None:
            yield buf

    def produce():
        try:
            for chunk in stream.chunks(ring()):
                filled.put(chunk)
        except BaseException as exc:  # re-raised on the calling thread
            filled.put(exc)
        else:
            filled.put(None)

    thread = threading.Thread(target=produce, name="repro-collect")
    try:
        thread.start()
    except RuntimeError as exc:
        raise MemoryError("native collect: thread start failed") from exc
    try:
        while (chunk := filled.get()) is not None:
            if isinstance(chunk, BaseException):
                raise chunk
            yield chunk
            free.put(chunk[0])
    finally:
        free.put(None)  # wakes a worker waiting for a buffer
        thread.join()


def residual_wire(order, residual, rng):
    """Run the residual-degree wiring loop in C, or None if gated.

    ``order`` is the node processing order, ``residual`` an int64 copy
    of the degree sequence (updated in place to the unplaced stubs),
    and ``rng`` the :class:`numpy.random.Generator` whose bit generator
    the loop draws from, one ``next_double`` (the call ``rng.random()``
    makes) per draw, holding the bit generator's lock. Returns the
    placed edges as int64 keys ``lo * n + hi`` in placement order,
    step for step those of
    :func:`repro.graphs.generators._wire_python` on the same stream.
    """
    return _wire(order, residual, rng, None) if available() else None


def residual_out_degrees(order, residual, rng, descending: bool):
    """The same loop with its pricing sink, or None if gated.

    Takes the arguments of :func:`residual_wire` and draws exactly as
    it does, but writes no edge. Returns ``(out_degrees, ties)``: the
    int64 out-degrees under a degree-monotone label map (descending:
    larger degrees take smaller labels; else ascending), counting every
    placed edge between different degrees at its tail (its larger
    label); and the edges between equal degrees, whose tails the
    tie-break decides, as a ``(k, 2)`` uint32 array of endpoints.
    """
    return (_wire(order, residual, rng, bool(descending)) if available()
            else None)


def _wire(order, residual, rng, descending):
    """Check the arguments and run ``repro_residual_wire`` into the key
    sink (``descending`` None) or the pricing sink."""
    order = np.ascontiguousarray(order, dtype=np.int64)
    n = residual.size
    if (residual.dtype != np.int64 or not residual.flags.c_contiguous
            or order.shape != (n,)):
        raise ValueError("residual must be a contiguous int64 array "
                         "the size of order")
    # the C loop indexes by order and sizes its scratch by the degrees
    if n and (order.min() < 0 or order.max() >= n
              or residual.min() < 0):
        raise ValueError("order must index 0..n-1 and degrees must be "
                         "non-negative")
    if descending is None:
        keys = np.empty(int(residual.sum()) // 2, dtype=np.int64)
        sink = (keys.ctypes.data_as(_I64P), 0, None, None, None)
    else:
        out = np.empty(n, dtype=np.int64)
        ties, nties = _U32P(), ctypes.c_int64(0)
        sink = (None, descending, out.ctypes.data_as(_I64P),
                ctypes.byref(ties), ctypes.byref(nties))
    bit_generator = rng.bit_generator
    try:
        with bit_generator.lock:
            used = _lib.residual_wire(
                n, order.ctypes.data_as(_I64P),
                residual.ctypes.data_as(_I64P),
                bit_generator.ctypes.bit_generator, *sink)
        if used == -1:
            raise MemoryError("native residual wiring: scratch "
                              "allocation failed")
        if used < 0:
            raise ValueError(_WIDE_N)
        if descending is None:
            return keys[:used]
        if not nties.value:
            return out, np.empty((0, 2), dtype=np.uint32)
        return out, np.ctypeslib.as_array(ties, (nties.value, 2)).copy()
    finally:
        if descending is not None:
            _lib.free(ties)


#: What a ``-3`` from a wiring loop means: its stubs are uint32 node ids.
_WIDE_N = ("native wiring indexes nodes and degrees in 32 bits: n must "
           "be below 2**32")


def configuration_wire(degrees, rng):
    """Run the configuration model's stub matching in C, or None if gated.

    ``degrees`` is the degree sequence (non-negative, even sum) and
    ``rng`` the :class:`numpy.random.Generator` whose bit generator the
    shuffle draws from, holding its lock: one bounded Lemire draw per
    swap, as ``rng.integers(0, np.arange(S, 1, -1), dtype=np.uint64)``
    takes them. Returns ``(keys, pairs)``: the sorted unique int64 keys
    ``lo * n + hi`` of the simplified graph and the number of stub
    pairs, equal to
    :func:`repro.graphs.generators._configuration_python` on the same
    stream, which leaves the bit generator in the same state.
    """
    if not available():
        return None
    degrees = np.ascontiguousarray(degrees, dtype=np.int64)
    stubs = int(degrees.sum())
    if degrees.ndim != 1 or (degrees.size and degrees.min() < 0) \
            or stubs % 2:
        raise ValueError("degrees must be a 1-d sequence of non-negative "
                         "degrees with an even sum")
    pairs = stubs // 2
    keys = np.empty(pairs, dtype=np.int64)
    bit_generator = rng.bit_generator
    with bit_generator.lock:
        unique = _lib.configuration_wire(
            degrees.size, degrees.ctypes.data_as(_I64P),
            bit_generator.ctypes.bit_generator,
            keys.ctypes.data_as(_I64P))
    if unique == -1:
        raise MemoryError("native configuration wiring: scratch "
                          "allocation failed")
    if unique < 0:
        raise ValueError(_WIDE_N)
    # shrink in place to the kept keys (the C call held the only other
    # handle, a raw pointer), so no dropped pair's slot outlives the call
    keys.resize(unique, refcheck=False)
    return keys, pairs


def _check_int64(names: str, *arrays) -> None:
    """ValueError unless every array is a contiguous int64 ndarray."""
    if any(not isinstance(a, np.ndarray) or a.dtype != np.int64
           or not a.flags.c_contiguous for a in arrays):
        raise ValueError(f"{names} must be contiguous int64 arrays")


#: What a ``-2`` from a key-reading C loop means.
_BAD_KEYS = ("edge keys must be strictly increasing keys lo * n + hi "
             "with 0 <= lo < hi < n")


def smallest_last(keys, degrees):
    """Matula-Beck smallest-last order in C, or None if gated.

    ``keys`` are :attr:`repro.graphs.graph.Graph.keys` (strictly
    increasing ``lo * n + hi``, ``lo < hi``) and ``degrees`` the
    ``(n,)`` degrees, both contiguous int64. Returns
    ``(order, degeneracy, out_degrees)`` bit-identical to
    :func:`repro.orientations.degenerate._smallest_last_python`:
    ``order[k]`` is the vertex deleted at step ``k`` and
    ``out_degrees[v]`` the degree ``v`` had when it was deleted -- its
    out-degree under the degenerate labels, so the totals of (7)-(9)
    under them are ``component_ops(out_degrees, degrees - out_degrees)``
    with no walk over the keys. The C pass lays the neighbour rows out
    from the keys itself, checking each key, and frees them before it
    returns: nothing is cached on the graph. It runs without the GIL,
    so a caller may run it on a thread of its own. ValueError on a
    malformed key, on degrees that are not the keys' degrees, or on
    ``n >= 2**31``.
    """
    if not available():
        return None
    _check_int64("keys and degrees", keys, degrees)
    if keys.ndim != 1 or degrees.ndim != 1:
        raise ValueError("keys must be (m,) and degrees (n,)")
    n = degrees.size
    order = np.empty(n, dtype=np.int64)
    out_degrees = np.empty(n, dtype=np.int64)
    degeneracy = _lib.smallest_last(
        n, keys.size, keys.ctypes.data_as(_I64P),
        degrees.ctypes.data_as(_I64P), order.ctypes.data_as(_I64P),
        out_degrees.ctypes.data_as(_I64P))
    if degeneracy == -1:
        raise MemoryError("native smallest-last: scratch allocation "
                          "failed")
    if degeneracy == -2:
        raise ValueError(_BAD_KEYS)
    if degeneracy == -3:
        raise ValueError("native smallest-last indexes vertices in 31 "
                         "bits: n must be below 2**31")
    if degeneracy < 0:
        raise ValueError("degrees must be the degrees of the edge keys")
    return order, int(degeneracy), out_degrees


def adopt_keys(keys, n):
    """Check a graph's edge keys and count its degrees in C, or None if
    gated.

    ``keys`` is a 1-d int64 array of ``lo * n + hi`` and ``n`` at most
    :data:`repro.graphs.graph.MAX_KEYED_N`. Returns ``(fault, degrees)``
    from one pass over the keys: ``fault`` is 0 when they are strictly
    increasing, in ``[0, n * n)`` and have ``lo < hi``, else the first
    check :meth:`repro.graphs.graph.Graph._adopt` fails (1 increasing,
    2 range, 3 ``lo < hi``); ``degrees`` is the ``(n,)`` int64 degrees
    of well-formed keys.
    """
    if not available():
        return None
    if (not isinstance(keys, np.ndarray) or keys.dtype != np.int64
            or keys.ndim != 1):
        raise ValueError("edge keys must be a 1-d int64 array")
    keys = np.ascontiguousarray(keys)
    degrees = np.empty(n, dtype=np.int64)
    fault = _lib.adopt_keys(n, keys.size, keys.ctypes.data_as(_I64P),
                            degrees.ctypes.data_as(_I64P))
    if fault < 0:
        raise ValueError(_BAD_KEYS)
    return int(fault), degrees


def oriented_csr(keys, labels):
    """An orientation's out- and in-CSR from sorted edge keys in C, or
    None if gated.

    ``keys`` are :attr:`repro.graphs.graph.Graph.keys` (strictly
    increasing ``lo * n + hi``, ``lo < hi``) and ``labels`` the
    ``(n,)`` label map, both contiguous int64. Returns
    ``(out_indices, out_indptr, in_indices, in_indptr)`` -- uint32
    indices, int64 indptr -- equal to the sorting reference build in
    :func:`repro.graphs.digraph._sorted_oriented_csr`, from O(n + m)
    counting scatters and no sort. ValueError on malformed keys or on
    a label outside ``[0, n)``; whether the labels are a permutation is
    the caller's check (:func:`repro.graphs.digraph.check_labels`).
    """
    if not available():
        return None
    _check_int64("keys and labels", keys, labels)
    if keys.ndim != 1 or labels.ndim != 1:
        raise ValueError("keys must be (m,) and labels (n,)")
    n, m = labels.size, keys.size
    out_indptr = np.empty(n + 1, dtype=np.int64)
    in_indptr = np.empty(n + 1, dtype=np.int64)
    out_indices = np.empty(m, dtype=np.uint32)
    in_indices = np.empty(m, dtype=np.uint32)
    status = _lib.oriented_csr(
        n, m, keys.ctypes.data_as(_I64P), labels.ctypes.data_as(_I64P),
        out_indptr.ctypes.data_as(_I64P), out_indices.ctypes.data_as(_U32P),
        in_indptr.ctypes.data_as(_I64P), in_indices.ctypes.data_as(_U32P))
    if status == -1:
        raise MemoryError("native oriented CSR: scratch allocation failed")
    if status == -2:
        raise ValueError(_BAD_KEYS)
    if status:
        raise ValueError("labels must lie in [0, n)")
    return out_indices, out_indptr, in_indices, in_indptr


def oriented_sums(keys, degrees, labels):
    """The totals of eqs. (7)-(9) under K label maps in C, or None if gated.

    ``keys`` are a graph's sorted edge keys
    (:attr:`repro.graphs.graph.Graph.keys`), ``degrees`` its ``(n,)``
    degrees and ``labels`` a ``(K, n)`` stack of label maps, all
    contiguous int64. Returns a ``(K, 3)`` int64 array whose row ``j``
    is ``(sum X(X-1)/2, sum XY, sum Y(Y-1)/2)`` under ``labels[j]`` --
    ``component_ops(*oriented_degrees(graph, labels[j]))`` of
    :mod:`repro.orientations.relabel`. The C loop prices every map in
    one walk over the rows of the keys (no division), checking each
    key: ValueError on a malformed one.
    """
    if not available():
        return None
    _check_int64("keys, degrees and labels", keys, degrees, labels)
    n = degrees.size
    if (keys.ndim != 1 or degrees.ndim != 1 or labels.ndim != 2
            or labels.shape[1] != n):
        raise ValueError("keys must be (m,), degrees (n,) and "
                         "labels (K, n)")
    sums = np.empty((labels.shape[0], 3), dtype=np.int64)
    status = _lib.oriented_sums(
        n, keys.size, keys.ctypes.data_as(_I64P),
        degrees.ctypes.data_as(_I64P), labels.shape[0],
        labels.ctypes.data_as(_I64P), sums.ctypes.data_as(_I64P))
    if status == -1:
        raise MemoryError("native oriented sums: scratch allocation "
                          "failed")
    if status:
        raise ValueError(_BAD_KEYS)
    return sums


def self_test() -> bool:
    """Compile-and-verify: a triangle + a path (counted, streamed and
    collected), a residual wiring through both sinks, a
    configuration-model wiring and the adoption of its keys, a
    smallest-last order, the planner's orientation sums, and the
    oriented CSR from keys.

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
    if [t.tolist() for t in stream_triangles(tri)] != [[[0, 1, 2]]]:
        return False
    if any(collect_triangles(tri, threads) != [(0, 1, 2)]
           for threads in (1, 2)):
        return False
    # residual wiring: C loop against the Python reference, same seed
    from repro.graphs import generators
    degrees, order = generators._wiring_order(
        np.array([5, 4, 4, 3, 3, 3, 2, 2, 1, 1]))
    rng_ref, rng_native = np.random.default_rng(7), np.random.default_rng(7)
    ref_keys, ref_residual = generators._wire_python(degrees, order,
                                                     rng_ref)
    keys, residual = generators._wire_native(degrees, order, rng_native)
    if not (np.array_equal(keys, ref_keys)
            and np.array_equal(residual, ref_residual)
            and rng_native.bit_generator.state
            == rng_ref.bit_generator.state):
        return False
    # the pricing sink on the same draws: each key's edge counted at its
    # tail under both degree-monotone maps, equal degrees handed back
    lo, hi = np.divmod(keys, degrees.size)
    tie = degrees[lo] == degrees[hi]
    for descending in (False, True):
        rng_priced = np.random.default_rng(7)
        priced_residual = degrees.copy()
        out, ties = residual_out_degrees(order, priced_residual,
                                         rng_priced, descending)
        tails = np.where((degrees[lo] < degrees[hi]) == descending, lo, hi)
        if not (np.array_equal(out, np.bincount(
                    tails[~tie], minlength=degrees.size))
                and np.array_equal(np.sort(ties, axis=1),
                                   np.stack([lo[tie], hi[tie]], axis=1))
                and np.array_equal(priced_residual, ref_residual)
                and rng_priced.bit_generator.state
                == rng_ref.bit_generator.state):
            return False
    # configuration model: the C pass against the NumPy reference on
    # the same sequence, which pairs up loops and repeats at this seed;
    # then key adoption against a decode and two bincounts
    rng_ref, rng_native = np.random.default_rng(7), np.random.default_rng(7)
    ref_keys, ref_pairs = generators._configuration_python(degrees,
                                                           rng_ref)
    keys, pairs = configuration_wire(degrees, rng_native)
    if not (np.array_equal(keys, ref_keys) and pairs == ref_pairs
            and rng_native.bit_generator.state
            == rng_ref.bit_generator.state):
        return False
    fault, adopted = adopt_keys(keys, degrees.size)
    lo, hi = np.divmod(keys, degrees.size)
    if fault or not np.array_equal(
            adopted, np.bincount(np.concatenate([lo, hi]),
                                 minlength=degrees.size)):
        return False
    # smallest-last order: the C pass over the keys against the Python
    # reference on a wheel with a pendant path -- degree ties on the
    # rim, and a hub that moves down one bucket per deleted spoke; the
    # C pass must leave the graph's CSR unbuilt
    from repro.orientations import degenerate
    hub = [(0, v) for v in range(1, 8)]
    rim = [(v, v + 1) for v in range(1, 7)] + [(7, 1)]
    wheel = Graph(11, hub + rim + [(7, 8), (8, 9), (9, 10)])
    order, k, out_degrees = smallest_last(wheel.keys, wheel.degrees)
    if wheel._csr is not None:
        return False
    ref_order, ref_k, ref_out = degenerate._smallest_last_python(wheel)
    if not (order.tolist() == ref_order.tolist() and k == ref_k
            and out_degrees.tolist() == ref_out.tolist()):
        return False
    # orientation pricing: C totals against oriented_degrees +
    # component_ops on the same wheel, under every planner label map
    from repro.core.costs import component_ops
    from repro.listing.api import ALL_METHODS
    from repro.orientations.relabel import oriented_degrees
    from repro.planner.candidates import GRAPH_ORDERINGS, iter_candidates
    maps = {c.orientation_key(): c.permutation().labels_for(wheel)
            for c in iter_candidates(ALL_METHODS, GRAPH_ORDERINGS)}
    sums = oriented_sums(wheel.keys, wheel.degrees,
                         np.stack(list(maps.values())))
    ref = [list(component_ops(*oriented_degrees(wheel, labels)).values())
           for labels in maps.values()]
    if sums.tolist() != ref:
        return False
    # oriented CSR: the counting pass against the sorting build, under
    # the same label maps
    from repro.graphs.digraph import _sorted_oriented_csr
    return all(
        a.dtype == b.dtype and np.array_equal(a, b)
        for labels in maps.values()
        for a, b in zip(oriented_csr(wheel.keys, labels),
                        _sorted_oriented_csr(wheel, labels)))


if __name__ == "__main__":  # pragma: no cover - manual smoke hook
    print("native available:", available(), "status:", status(),
          "self_test:", self_test(), file=sys.stderr)
