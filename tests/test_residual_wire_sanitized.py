"""The compiled kernels under AddressSanitizer and UBSan.

``native._C_SOURCE`` plus the small C ``main`` below compile into one
standalone executable with ``-fsanitize=address,undefined
-fno-sanitize-recover=all``, so no ``LD_PRELOAD`` into the Python
process and no build-flag switch in the library is needed. The
``main`` wires stars, regular sequences and heavy-tailed sequences at
sizes on both sides of 8, 64 and 512, drawing through a stub
``bitgen_t`` that supplies random uniforms, all ``0`` or all
``1 - 2**-53`` (constant draws must still end every run, since each
draw takes an entry out of the pool). It checks each result -- keys
``lo * n + hi`` with ``lo < hi`` in range, no duplicate, every placed
stub accounted for -- and the ``n >= 2**32`` rejection.

The configuration model's pass runs on the same sizes (Pareto, star,
complete and all-zero sequences) and on stub counts on both sides of
``2**4``, ``2**8`` and ``2**12``, with its shuffle's words drawn
through a stub ``bitgen_t`` as random words, zero on every other draw,
or all ones on every other draw. (A constant zero word would be
rejected forever by the Lemire draw for any bound ``b`` that is not a
power of two, since its threshold ``2**32 mod b`` is then above 0; a
constant all-ones word likewise by some bounds.) An oracle in the
``main`` replays the same words through numpy's bounded Lemire draw,
written out apart, pairs the stubs, sorts with ``qsort`` and
deduplicates; the keys and the number of words consumed must be equal.
The draw itself is also replayed against the oracle on bounds no
shuffle here reaches: each side of ``2**31`` and ``2**32`` (``2**32 -
1`` being numpy's shortcut) and the 64-bit branch.
``n >= 2**32``, a degree beyond 32 bits and a negative degree must be
refused before any draw.

It then runs the four passes that read a graph's sorted edge keys
``lo * n + hi`` -- key adoption, the smallest-last order, the
key-walking orientation sums and the oriented CSR from keys -- on
``n = 0``, ``m = 0``, a star, a clique and random graphs; adoption must
count the degrees. The ``main`` builds its own oracle adjacency from
the keys (count, fill, sort each row with ``qsort``) and checks that it
has the given degrees and that every row is sorted, in range and
symmetric. On that adjacency the sums under the identity and the
reversed label map must be the ones it implies, and the smallest-last
order must delete a vertex of minimum remaining degree at every step,
report that remaining degree as the vertex's out-degree, and return
the degeneracy; on degrees that are not the keys' it must return
``-4``. Under the identity,
the reversed and a random label map it checks that every oriented row
is sorted and in range, that out and in are transposes of each other
and that every oriented edge is an edge of the keys.

Each of those oriented CSRs then goes through the forward listing
kernels: the count and emit passes over one and three blocks at one and
two threads, and the resumable stream at the smallest legal capacity
(the maximum out-degree), so chunks end mid-row. Every count must match
a brute count, every row must be a triangle ``x < y < z`` of the CSR in
strictly increasing ``(z, y, x)`` order, and the emit passes and the
concatenated stream must agree byte for byte.

Malformed keys (a decreasing key, a duplicate, a self-loop, a key at
``n * n``, ``INT64_MIN`` after row 0, keys on no nodes), a label
outside ``[0, n)`` and an ``n`` whose keys overflow int64 (for the
smallest-last order, an ``n`` above ``INT32_MAX``, which its records
cannot hold: ``-3``) must return the error code without reading or
writing out of bounds or overflowing a signed subtraction; adoption
must name the fault its Python caller reports first (a decrease or
repeat anywhere, then the range, then ``lo >= hi``), also when one
array holds several. The ``main`` exits 0 only when all of it holds.
Any sanitizer report aborts the run with a non-zero status.

One entry point of the library is outside this build: the collect
boxer ``repro_box_triangles`` (``native._C_BOXER``, compiled after
``_C_SOURCE`` into the same library). It builds the Python list of
tuples, so it links only against libpython's symbols, which a
standalone executable does not have; ``tests/test_collect_emission.py``
checks it in-process.

Skips when there is no C compiler, or when the compiler cannot build
and run a sanitized program on this host.
"""

import shutil
import subprocess

import pytest

from repro.engine import native

COMPILER = shutil.which("cc") or shutil.which("gcc")

FLAGS = ("-O1", "-g", "-fno-omit-frame-pointer",
         "-fsanitize=address,undefined", "-fno-sanitize-recover=all",
         "-pthread")

MAIN = r"""
#include <stdio.h>
#include <string.h>

static uint64_t rng_state = 0x2545F4914F6CDD1Dull;

/* splitmix64, top 53 bits: a uniform on [0, 1) */
static double uniform(void)
{
    uint64_t z = (rng_state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return (double)((z ^ (z >> 31)) >> 11) * 0x1.0p-53;
}

static const int64_t *sort_deg;

static int by_degree_desc(const void *a, const void *b)
{
    const int64_t x = sort_deg[*(const int64_t *)a];
    const int64_t y = sort_deg[*(const int64_t *)b];
    return (x < y) - (x > y);
}

static int by_value(const void *a, const void *b)
{
    const int64_t x = *(const int64_t *)a, y = *(const int64_t *)b;
    return (x > y) - (x < y);
}

/* A stub bitgen_t: next_double hands out the uniforms of wire_mode
 * (0 random, 1 all zero, 2 all 1 - 2^-53) */
static int wire_mode;

static double stub_double(void *state)
{
    (void)state;
    return wire_mode == 0 ? uniform()
           : wire_mode == 1 ? 0.0 : 1.0 - 0x1.0p-53;
}

/* Words for the shuffle's Lemire draws under word_mode: 0 random, 1 zero
 * on every other draw and 2 all ones on every other draw, random in
 * between (a constant zero word would be rejected forever by any bound
 * b that is not a power of two, whose threshold 2^32 mod b is above 0,
 * in numpy's draw as in this one) */
static int word_mode;
static uint64_t word_draws;

static uint64_t random_word(void)
{
    uint64_t z = (rng_state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

static uint64_t stub_uint64(void *state)
{
    (void)state;
    word_draws++;
    return word_mode == 1 && word_draws % 2 ? 0
           : word_mode == 2 && word_draws % 2 ? ~(uint64_t)0
           : random_word();
}

static uint32_t stub_uint32(void *state)
{
    return (uint32_t)stub_uint64(state);
}

static bitgen_t stub_rng = {0, stub_uint64, stub_uint32, stub_double, 0};

/* Wire deg[0..n) with the given draw mode and check the result;
 * returns 0 when it holds. */
static int wire(const char *name, int64_t n, const int64_t *deg, int mode)
{
    int64_t sum = 0;
    for (int64_t v = 0; v < n; v++)
        sum += deg[v];
    const int64_t half = sum / 2;
    int64_t *order = malloc((size_t)(n + 1) * sizeof(int64_t));
    int64_t *residual = malloc((size_t)(n + 1) * sizeof(int64_t));
    int64_t *placed_at = calloc((size_t)(n + 1), sizeof(int64_t));
    int64_t *keys = malloc((size_t)(half + 1) * sizeof(int64_t));
    for (int64_t v = 0; v < n; v++) {
        order[v] = v;
        residual[v] = deg[v];
    }
    sort_deg = deg;
    qsort(order, (size_t)n, sizeof(int64_t), by_degree_desc);
    wire_mode = mode;
    const int64_t used = repro_residual_wire(n, order, residual, &stub_rng,
                                             keys);
    int bad = used < 0 || used > half;
    for (int64_t k = 0; !bad && k < used; k++) {
        const int64_t a = keys[k] / n, b = keys[k] % n;
        bad = !(0 <= a && a < b && b < n);
        if (!bad) {
            placed_at[a]++;
            placed_at[b]++;
        }
    }
    if (!bad) {
        qsort(keys, (size_t)used, sizeof(int64_t), by_value);
        for (int64_t k = 1; k < used; k++)
            bad |= keys[k] == keys[k - 1];
        for (int64_t v = 0; v < n; v++)
            bad |= residual[v] < 0 || placed_at[v] + residual[v] != deg[v];
    }
    if (bad)
        fprintf(stderr, "FAIL %s n=%lld mode=%d used=%lld\n", name,
                (long long)n, mode, (long long)used);
    free(order);
    free(residual);
    free(placed_at);
    free(keys);
    return bad;
}

/* numpy's random_bounded_uint64 with off = 0 and Lemire's rejection (a
 * uniform integer in [0, max], max >= 1), written out on its own as the
 * oracle: the product of a word and the bound max + 1 is kept unless its
 * low part falls below (2^w - (max + 1)) mod (max + 1) */
static uint64_t oracle_lemire(uint64_t max)
{
    if (max == 0xffffffffULL)
        return stub_uint32(0);
    if (max < 0xffffffffULL) {
        const uint64_t bound = max + 1;
        const uint64_t threshold = ((uint64_t)1 << 32) % bound;
        uint64_t product;
        do
            product = (uint64_t)stub_uint32(0) * bound;
        while ((product & 0xffffffffULL) < threshold);
        return product >> 32;
    }
    const uint64_t bound = max + 1;
    const uint64_t threshold = (0 - bound) % bound;
    __uint128_t product;
    do
        product = (__uint128_t)stub_uint64(0) * bound;
    while ((uint64_t)product < threshold);
    return (uint64_t)(product >> 64);
}

/* repro_configuration_wire on deg[0..n) under one word mode, against
 * an oracle replaying the same words: the stubs shuffled with
 * oracle_lemire, paired, loops dropped, the keys sorted with qsort
 * and deduplicated. Checks the keys are equal, strictly increasing,
 * lo < hi < n, that no vertex gets more edges than its degree, and
 * that both consumed the same number of words. Returns 0 when that
 * holds. */
static int configuration(const char *name, int64_t n, const int64_t *deg,
                         int mode)
{
    int64_t stubs = 0;
    for (int64_t v = 0; v < n; v++)
        stubs += deg[v];
    const int64_t pairs = stubs / 2;
    int64_t *keys = malloc((size_t)(pairs + 1) * sizeof(int64_t));
    int64_t *ref = malloc((size_t)(pairs + 1) * sizeof(int64_t));
    int64_t *stub = malloc((size_t)(stubs + 1) * sizeof(int64_t));
    int64_t *got = calloc((size_t)n + 1, sizeof(int64_t));
    const uint64_t seed = rng_state;
    word_mode = mode;
    word_draws = 0;
    const int64_t m = repro_configuration_wire(n, deg, &stub_rng, keys);
    const uint64_t used = word_draws;
    rng_state = seed;
    word_draws = 0;
    int64_t s = 0, r = 0;
    for (int64_t v = 0; v < n; v++)
        for (int64_t t = 0; t < deg[v]; t++)
            stub[s++] = v;
    for (int64_t i = stubs - 1; i > 0; i--) {
        const int64_t j = (int64_t)oracle_lemire((uint64_t)i);
        const int64_t held = stub[j];
        stub[j] = stub[i];
        stub[i] = held;
    }
    for (int64_t p = 0; p < pairs; p++) {
        const int64_t a = stub[2 * p], b = stub[2 * p + 1];
        if (a != b)
            ref[r++] = a < b ? a * n + b : b * n + a;
    }
    qsort(ref, (size_t)r, sizeof(int64_t), by_value);
    int64_t unique = 0;
    for (int64_t k = 0; k < r; k++)
        if (unique == 0 || ref[k] != ref[unique - 1])
            ref[unique++] = ref[k];
    int bad = m != unique || used != word_draws;
    for (int64_t k = 0; !bad && k < m; k++) {
        const int64_t lo = keys[k] / n, hi = keys[k] % n;
        bad = keys[k] != ref[k] || !(0 <= lo && lo < hi && hi < n)
              || (k > 0 && keys[k] <= keys[k - 1])
              || ++got[lo] > deg[lo] || ++got[hi] > deg[hi];
    }
    if (bad)
        fprintf(stderr, "FAIL configuration %s n=%lld mode=%d m=%lld "
                "unique=%lld\n", name, (long long)n, mode, (long long)m,
                (long long)unique);
    free(keys);
    free(ref);
    free(stub);
    free(got);
    return bad;
}

/* bounded_lemire against the oracle, draw by draw, on bounds that the
 * shuffles of these sizes never reach: each side of 2^31 and 2^32
 * (2^32 - 1 is numpy's shortcut, the word as it is), bounds whose
 * threshold 2^32 mod (max + 1) is 1, and the 64-bit branch. Both must
 * return the same values and consume the same words. Returns 0 when
 * that holds. */
static int lemire_bounds(void)
{
    static const uint64_t bounds[] = {
        1, 2, 4, 16, 254, 0x7fffffffULL, 0x80000000ULL, 0xbfffffffULL,
        0xfffffffdULL, 0xfffffffeULL, 0xffffffffULL, 0x100000000ULL,
        0x100000001ULL, 0x30000000007ULL, 0x8000000000000000ULL,
        0xfffffffffffffffeULL};
    int bad = 0;
    for (size_t b = 0; b < sizeof(bounds) / sizeof(bounds[0]); b++)
        for (int mode = 0; mode < 3; mode++) {
            word_mode = mode;
            const uint64_t seed = rng_state;
            uint64_t got[64];
            word_draws = 0;
            for (int t = 0; t < 64; t++)
                got[t] = bounded_lemire(&stub_rng, bounds[b]);
            const uint64_t used = word_draws;
            rng_state = seed;
            word_draws = 0;
            for (int t = 0; t < 64 && !bad; t++) {
                const uint64_t want = oracle_lemire(bounds[b]);
                bad = got[t] != want || got[t] > bounds[b];
            }
            bad = bad || used != word_draws;
            if (bad) {
                fprintf(stderr, "FAIL lemire bound=%llu mode=%d\n",
                        (unsigned long long)bounds[b], mode);
                return 1;
            }
        }
    return 0;
}

/* repro_smallest_last on one keyed graph, checked on the oracle CSR:
 * order must be a permutation that deletes a vertex of minimum
 * remaining degree at every step, out_degree[v] must be the remaining
 * degree v was deleted at, and the return value the largest degree so
 * deleted. Returns 0 when that holds. */
static int smallest(const char *name, int64_t n, int64_t m,
                    const int64_t *keys, const int64_t *indptr,
                    const int64_t *indices, const int64_t *deg)
{
    int64_t *order = malloc((size_t)(n + 1) * sizeof(int64_t));
    int64_t *out_degree = malloc((size_t)(n + 1) * sizeof(int64_t));
    uint8_t *gone = calloc((size_t)n + 1, 1);
    const int64_t k = repro_smallest_last(n, m, keys, deg, order,
                                          out_degree);
    int bad = k < 0;
    int64_t worst = 0;
    for (int64_t t = 0; !bad && t < n; t++) {
        const int64_t v = order[t];
        bad = v < 0 || v >= n || gone[v];
        int64_t low = INT64_MAX, at_v = 0;
        for (int64_t u = 0; !bad && u < n; u++) {
            if (gone[u])
                continue;
            int64_t d = 0;
            for (int64_t i = indptr[u]; i < indptr[u + 1]; i++)
                d += !gone[indices[i]];
            if (d < low)
                low = d;
            if (u == v)
                at_v = d;
        }
        bad = bad || at_v != low || out_degree[v] != at_v;
        if (at_v > worst)
            worst = at_v;
        if (!bad)
            gone[v] = 1;
    }
    bad = bad || k != worst;
    if (bad)
        fprintf(stderr, "FAIL smallest-last %s n=%lld k=%lld\n", name,
                (long long)n, (long long)k);
    free(order);
    free(out_degree);
    free(gone);
    return bad;
}

/* 1 when v is in row r of the CSR (ptr, idx) */
static int in_row(const int64_t *ptr, const uint32_t *idx, int64_t r,
                  uint32_t v)
{
    for (int64_t i = ptr[r]; i < ptr[r + 1]; i++)
        if (idx[i] == v)
            return 1;
    return 0;
}

/* 1 when triangle q comes strictly before r in (z, y, x) order */
static int before(const uint32_t *q, const uint32_t *r)
{
    if (q[2] != r[2])
        return q[2] < r[2];
    if (q[1] != r[1])
        return q[1] < r[1];
    return q[0] < r[0];
}

/* The forward kernels on one oriented CSR whose out rows hold smaller
 * labels, ascending. The count and emit passes of repro_forward run
 * over 1 and 3 blocks at 1 and 2 threads, and repro_forward_stream at
 * the smallest legal capacity, the maximum out-degree, so chunks end
 * mid-row. Checks that every count and op total agrees with a brute
 * count, that every row is a triangle x < y < z of the CSR, listed in
 * strictly increasing (z, y, x) order, that every emit pass writes the
 * same bytes, that the stream concatenates to them and that the
 * stream's mark array is left zero. Returns 0 when all of it holds. */
static int forward(const char *name, int64_t n, const int64_t *ptr,
                   const uint32_t *idx)
{
    int64_t brute = 0, brute_ops = 0, cap = 1;
    for (int64_t z = 0; z < n; z++) {
        if (ptr[z + 1] - ptr[z] > cap)
            cap = ptr[z + 1] - ptr[z];
        for (int64_t j = ptr[z]; j < ptr[z + 1]; j++) {
            brute_ops += ptr[idx[j] + 1] - ptr[idx[j]];
            for (int64_t i = ptr[z]; i < j; i++)
                brute += in_row(ptr, idx, idx[j], idx[i]);
        }
    }
    uint32_t *ref = malloc((size_t)(3 * brute + 3) * sizeof(uint32_t));
    uint32_t *buf = malloc((size_t)(3 * brute + 3) * sizeof(uint32_t));
    uint32_t *chunk = malloc((size_t)(3 * cap) * sizeof(uint32_t));
    uint8_t *mark = calloc((size_t)n + 1, 1);
    int bad = 0;
    for (int64_t nblocks = 1; !bad && nblocks <= 3; nblocks += 2)
        for (int threads = 1; !bad && threads <= 2; threads++) {
            int64_t starts[4], counts[3], ops[3], offsets[3];
            for (int64_t b = 0; b <= nblocks; b++)
                starts[b] = n * b / nblocks;
            int64_t total = 0, total_ops = 0;
            bad = repro_forward(ptr, idx, starts, nblocks, n, threads, 0, 0,
                                counts, ops) != 0;
            for (int64_t b = 0; !bad && b < nblocks; b++) {
                offsets[b] = total;
                total += counts[b];
                total_ops += ops[b];
            }
            bad = bad || total != brute || total_ops != brute_ops
                  || repro_forward(ptr, idx, starts, nblocks, n, threads,
                                   offsets, nblocks == 1 ? ref : buf,
                                   counts, ops) != 0;
            if (!bad && nblocks > 1)
                bad = memcmp(ref, buf, (size_t)(3 * brute)
                                           * sizeof(uint32_t)) != 0;
        }
    for (int64_t t = 0; !bad && t < brute; t++) {
        const uint32_t *r = ref + 3 * t;
        bad = !(r[0] < r[1] && r[1] < r[2] && r[2] < n)
              || !in_row(ptr, idx, r[2], r[1])
              || !in_row(ptr, idx, r[2], r[0])
              || !in_row(ptr, idx, r[1], r[0])
              || (t > 0 && !before(r - 3, r));
    }
    int64_t cursor[2] = {0, 0}, got = 0, stream_ops = 0;
    while (!bad && cursor[0] < n) {
        const int64_t w = repro_forward_stream(ptr, idx, n, cursor, chunk,
                                               cap, &stream_ops, mark);
        bad = w < 0 || w > cap || got + w > brute
              || (w == 0 && cursor[0] < n);
        if (!bad && w)
            bad = memcmp(ref + 3 * got, chunk,
                         (size_t)(3 * w) * sizeof(uint32_t)) != 0;
        got += w;
    }
    bad = bad || got != brute || stream_ops != brute_ops;
    for (int64_t v = 0; !bad && v < n; v++)
        bad = mark[v] != 0;
    if (bad)
        fprintf(stderr, "FAIL forward %s n=%lld triangles=%lld\n", name,
                (long long)n, (long long)brute);
    free(ref);
    free(buf);
    free(chunk);
    free(mark);
    return bad;
}

/* The oriented CSR of one keyed graph under one label map. expect is 0
 * for well-formed input, else the error code it must return. Checks
 * that every row is strictly ascending and in range, that out row s
 * holds only heads below s and in row d only tails above d, that out
 * and in are transposes of each other, and that every oriented edge is
 * an edge of the keys. Returns 0 when the result holds. */
static int oriented(const char *name, int64_t n, int64_t m,
                    const int64_t *keys, const int64_t *labels,
                    int64_t expect)
{
    int64_t *out_ptr = malloc((size_t)(n + 1) * sizeof(int64_t));
    int64_t *in_ptr = malloc((size_t)(n + 1) * sizeof(int64_t));
    uint32_t *out_idx = malloc((size_t)(m + 1) * sizeof(uint32_t));
    uint32_t *in_idx = malloc((size_t)(m + 1) * sizeof(uint32_t));
    int64_t *inverse = malloc((size_t)(n + 1) * sizeof(int64_t));
    const int64_t got = repro_oriented_csr(n, m, keys, labels, out_ptr,
                                           out_idx, in_ptr, in_idx);
    int bad = got != expect;
    if (!bad && !expect) {
        for (int64_t v = 0; v < n; v++)
            inverse[labels[v]] = v;
        bad = out_ptr[0] != 0 || in_ptr[0] != 0 || out_ptr[n] != m
              || in_ptr[n] != m;
    }
    /* rows in ascending order, so every in row d < s is checked before
     * out row s looks into it */
    for (int64_t s = 0; !bad && !expect && s < n; s++) {
        bad = out_ptr[s + 1] < out_ptr[s] || in_ptr[s + 1] < in_ptr[s];
        for (int64_t i = in_ptr[s]; !bad && i < in_ptr[s + 1]; i++)
            bad = in_idx[i] <= s || in_idx[i] >= n
                  || (i > in_ptr[s] && in_idx[i] <= in_idx[i - 1]);
        for (int64_t i = out_ptr[s]; !bad && i < out_ptr[s + 1]; i++) {
            const int64_t d = out_idx[i];
            if (d >= s || (i > out_ptr[s] && d <= out_idx[i - 1])) {
                bad = 1;
                break;
            }
            int found = 0;
            for (int64_t j = in_ptr[d]; j < in_ptr[d + 1]; j++)
                found |= in_idx[j] == s;
            const int64_t a = inverse[s], b = inverse[d];
            const int64_t key = a < b ? a * n + b : b * n + a;
            bad = !found || !bsearch(&key, keys, (size_t)m,
                                     sizeof(int64_t), by_value);
        }
    }
    if (!bad && !expect)
        bad = forward(name, n, out_ptr, out_idx);
    if (bad)
        fprintf(stderr, "FAIL oriented %s n=%lld m=%lld got=%lld\n", name,
                (long long)n, (long long)m, (long long)got);
    free(out_ptr);
    free(in_ptr);
    free(out_idx);
    free(in_idx);
    free(inverse);
    return bad;
}

/* The oracle adjacency of well-formed keys, apart from the library:
 * count each vertex's neighbours, fill the rows, sort each with qsort.
 * Returns 0 when every row has the degree deg gives and is strictly
 * ascending, in range, free of v itself and symmetric. */
static int oracle_csr(int64_t n, int64_t m, const int64_t *keys,
                      const int64_t *deg, int64_t *indptr,
                      int64_t *indices)
{
    int64_t *fill = calloc((size_t)n + 1, sizeof(int64_t));
    for (int64_t e = 0; e < m; e++) {
        fill[keys[e] / n]++;
        fill[keys[e] % n]++;
    }
    int bad = 0;
    indptr[0] = 0;
    for (int64_t v = 0; v < n; v++) {
        bad |= fill[v] != deg[v];
        indptr[v + 1] = indptr[v] + fill[v];
        fill[v] = indptr[v];
    }
    for (int64_t e = 0; e < m; e++) {
        const int64_t lo = keys[e] / n, hi = keys[e] % n;
        indices[fill[lo]++] = hi;
        indices[fill[hi]++] = lo;
    }
    for (int64_t v = 0; v < n; v++)
        qsort(indices + indptr[v], (size_t)(indptr[v + 1] - indptr[v]),
              sizeof(int64_t), by_value);
    for (int64_t v = 0; !bad && v < n; v++)
        for (int64_t i = indptr[v]; !bad && i < indptr[v + 1]; i++) {
            const int64_t u = indices[i];
            bad = u < 0 || u >= n || u == v
                  || (i > indptr[v] && u <= indices[i - 1]);
            /* symmetric: v is in u's row */
            int found = 0;
            for (int64_t j = indptr[u]; !bad && j < indptr[u + 1]; j++)
                found |= indices[j] == v;
            bad |= !found;
        }
    free(fill);
    return bad;
}

/* The four key kernels on one keyed graph, the oriented CSR under the
 * identity, the reversed and a random label map. expect is 0 for
 * well-formed keys, else the error code all must return. Returns 0
 * when the result holds. */
static int keyed(const char *name, int64_t n, int64_t m,
                 const int64_t *keys, const int64_t *deg, int64_t expect)
{
    int64_t *indptr = malloc((size_t)(n + 1) * sizeof(int64_t));
    int64_t *indices = malloc((size_t)(2 * m + 1) * sizeof(int64_t));
    int64_t *labels = malloc((size_t)(3 * n + 1) * sizeof(int64_t));
    int64_t sums[6];
    for (int64_t v = 0; v < n; v++) {
        labels[v] = v;
        labels[n + v] = n - 1 - v;
        labels[2 * n + v] = v;
    }
    /* Fisher-Yates shuffle of the third map */
    for (int64_t v = n - 1; v > 0; v--) {
        const int64_t j = (int64_t)(uniform() * (double)(v + 1));
        const int64_t t = labels[2 * n + v];
        labels[2 * n + v] = labels[2 * n + j];
        labels[2 * n + j] = t;
    }
    int bad = 0;
    for (int k = 0; k < 3; k++)
        bad |= oriented(name, n, m, keys, labels + k * n, expect);
    const int64_t sum = repro_oriented_sums(n, m, keys, deg, 2, labels,
                                            sums);
    bad |= sum != expect;
    int64_t *order = malloc((size_t)(2 * n + 1) * sizeof(int64_t));
    if (expect)
        bad |= repro_smallest_last(n, m, keys, deg, order, order + n)
               != expect;
    free(order);
    /* adoption counts the degrees of well-formed keys and names a
     * fault (a positive code) in malformed ones */
    int64_t *adopted = malloc((size_t)(n + 1) * sizeof(int64_t));
    const int64_t fault = repro_adopt_keys(n, m, keys, adopted);
    bad |= expect ? fault <= 0 : fault != 0;
    for (int64_t v = 0; !bad && !expect && v < n; v++)
        bad = adopted[v] != deg[v];
    free(adopted);
    const int csr = !bad && !expect
                    && oracle_csr(n, m, keys, deg, indptr, indices);
    bad |= csr;
    if (!bad && !expect)
        bad = smallest(name, n, m, keys, indptr, indices, deg);
    /* under the identity map each edge points from its larger end, so
     * X[v] counts the neighbours below v; the reversed map swaps X, Y */
    int64_t t[3] = {0, 0, 0};
    for (int64_t v = 0; !bad && !expect && v < n; v++) {
        int64_t below = 0;
        for (int64_t i = indptr[v]; i < indptr[v + 1]; i++)
            below += indices[i] < v;
        const int64_t above = deg[v] - below;
        t[0] += below * (below - 1) / 2;
        t[1] += below * above;
        t[2] += above * (above - 1) / 2;
    }
    if (!bad && !expect)
        bad = sums[0] != t[0] || sums[1] != t[1] || sums[2] != t[2]
              || sums[3] != t[2] || sums[4] != t[1] || sums[5] != t[0];
    if (bad)
        fprintf(stderr, "FAIL keyed %s n=%lld m=%lld oracle=%d sums=%lld\n",
                name, (long long)n, (long long)m, csr, (long long)sum);
    free(indptr);
    free(indices);
    free(labels);
    return bad;
}

/* Random simple graph on n nodes, each pair an edge with probability
 * p, as sorted keys; then the well-formed check. */
static int keyed_random(int64_t n, double p)
{
    int64_t *deg = calloc((size_t)n + 1, sizeof(int64_t));
    int64_t *keys = malloc((size_t)(n * (n - 1) / 2 + 1) * sizeof(int64_t));
    int64_t m = 0;
    for (int64_t lo = 0; lo < n; lo++)
        for (int64_t hi = lo + 1; hi < n; hi++)
            if (uniform() < p) {
                keys[m++] = lo * n + hi;
                deg[lo]++;
                deg[hi]++;
            }
    const int bad = keyed("random", n, m, keys, deg, 0);
    free(deg);
    free(keys);
    return bad;
}

static int keyed_cases(void)
{
    int failures = 0;
    int64_t none = 0;
    failures += keyed("n0", 0, 0, &none, &none, 0);
    int64_t zeros[5] = {0, 0, 0, 0, 0};
    failures += keyed("m0", 5, 0, &none, zeros, 0);
    /* star on 6 nodes: hub 0 */
    int64_t star[5] = {1, 2, 3, 4, 5}, star_deg[6] = {5, 1, 1, 1, 1, 1};
    failures += keyed("star", 6, 5, star, star_deg, 0);
    /* the clique on 12 nodes: every triple is a triangle */
    int64_t clique[66], clique_deg[12], m = 0;
    for (int64_t lo = 0; lo < 12; lo++) {
        clique_deg[lo] = 11;
        for (int64_t hi = lo + 1; hi < 12; hi++)
            clique[m++] = lo * 12 + hi;
    }
    failures += keyed("clique", 12, 66, clique, clique_deg, 0);
    int64_t decreasing[5] = {1, 3, 2, 4, 5};
    failures += keyed("decreasing", 6, 5, decreasing, star_deg, -2);
    int64_t duplicate[5] = {1, 2, 2, 4, 5};
    failures += keyed("duplicate", 6, 5, duplicate, star_deg, -2);
    /* 0-1, 0-2 and the self-loop 3-3 (key 3 * 6 + 3) */
    int64_t loop[3] = {1, 2, 21}, loop_deg[6] = {2, 1, 1, 2, 0, 0};
    failures += keyed("self-loop", 6, 3, loop, loop_deg, -2);
    int64_t beyond[3] = {1, 2, 36}, beyond_deg[6] = {2, 1, 1, 0, 0, 2};
    failures += keyed("beyond-n2", 6, 3, beyond, beyond_deg, -2);
    /* a very negative key after row 0: checked before any subtraction */
    int64_t very_low[3] = {1, 6 + 2, INT64_MIN};
    int64_t ones[6] = {1, 1, 1, 1, 1, 1};
    failures += keyed("int64-min", 6, 3, very_low, ones, -2);
    /* adoption names the first fault in its check order: any
     * decrease or repeat, then the range, then lo >= hi */
    static const struct {
        const char *name;
        int64_t n, m, keys[3], fault;
    } faults[] = {
        {"decreasing", 6, 3, {1, 3, 2}, 1},
        {"duplicate", 6, 3, {1, 2, 2}, 1},
        {"int64-min", 6, 3, {1, 8, INT64_MIN}, 1},
        {"above-last", 6, 3, {1, INT64_MAX, 5}, 1},
        {"negative", 6, 3, {-1, 1, 2}, 2},
        {"beyond-n2", 6, 3, {1, 2, 36}, 2},
        {"self-loop", 6, 3, {1, 21, 22}, 3},
        {"lower-triangle", 6, 3, {1, 27, 29}, 3},
        {"loop-then-decrease", 6, 3, {14, 22, 19}, 1},
        {"negative-and-loop", 6, 3, {-5, 7, 22}, 2},
        {"loop-and-beyond", 6, 3, {1, 14, 40}, 2},
        {"keys-on-no-nodes", 0, 1, {0}, 2},
    };
    for (size_t f = 0; f < sizeof(faults) / sizeof(faults[0]); f++) {
        int64_t adopted[6] = {-7, -7, -7, -7, -7, -7};
        const int64_t got = repro_adopt_keys(faults[f].n, faults[f].m,
                                             faults[f].keys, adopted);
        if (got != faults[f].fault) {
            fprintf(stderr, "FAIL adopt %s got=%lld\n", faults[f].name,
                    (long long)got);
            failures++;
        }
    }
    /* degrees that are not the star's: counted at one end only (the
     * sum still 2m), one too many, a negative one, one at n; the rows
     * they imply are refused before any is overrun */
    static const int64_t wrong[4][6] = {{0, 5, 1, 1, 1, 2},
                                        {5, 1, 1, 1, 1, 2},
                                        {5, -1, 3, 1, 1, 1},
                                        {6, 1, 1, 1, 1, 0}};
    for (int w = 0; w < 4; w++) {
        int64_t order[6] = {-7, -7, -7, -7, -7, -7};
        int64_t out_degree[6] = {-7, -7, -7, -7, -7, -7};
        if (repro_smallest_last(6, 5, star, wrong[w], order, out_degree)
                != -4) {
            fprintf(stderr, "FAIL smallest-last degrees %d\n", w);
            failures++;
        }
    }
    /* a label outside [0, n) */
    int64_t low[6] = {0, 1, 2, -1, 4, 5}, high[6] = {0, 1, 2, 6, 4, 5};
    failures += oriented("label-1", 6, 5, star, low, -3);
    failures += oriented("label-n", 6, 5, star, high, -3);
    for (int64_t n = 1; n <= 200; n = n * 3 + 1)
        for (int k = 0; k < 3; k++)
            failures += keyed_random(n, 0.05 + 0.3 * k);
    /* keys on no nodes, and an n whose keys overflow int64: rejected
     * before any array is read */
    int64_t one = 1, out = -7;
    if (repro_oriented_sums(0, 1, &one, &none, 1, &none, &out) != -2
            || repro_oriented_sums(3037000500LL, 0, &none, &none, 1,
                                   &none, &out) != -2
            || repro_oriented_csr(0, 1, &one, &none, &out, NULL, &out,
                                  NULL) != -2
            || repro_oriented_csr(3037000500LL, 0, &none, &none, &out,
                                  NULL, &out, NULL) != -2
            || repro_adopt_keys(3037000500LL, 0, &none, &out) != -2
            || repro_smallest_last(0, 1, &one, &none, &out, &out) != -2
            || repro_smallest_last(-1, 0, &none, &none, &out, &out) != -2
            || repro_smallest_last(2147483648LL, 0, &none, &none, &out,
                                   &out) != -3
            || out != -7) {
        fprintf(stderr, "FAIL keyed guards\n");
        failures++;
    }
    return failures;
}

static void even_sum(int64_t n, int64_t *deg)
{
    int64_t sum = 0, top = 0;
    for (int64_t v = 0; v < n; v++) {
        sum += deg[v];
        if (deg[v] > deg[top])
            top = v;
    }
    if (sum % 2)
        deg[top]--;
}

int main(void)
{
    static const int64_t sizes[] = {1, 2, 7, 8, 9, 63, 64, 65,
                                    511, 512, 513};
    int failures = 0;
    for (size_t s = 0; s < sizeof(sizes) / sizeof(sizes[0]); s++) {
        const int64_t n = sizes[s];
        int64_t *deg = malloc((size_t)n * sizeof(int64_t));
        for (int mode = 0; mode < 3; mode++) {
            for (int64_t v = 0; v < n; v++)
                deg[v] = v == 0 ? n - 1 : 1;
            failures += wire("star", n, deg, mode);
            for (int64_t d = 1; d <= 6; d++) {
                for (int64_t v = 0; v < n; v++)
                    deg[v] = d < n ? d : n - 1;
                even_sum(n, deg);
                failures += wire("regular", n, deg, mode);
            }
            for (int64_t v = 0; v < n; v++) {
                /* Pareto tail, alpha = 1, capped at n - 1 */
                const double d = 2.0 / (1.0 - uniform());
                deg[v] = d < n ? d : n - 1;
            }
            even_sum(n, deg);
            failures += wire("pareto", n, deg, mode);
            failures += configuration("pareto", n, deg, mode);
            for (int64_t v = 0; v < n; v++)
                deg[v] = v == 0 ? n - 1 : 1;
            even_sum(n, deg);
            failures += configuration("star", n, deg, mode);
            for (int64_t v = 0; v < n; v++)
                deg[v] = n - 1;
            even_sum(n, deg);
            failures += configuration("complete", n, deg, mode);
            for (int64_t v = 0; v < n; v++)
                deg[v] = 0;
            failures += configuration("empty", n, deg, mode);
        }
        free(deg);
    }
    /* stub counts on both sides of 2^k */
    for (int k = 4; k <= 12; k += 4)
        for (int64_t off = -2; off <= 2; off += 2) {
            const int64_t stubs = ((int64_t)1 << k) + off, n = 70;
            int64_t deg[70];
            for (int64_t v = 0; v < n; v++)
                deg[v] = stubs / n + (v < stubs % n);
            for (int mode = 0; mode < 3; mode++)
                failures += configuration("2^k", n, deg, mode);
        }
    /* n >= 2^32 is rejected before any array is read */
    int64_t one = 1, key = -7;
    if (repro_residual_wire((int64_t)1 << 32, &one, &one, &stub_rng, &key)
            != -3 || one != 1 || key != -7) {
        fprintf(stderr, "FAIL n >= 2^32 guard\n");
        failures++;
    }
    /* n >= 2^32, a degree beyond 32 bits or a negative one: refused
     * before any draw, allocation or write */
    int64_t wide = (int64_t)1 << 32, negative[2] = {-2, 2};
    word_draws = 0;
    if (repro_configuration_wire((int64_t)1 << 32, &one, &stub_rng, &key)
            != -3
            || repro_configuration_wire(1, &wide, &stub_rng, &key) != -3
            || repro_configuration_wire(2, negative, &stub_rng, &key) != -3
            || key != -7 || word_draws != 0) {
        fprintf(stderr, "FAIL configuration guards\n");
        failures++;
    }
    failures += lemire_bounds();
    failures += keyed_cases();
    return failures != 0;
}
"""


def _build(tmp_path, name, source):
    """Compile ``source`` with the sanitizer flags; the executable's
    path, or the compiler's stderr on failure."""
    src = tmp_path / f"{name}.c"
    exe = tmp_path / name
    src.write_text(source)
    proc = subprocess.run([COMPILER, *FLAGS, "-o", str(exe), str(src)],
                          capture_output=True, text=True, timeout=300)
    return (exe, None) if proc.returncode == 0 else (None, proc.stderr)


@pytest.mark.skipif(COMPILER is None, reason="no C compiler on PATH")
def test_wiring_runs_clean_under_sanitizers(tmp_path):
    probe, __ = _build(tmp_path, "probe", "int main(void){return 0;}\n")
    if probe is None or subprocess.run([str(probe)],
                                       timeout=60).returncode != 0:
        pytest.skip("the compiler cannot build and run a sanitized "
                    "program here")
    exe, err = _build(tmp_path, "wire", native._C_SOURCE + MAIN)
    assert exe is not None, err
    run = subprocess.run([str(exe)], capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 0, run.stderr[-4000:]
