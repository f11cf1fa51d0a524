"""The residual wiring kernel under AddressSanitizer and UBSan.

``native._C_SOURCE`` plus the small C ``main`` below compile into one
standalone executable with ``-fsanitize=address,undefined
-fno-sanitize-recover=all``, so no ``LD_PRELOAD`` into the Python
process and no build-flag switch in the library is needed. The
``main`` wires stars, regular sequences and heavy-tailed sequences at
sizes on both sides of each tree-level boundary (8, 64 and 512
leaves), with random uniforms and with the extreme draws ``0`` and
``1 - 2**-53``. It checks each result -- ordered pairs in range, no
duplicate, every placed stub accounted for -- and the ``n >= 2**32``
rejection, and exits 0 only when all of it holds. Any sanitizer report
aborts the run with a non-zero status.

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

/* Wire deg[0..n) with the given draw mode (0 random, 1 all zero,
 * 2 all 1 - 2^-53) and check the result; returns 0 when it holds. */
static int wire(const char *name, int64_t n, const int64_t *deg, int mode)
{
    int64_t sum = 0;
    for (int64_t v = 0; v < n; v++)
        sum += deg[v];
    const int64_t nu = sum / 2;
    int64_t *order = malloc((size_t)(n + 1) * sizeof(int64_t));
    int64_t *residual = malloc((size_t)(n + 1) * sizeof(int64_t));
    int64_t *placed_at = calloc((size_t)(n + 1), sizeof(int64_t));
    double *u = malloc((size_t)(nu + 1) * sizeof(double));
    int64_t *edges = malloc((size_t)(2 * nu + 2) * sizeof(int64_t));
    int64_t *keys = malloc((size_t)(nu + 1) * sizeof(int64_t));
    for (int64_t v = 0; v < n; v++) {
        order[v] = v;
        residual[v] = deg[v];
    }
    sort_deg = deg;
    qsort(order, (size_t)n, sizeof(int64_t), by_degree_desc);
    for (int64_t k = 0; k < nu; k++)
        u[k] = mode == 0 ? uniform() : mode == 1 ? 0.0 : 1.0 - 0x1.0p-53;
    const int64_t used = repro_residual_wire(n, order, residual, u, nu,
                                             edges);
    int bad = used < 0 || used > nu;
    for (int64_t k = 0; !bad && k < used; k++) {
        const int64_t a = edges[2 * k], b = edges[2 * k + 1];
        bad = !(0 <= a && a < b && b < n);
        if (!bad) {
            keys[k] = a * n + b;
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
    free(u);
    free(edges);
    free(keys);
    return bad;
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
        }
        free(deg);
    }
    /* n >= 2^32 is rejected before any array is read */
    int64_t one = 1, edge[2] = {-7, -7};
    double u0 = 0.0;
    if (repro_residual_wire((int64_t)1 << 32, &one, &one, &u0, 1, edge)
            != -3 || one != 1 || edge[0] != -7) {
        fprintf(stderr, "FAIL n >= 2^32 guard\n");
        failures++;
    }
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
