"""Side-by-side engine comparison (python vs. native) and the
host's speed-ratio calibration.

One measurement routine shared by ``benchmarks/bench_lister_throughput``
and ``repro bench --native-compare``: for each method it times the
count-only workload on both engines of
:func:`repro.listing.list_triangles` -- the instrumented Python
reference and the compiled kernel -- plus one drained native
triangle stream (the listing the paper's cost model prices). Results
come back as a rendered table and a JSON-ready dict whose
``"methods"`` mapping feeds :func:`repro.obs.report.record_cells`:
``*_ns_per_edge`` entries compare as wall-clock (skipped by
``--no-time``), ``ops``/``triangles`` as deterministic values, and
``speedup_*`` ratios are excluded from baseline comparison by name.
"""

from __future__ import annotations

import collections
import json
import os
import pathlib
import time
from functools import lru_cache

from repro.core.costs import total_ops
from repro.engine import native
from repro.listing.api import list_triangles

#: Default comparison set: the paper's four fundamental methods plus
#: one lookup iterator per probe direction.
DEFAULT_METHODS = ("T1", "T2", "E1", "E4", "L1", "L3")

#: Environment override for the rolling calibration store path.
CALIBRATION_FILE_ENV = "REPRO_CALIBRATION_FILE"

#: Default store, versioned alongside the perf baselines.
DEFAULT_CALIBRATION_PATH = (pathlib.Path("benchmarks") / "baselines"
                            / "speed_ratio.json")

#: Stored measurements older than this are stale.
DEFAULT_CALIBRATION_MAX_AGE_S = 30 * 24 * 3600.0

#: Rolling-window cap; oldest entries are trimmed.
MAX_STORE_ENTRIES = 32


def _timed(fn, repeats: int = 1):
    """Best-of-``repeats`` wall-clock of ``fn`` and its last result
    (single-shot timings at small ``n`` are dominated by scheduler
    noise, which would make the bench's speedup gates flaky)."""
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def measure_speed_ratio(oriented=None, *, n: int = 4000, seed: int = 0,
                        hash_method: str = "T1", sei_method: str = "E1",
                        repeats: int = 3) -> float:
    """Measure the section-2.4 ``speed_ratio`` on *this* host.

    Table 3's 94.8x is the per-operation advantage of sequential
    scanning (SEI) over hash-based lookups on the authors' SIMD
    hardware. This micro-calibration measures the same quantity for
    this library: per-op wall time of the best hash-family method
    divided by per-op wall time of the best SEI method, each timed
    best-of-``repeats`` on one oriented graph.

    ``oriented`` defaults to a synthetic heavy-tailed graph
    (``Pareto(1.7)``, descending orientation) so callers can calibrate
    without supplying one. The result feeds
    :func:`repro.core.decision.resolve_speed_ratio` (and through it the
    planner) via ``speed_ratio="calibrated"``.

    It times the Python reference, the one engine that runs each
    method's own loop. The native kernel does not depend on the method
    (every method is the same forward pass there), so a ratio timed on
    it would only be ``ops(sei_method) / ops(hash_method)`` and say
    nothing about the hardware.

    Note the honest outcome on interpreted runtimes: the pure-Python
    reference engine has no SIMD scanning advantage, so it measures a
    ratio near 1 -- flipping the decision rule toward hash methods on
    graphs where the paper's hardware favored SEI.
    """
    if oriented is None:
        import numpy as np

        from repro.distributions.pareto import DiscretePareto
        from repro.distributions.sampling import sample_degree_sequence
        from repro.distributions.truncation import root_truncation
        from repro.graphs.generators import generate_graph
        from repro.orientations.permutations import DescendingDegree
        from repro.orientations.relabel import orient

        rng = np.random.default_rng(seed)
        dist = DiscretePareto(1.7, 21.0).truncate(root_truncation(n))
        degrees = sample_degree_sequence(dist, n, rng)
        oriented = orient(generate_graph(degrees, rng),
                          DescendingDegree())
    oriented.edge_key_set()  # warm the membership set

    def run(method):
        return list_triangles(oriented, method, collect=False,
                              engine="python")

    per_op = {}
    for method in (hash_method, sei_method):
        run(method)  # one warm-up pass (cache builds, allocator churn)
        __, elapsed = _timed(lambda m=method: run(m), repeats)
        ops = total_ops(method, oriented.out_degrees, oriented.in_degrees)
        per_op[method] = elapsed / max(ops, 1)
    ratio = per_op[hash_method] / max(per_op[sei_method], 1e-12)
    return max(ratio, 1e-6)


def calibration_path(path=None) -> pathlib.Path:
    """Resolve the store: explicit arg > env > versioned default."""
    if path is not None:
        return pathlib.Path(path)
    env = os.environ.get(CALIBRATION_FILE_ENV, "").strip()
    return pathlib.Path(env) if env else DEFAULT_CALIBRATION_PATH


def host_fingerprint() -> str:
    """Coarse host identity guarding stored ratios against reuse on a
    different machine class (a ratio measured on an AVX-512 box must
    not price picks on an ARM runner)."""
    import platform
    return (f"{os.cpu_count()}-{platform.machine()}-"
            f"py{'.'.join(platform.python_version_tuple()[:2])}")


def load_calibration_store(path=None) -> dict:
    """Parse the store; missing or corrupt files degrade to empty.

    Shape: ``{"version": 1, "entries": [{engine, ratio, ts, host,
    host_meta, n, seed}, ...]}`` -- newest entries last;
    :func:`store_calibration` writes ``engine`` as ``"python"``.
    """
    store_path = calibration_path(path)
    empty = {"version": 1, "entries": []}
    if not store_path.exists():
        return empty
    try:
        data = json.loads(store_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return empty
    if not isinstance(data, dict) or \
            not isinstance(data.get("entries"), list):
        return empty
    data.setdefault("version", 1)
    return data


def store_calibration(ratio: float, path=None, *, n: int = 4000,
                      seed: int = 0,
                      now: float | None = None) -> pathlib.Path:
    """Append one measured ratio to the rolling store (atomic write).

    Keeps the newest :data:`MAX_STORE_ENTRIES`, stamps the
    host fingerprint + full host metadata, and replaces the file via a
    same-directory temp rename so a concurrent reader never sees a
    torn store.
    """
    from repro.obs.records import host_meta
    store_path = calibration_path(path)
    store = load_calibration_store(store_path)
    store["entries"].append({
        "engine": "python",
        "ratio": float(ratio),
        "ts": float(now if now is not None else time.time()),
        "host": host_fingerprint(),
        "host_meta": host_meta(),
        "n": int(n),
        "seed": int(seed),
    })
    # rolling window: the newest MAX_STORE_ENTRIES survive
    store["entries"].sort(key=lambda e: e.get("ts", 0.0))
    store["entries"] = store["entries"][-MAX_STORE_ENTRIES:]
    store_path.parent.mkdir(parents=True, exist_ok=True)
    tmp = store_path.with_suffix(store_path.suffix + ".tmp")
    tmp.write_text(json.dumps(store, indent=2) + "\n",
                   encoding="utf-8")
    os.replace(tmp, store_path)
    return store_path


def stored_speed_ratio(path=None, max_age_s: float | None = None,
                       now: float | None = None) -> float | None:
    """The store's answer for this host, or ``None``.

    Median of the fresh, host-matching entries -- median because the
    rolling window absorbs one noisy CI measurement without jerking
    every subsequent plan. Entries from other hosts, and entries whose
    ``engine`` is not ``"python"`` (stores written before the ratio was
    always timed on the Python reference may hold ``"native"`` ones),
    are ignored outright; when matching entries exist but
    all exceed ``max_age_s`` (default
    :data:`DEFAULT_CALIBRATION_MAX_AGE_S`), the store reports stale: a
    ``planner.calibration_stale`` counter ticks and ``None`` is
    returned so the caller falls back to a fresh measurement.
    """
    if max_age_s is None:
        max_age_s = DEFAULT_CALIBRATION_MAX_AGE_S
    if now is None:
        now = time.time()
    host = host_fingerprint()
    matching = [e for e in load_calibration_store(path)["entries"]
                if e.get("engine", "python") == "python"
                and e.get("host") == host
                and isinstance(e.get("ratio"), (int, float))
                and e["ratio"] > 0]
    if not matching:
        return None
    fresh = [e for e in matching
             if now - float(e.get("ts", 0.0)) <= max_age_s]
    if not fresh:
        from repro.obs import metrics as _metrics
        _metrics.inc("planner.calibration_stale")
        return None
    ratios = sorted(float(e["ratio"]) for e in fresh)
    mid = len(ratios) // 2
    if len(ratios) % 2:
        return ratios[mid]
    return 0.5 * (ratios[mid - 1] + ratios[mid])


@lru_cache(maxsize=8)
def calibrated_speed_ratio(n: int = 4000, seed: int = 0) -> float:
    """The ``speed_ratio="calibrated"`` backend, store-first, read-only.

    Consults the rolling calibration store before burning wall time on
    a fresh micro-benchmark: a fresh host-matching measurement history
    answers immediately (``planner.calibrations_from_store``); a cold
    or stale store falls through to :func:`measure_speed_ratio` on the
    default synthetic graph (``planner.calibrations``). The store is
    never written here; ``repro audit calibration --measure --record``
    is its one write path. Per-process cached either way.
    """
    from repro.obs import metrics as _metrics

    stored = stored_speed_ratio()
    if stored is not None:
        _metrics.inc("planner.calibrations_from_store")
        return stored
    _metrics.inc("planner.calibrations")
    return measure_speed_ratio(n=n, seed=seed)


def native_compare(oriented, methods=DEFAULT_METHODS,
                   threads: int | None = None, repeats: int = 3):
    """Measure every (method, engine) pair on one oriented graph.

    Returns ``(text, data)``: a rendered side-by-side table and the
    machine-readable dict described in the module docstring. The
    python timing is one run; each native timing is the best of
    ``repeats``. ``speedup_native`` is python / native. The native
    columns are ``None``-valued (and rendered as ``--``) when the
    compiled kernel is unavailable; the comparison itself never
    requires it.
    """
    m = oriented.m or 1
    have_native = native.available()
    data = {
        "n": int(oriented.n),
        "m": int(oriented.m),
        "native": have_native,
        "native_status": native.status(),
        "methods": {},
    }

    native_list_ns = None
    if have_native:
        # warm the block decomposition outside the timed region, then
        # time one drained stream (method-independent, one thread)
        native.count_triangles(oriented, threads=threads)
        data["native_threads"] = native.last_stats()["threads"]
        __, elapsed = _timed(
            lambda: collections.deque(native.stream_triangles(oriented),
                                      maxlen=0),
            repeats)
        native_list_ns = elapsed / m * 1e9
    data["native_list_ns_per_edge"] = native_list_ns

    header = (f"Engine throughput (n={oriented.n}, m={oriented.m}, "
              f"count-only; native={have_native}"
              + (f", threads={data.get('native_threads')}"
                 if have_native else "") + ")")
    lines = [header,
             f"{'method':>7} {'ops':>12} {'py ns/edge':>11} "
             f"{'nat ns/edge':>12} {'py/nat':>7}"]
    for method in methods:
        py, t_py = _timed(lambda: list_triangles(
            oriented, method, collect=False, engine="python"))
        py_ns = t_py / m * 1e9
        cell = {
            "ops": int(py.ops), "triangles": int(py.count),
            "python_ns_per_edge": py_ns,
            "native_ns_per_edge": None,
            "speedup_native": None,
        }
        nat_col, nat_speed = f"{'--':>12}", f"{'--':>7}"
        if have_native:
            nat, t_nat = _timed(lambda: list_triangles(
                oriented, method, collect=False, engine="native"),
                repeats)
            assert nat.count == py.count, method
            cell["native_ns_per_edge"] = t_nat / m * 1e9
            cell["speedup_native"] = (t_py / t_nat if t_nat
                                      else float("inf"))
            nat_col = f"{cell['native_ns_per_edge']:>12.1f}"
            nat_speed = f"{cell['speedup_native']:>6.1f}x"
        lines.append(f"{method:>7} {py.ops:>12} {py_ns:>11.1f} "
                     f"{nat_col} {nat_speed}")
        data["methods"][method] = cell
    if native_list_ns is not None:
        lines.append(f"{'(list)':>7} {'-':>12} {'-':>11} "
                     f"{native_list_ns:>12.1f} {'-':>7}")
    return "\n".join(lines), data
