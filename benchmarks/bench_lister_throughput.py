"""Implementation throughput of the listing engines.

Not a paper table -- an engineering companion to Table 3: how fast
this library's listers run per edge in this interpreter, on both
engines: the instrumented pure-Python reference and the compiled
native kernel of :mod:`repro.engine.native` (count-only, the
paper-scale workload; plus one drained native triangle stream).
pytest-benchmark times the individual methods; the summary test
measures every (method, engine) pair on one oriented graph, prints
side-by-side ns/edge columns,
and persists the numbers via :func:`_common.emit` as
``BENCH_lister_throughput.json`` -- both under ``benchmarks/results/``
and as a copy at the repo root (the tracked perf-trajectory location)
-- so future runs and ``repro report compare`` can diff engine
performance for regressions. ``repro bench --native-compare`` runs
the same comparison from the CLI (see
:mod:`repro.engine.benchmark`).

Scale: ``REPRO_BENCH_FULL=1`` runs the acceptance configuration
(``n = 10^5``); the default is a quick ``n = 3000`` pass. At both,
the engine as shipped (native) must be >= 10x over python on the four
fundamental methods.
"""

import pathlib
import shutil

import numpy as np
import pytest

from repro import DescendingDegree, DiscretePareto, orient
from repro.distributions import root_truncation
from repro.distributions.sampling import sample_degree_sequence
from repro.engine import native
from repro.engine.benchmark import native_compare
from repro.graphs.generators import generate_graph
from repro.listing import list_triangles

from _common import FULL, emit

N = 100_000 if FULL else 3000

#: The paper's four fundamental methods (section 2) plus one lookup
#: iterator per probe direction.
METHODS = ("T1", "T2", "E1", "E4", "L1", "L3")
FUNDAMENTAL = ("T1", "T2", "E1", "E4")

ENGINES = ["python",
           pytest.param("native",
                        marks=pytest.mark.skipif(
                            not native.available(),
                            reason="no C toolchain"))]


@pytest.fixture(scope="module")
def oriented():
    rng = np.random.default_rng(3)
    dist = DiscretePareto(1.7, 21.0).truncate(root_truncation(N))
    degrees = sample_degree_sequence(dist, N, rng)
    graph = generate_graph(degrees, rng)
    g = orient(graph, DescendingDegree())
    # warm every engine's caches (hash set / native block
    # decomposition)
    g.edge_key_set()
    if native.available():
        list_triangles(g, "T1", collect=False, engine="native")
    return g


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("method", FUNDAMENTAL)
def test_lister_throughput(benchmark, oriented, method, engine):
    result = benchmark.pedantic(
        lambda: list_triangles(oriented, method, collect=False,
                               engine=engine),
        rounds=3 if FULL else 2, iterations=1)
    assert result.count > 0


def test_throughput_summary(benchmark, oriented):
    # a quick-scale native round is ~1 ms, shorter than a scheduler
    # slice, so on a busy host a round can stall on one preempted
    # thread; nine rounds leave the native side a clean one
    text, data = benchmark.pedantic(
        lambda: native_compare(oriented, methods=METHODS, repeats=9),
        rounds=1, iterations=1)
    data["full_scale"] = FULL
    path = emit("BENCH_lister_throughput", text, config=data, data=data)
    # also publish the JSON sidecar at the repo root -- the tracked
    # perf-trajectory location future sessions diff against
    sidecar = path.with_suffix(".json")
    repo_root = pathlib.Path(__file__).resolve().parent.parent
    shutil.copyfile(sidecar, repo_root / sidecar.name)

    for method, cell in data["methods"].items():
        assert cell["python_ns_per_edge"] > 0
        if method not in FUNDAMENTAL \
                or cell.get("native_ns_per_edge") is None:
            continue
        # the end-to-end bar: python vs the engine as shipped (native)
        # stays >= 10x, at acceptance scale and on the quick pass
        assert cell["speedup_native"] >= 10.0, (method, cell)
