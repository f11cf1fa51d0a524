"""Numpy-engine equivalence against the instrumented Python listers.

The pure-Python loops are the ground truth; the vectorized engine must
return identical triangle sets, counts, ``ops``, and ``hash_inserts``
for every method under every relabeling family -- plus the degenerate
shapes (empty graph, star, clique). ``comparisons`` is intentionally
*not* compared for the E/L families: the Python merges count
early-exit comparisons, the engine reports the closed-form probe
component (see :mod:`repro.engine.kernels`).

The equivalence classes here pass ``use_native=False`` so the *pure*
NumPy kernels stay pinned against the ground truth even on hosts with
a C toolchain (where the default would route through the compiled
kernels -- those have their own suite in ``test_native_engine.py``).
"""

import numpy as np
import pytest

from repro import (
    AscendingDegree,
    ComplementaryRoundRobin,
    DescendingDegree,
    DiscretePareto,
    RoundRobin,
    UniformRandom,
    generate_graph,
    orient,
)
from repro.distributions import root_truncation
from repro.distributions.sampling import sample_degree_sequence
from repro.engine import NUMPY_METHODS, run_numpy
from repro.graphs.graph import Graph
from repro.listing.api import ALL_METHODS, count_triangles, list_triangles

ORDERINGS = {
    "ascending": AscendingDegree,
    "descending": DescendingDegree,
    "uniform": UniformRandom,
    "rr": RoundRobin,
    "crr": ComplementaryRoundRobin,
}


@pytest.fixture(scope="module")
def pareto_graph():
    n = 700
    rng = np.random.default_rng(7)
    dist = DiscretePareto(1.7, 21.0).truncate(root_truncation(n))
    degrees = sample_degree_sequence(dist, n, rng)
    return generate_graph(degrees, rng)


@pytest.fixture(scope="module", params=sorted(ORDERINGS))
def oriented(request, pareto_graph):
    return orient(pareto_graph, ORDERINGS[request.param](),
                  rng=np.random.default_rng(11))


class TestEngineEquivalence:
    def test_covers_all_methods(self):
        assert set(NUMPY_METHODS) == set(ALL_METHODS)

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_identical_results(self, oriented, method):
        py = list_triangles(oriented, method, engine="python")
        np_list = run_numpy(oriented, method, collect=True,
                            use_native=False)
        np_count = run_numpy(oriented, method, collect=False,
                             use_native=False)
        assert py.count == np_list.count == np_count.count
        assert py.ops == np_list.ops == np_count.ops
        assert py.hash_inserts == np_list.hash_inserts
        assert set(py.triangles) == set(np_list.triangles)
        assert len(np_list.triangles) == np_list.count
        assert np_list.extra["engine"] == "numpy"

    @pytest.mark.parametrize("method", ("T1", "E1", "E4", "L5"))
    def test_triangles_well_ordered(self, oriented, method):
        result = run_numpy(oriented, method, collect=True)
        for x, y, z in result.triangles:
            assert x < y < z

    def test_numpy_engine_deterministic(self, oriented):
        a = run_numpy(oriented, "T2", collect=True, use_native=False)
        b = run_numpy(oriented, "T2", collect=True, use_native=False)
        assert a.triangles == b.triangles
        assert a.count == b.count


class TestEdgeCases:
    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_empty_graph(self, method):
        g = orient(Graph(5, []), DescendingDegree())
        py = list_triangles(g, method, engine="python")
        np_res = run_numpy(g, method, collect=True)
        assert py.count == np_res.count == 0
        assert np_res.triangles == []
        assert py.ops == np_res.ops == 0

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_star(self, method):
        g = orient(Graph(6, [(0, i) for i in range(1, 6)]),
                   DescendingDegree())
        py = list_triangles(g, method, engine="python")
        np_res = run_numpy(g, method, collect=True)
        assert py.count == np_res.count == 0
        assert py.ops == np_res.ops

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_clique(self, method):
        edges = [(i, j) for i in range(6) for j in range(i + 1, 6)]
        g = orient(Graph(6, edges), DescendingDegree())
        py = list_triangles(g, method, engine="python")
        np_res = run_numpy(g, method, collect=True)
        assert py.count == np_res.count == 20  # C(6,3)
        assert set(py.triangles) == set(np_res.triangles)
        assert py.ops == np_res.ops


SHAPES = {
    "empty": Graph(5, []),
    "star": Graph(6, [(0, i) for i in range(1, 6)]),
    "clique": Graph(6, [(i, j) for i in range(6) for j in range(i + 1, 6)]),
}


@pytest.fixture(scope="module")
def references(pareto_graph):
    """Per shape: the oriented graph and its python result per method."""
    refs = {}
    for name, graph in {"pareto": pareto_graph, **SHAPES}.items():
        g = orient(graph, DescendingDegree())
        refs[name] = (g, {m: list_triangles(g, m, engine="python")
                          for m in ALL_METHODS})
    return refs


class TestDispatch:
    @pytest.mark.parametrize("collect", [True, False],
                             ids=["collect", "count"])
    @pytest.mark.parametrize("engine", ["python", "numpy", "native",
                                        "auto"])
    def test_engine_runs_what_it_names(self, references, engine,
                                       collect):
        from repro.engine import native
        if engine == "native" and not native.available():
            g, __ = references["pareto"]
            with pytest.raises(RuntimeError, match="native engine"):
                list_triangles(g, "T1", collect=collect, engine=engine)
            return
        expect_native = engine == "native" or (
            engine == "auto" and native.available())
        for name, (g, refs) in references.items():
            for method, ref in refs.items():
                result = list_triangles(g, method, collect=collect,
                                        engine=engine)
                case = (name, method)
                assert (result.extra.get("engine") == "native") is \
                    expect_native, case
                assert result.count == ref.count, case
                assert result.ops == ref.ops, case
                assert result.hash_inserts == ref.hash_inserts, case
                if collect:
                    assert set(result.triangles) == set(ref.triangles), \
                        case
                else:
                    assert result.triangles is None, case

    @pytest.mark.parametrize("collect", [True, False],
                             ids=["collect", "count"])
    def test_numpy_engine_never_reaches_native(self, oriented, collect,
                                               monkeypatch):
        from repro.engine import native

        def boom(*args, **kwargs):
            raise AssertionError("engine='numpy' called native")

        monkeypatch.setattr(native, "count_triangles", boom)
        monkeypatch.setattr(native, "list_triangles_array", boom)
        monkeypatch.setattr(native, "collect_triangles", boom)
        result = list_triangles(oriented, "T1", collect=collect,
                                engine="numpy")
        assert result.extra["engine"] == "numpy"
        assert result.count == count_triangles(oriented, "T1",
                                               engine="python")

    def test_calibration_times_numpy_not_native(self, monkeypatch):
        """The default speed-ratio calibration never runs native."""
        from repro.engine import native
        from repro.engine.benchmark import measure_speed_ratio

        def boom(*args, **kwargs):
            raise AssertionError("calibration called native")

        monkeypatch.setattr(native, "count_triangles", boom)
        monkeypatch.setattr(native, "list_triangles_array", boom)
        ratio = measure_speed_ratio(engine="numpy", n=300, repeats=1)
        assert np.isfinite(ratio) and ratio > 0.0

    def test_engine_argument(self, oriented):
        py = list_triangles(oriented, "T1", collect=False,
                            engine="python")
        np_res = list_triangles(oriented, "T1", collect=False,
                                engine="numpy")
        assert py.extra.get("engine") is None
        assert np_res.extra["engine"] == "numpy"
        assert py.count == np_res.count

    def test_auto_routes_count_only_to_numpy(self, oriented):
        from repro.engine import native
        result = list_triangles(oriented, "E1", collect=False)
        assert result.extra.get("engine") == (
            "native" if native.available() else "numpy")

    def test_auto_collect_follows_native_availability(self, oriented):
        """auto + collect: compiled kernels when present, else python."""
        from repro.engine import native
        result = list_triangles(oriented, "E1", collect=True)
        if native.available():
            assert result.extra.get("engine") == "native"
        else:
            assert result.extra.get("engine") is None

    def test_auto_collect_falls_back_to_python(self, oriented,
                                               monkeypatch):
        from repro.engine import native
        monkeypatch.setattr(native, "_lib", None)
        result = list_triangles(oriented, "E1", collect=True)
        assert result.extra.get("engine") is None
        py = list_triangles(oriented, "E1", collect=True,
                            engine="python")
        assert result.triangles == py.triangles

    def test_count_triangles_engine_param(self, oriented):
        assert (count_triangles(oriented, "T3", engine="python")
                == count_triangles(oriented, "T3", engine="numpy"))

    def test_unknown_engine_rejected(self, oriented):
        with pytest.raises(ValueError, match="engine"):
            list_triangles(oriented, "T1", engine="fortran")

    def test_unknown_method_rejected(self, oriented):
        with pytest.raises(ValueError, match="method"):
            run_numpy(oriented, "T9")

    def test_native_fallback_matches(self, oriented, monkeypatch):
        """The pure-NumPy count path (native gated off) still agrees."""
        from repro.engine import kernels, native
        monkeypatch.setattr(native, "_lib", None)
        assert not native.available()
        result = run_numpy(oriented, "T1", collect=False)
        assert result.extra["engine"] == "numpy"
        assert result.count == count_triangles(oriented, "T1",
                                               engine="python")
