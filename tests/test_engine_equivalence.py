"""Engine equivalence against the instrumented Python listers.

The pure-Python loops are the ground truth; :func:`run_numpy` (the
compiled kernel when it is available, else the Python reference) must
return identical triangle sets, counts, ``ops``, and ``hash_inserts``
for every method under every relabeling family -- plus the degenerate
shapes (empty graph, star, clique). ``comparisons`` is intentionally
*not* compared for the E/L families: the Python merges count
early-exit comparisons, the native engine reports the closed-form
probe component (see :mod:`repro.engine.kernels`). The Hypothesis
differential suite is ``test_engine_differential.py``.
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
from repro.core.methods import METHODS
from repro.engine import native, run_numpy
from repro.graphs.graph import Graph
from repro.listing.api import ALL_METHODS, count_triangles, list_triangles

#: ``extra["engine"]`` of a default ``run_numpy`` result on this host.
FAST_ENGINE = "native" if native.available() else None

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
        assert set(ALL_METHODS) == set(METHODS)

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_identical_results(self, oriented, method):
        py = list_triangles(oriented, method, engine="python")
        fast_list = run_numpy(oriented, method, collect=True)
        fast_count = run_numpy(oriented, method, collect=False)
        assert py.count == fast_list.count == fast_count.count
        assert py.ops == fast_list.ops == fast_count.ops
        assert py.hash_inserts == fast_list.hash_inserts \
            == fast_count.hash_inserts
        assert set(py.triangles) == set(fast_list.triangles)
        assert len(fast_list.triangles) == fast_list.count
        assert fast_list.extra.get("engine") == FAST_ENGINE

    @pytest.mark.parametrize("method", ("T1", "E1", "E4", "L5"))
    def test_triangles_well_ordered(self, oriented, method):
        result = run_numpy(oriented, method, collect=True)
        for x, y, z in result.triangles:
            assert x < y < z

    def test_numpy_engine_deterministic(self, oriented):
        """``run_numpy`` lists the same triangles in the same order on
        every call, with the kernel and without it."""
        for use_native in (False, None):
            a = run_numpy(oriented, "T2", collect=True,
                          use_native=use_native)
            b = run_numpy(oriented, "T2", collect=True,
                          use_native=use_native)
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
        g, __ = references["pareto"]
        if engine == "numpy":
            # "numpy" names no engine: it is rejected like any other
            with pytest.raises(ValueError, match="unknown engine"):
                list_triangles(g, "T1", collect=collect, engine=engine)
            return
        if engine == "native" and not native.available():
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
        """``run_numpy(use_native=False)`` and ``engine="python"`` run
        the Python reference without touching the compiled kernel."""

        def boom(*args, **kwargs):
            raise AssertionError("the Python reference called native")

        monkeypatch.setattr(native, "count_triangles", boom)
        monkeypatch.setattr(native, "collect_triangles", boom)
        ref = run_numpy(oriented, "T1", collect=collect, use_native=False)
        py = list_triangles(oriented, "T1", collect=collect,
                            engine="python")
        assert "engine" not in ref.extra and "engine" not in py.extra
        assert ref.count == py.count
        assert ref.triangles == py.triangles

    def test_calibration_times_python_not_native(self, monkeypatch):
        """The speed-ratio calibration never runs native: the
        kernel is one pass whatever the method, so only the Python
        reference times each method's own loop."""
        from repro.engine.benchmark import measure_speed_ratio

        def boom(*args, **kwargs):
            raise AssertionError("calibration called native")

        monkeypatch.setattr(native, "count_triangles", boom)
        ratio = measure_speed_ratio(n=300, repeats=1)
        assert np.isfinite(ratio) and ratio > 0.0

    def test_engine_argument(self, oriented):
        py = list_triangles(oriented, "T1", collect=False,
                            engine="python")
        auto = list_triangles(oriented, "T1", collect=False,
                              engine="auto")
        assert py.extra.get("engine") is None
        assert auto.extra.get("engine") == FAST_ENGINE
        assert py.count == auto.count

    def test_auto_routes_count_only_to_numpy(self, oriented):
        """auto + count: ``run_numpy``'s kernel when present, else
        python."""
        result = list_triangles(oriented, "E1", collect=False)
        assert result.extra.get("engine") == FAST_ENGINE

    def test_auto_collect_follows_native_availability(self, oriented):
        """auto + collect: compiled kernels when present, else python."""
        result = list_triangles(oriented, "E1", collect=True)
        assert result.extra.get("engine") == FAST_ENGINE

    def test_auto_collect_falls_back_to_python(self, oriented,
                                               monkeypatch):
        monkeypatch.setattr(native, "_lib", None)
        result = list_triangles(oriented, "E1", collect=True)
        assert result.extra.get("engine") is None
        py = list_triangles(oriented, "E1", collect=True,
                            engine="python")
        assert result.triangles == py.triangles

    def test_count_triangles_engine_param(self, oriented):
        assert (count_triangles(oriented, "T3", engine="python")
                == count_triangles(oriented, "T3", engine="auto"))

    def test_unknown_engine_rejected(self, oriented):
        with pytest.raises(ValueError, match="engine"):
            list_triangles(oriented, "T1", engine="fortran")

    def test_unknown_method_rejected(self, oriented):
        with pytest.raises(ValueError, match="method"):
            run_numpy(oriented, "T9")

    def test_native_fallback_matches(self, oriented, monkeypatch):
        """With the library gone, ``run_numpy`` returns the Python
        reference's result."""
        monkeypatch.setattr(native, "_lib", None)
        assert not native.available()
        result = run_numpy(oriented, "E4", collect=False)
        py = list_triangles(oriented, "E4", collect=False,
                            engine="python")
        assert "engine" not in result.extra
        assert (result.count, result.ops, result.comparisons,
                result.hash_inserts) == (py.count, py.ops,
                                         py.comparisons, py.hash_inserts)
