"""Engine-level telemetry: native counters, gauges and engine labels.

:func:`repro.engine.run_numpy` publishes ``engine.native.*`` counters
(runs, kernel ops, per-thread op tallies) once per compiled run when
the obs layer is enabled, plus an ``engine.native`` gauge reporting
whether the compiled kernel ran; :func:`repro.listing.list_triangles`
publishes a ``lister.engine.<label>`` counter naming the engine that
ran. These tests pin the contract: the counters are deterministic for
a fixed seed, consistent with the listing result, entirely absent
(zero cost) when obs is disabled, and absent from Python-reference
runs. Native tests skip where no C toolchain exists (or under
``REPRO_NATIVE=0``); the fallback tests run everywhere.
"""

import numpy as np
import pytest

from repro import DescendingDegree, DiscretePareto, obs, orient
from repro.distributions import root_truncation
from repro.distributions.sampling import sample_degree_sequence
from repro.engine import native, run_numpy
from repro.graphs.generators import generate_graph
from repro.listing import list_triangles

needs_native = pytest.mark.skipif(
    not native.available(), reason="no compiled kernel in this environment")


@pytest.fixture(autouse=True)
def clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


@pytest.fixture(scope="module")
def oriented():
    n = 600
    rng = np.random.default_rng(7)
    dist = DiscretePareto(1.7, 21.0).truncate(root_truncation(n))
    degrees = sample_degree_sequence(dist, n, rng)
    graph = generate_graph(degrees, rng)
    return orient(graph, DescendingDegree())


def engine_counters():
    return {k: v for k, v in obs.metrics.snapshot()["counters"].items()
            if k.startswith("engine.")}


class TestEngineCounters:
    @needs_native
    def test_consistent_with_result(self, oriented):
        obs.enable()
        result = run_numpy(oriented, "E1", collect=True)
        got = engine_counters()
        stats = native.last_stats()
        assert got["engine.native.runs"] == 1
        assert got["engine.native.ops"] == stats["ops"] > 0
        assert stats["triangles"] == result.count > 0

    def test_deterministic_for_fixed_seed(self, oriented):
        # per-thread op tallies are deterministic by the static block
        # assignment, so the snapshots must match exactly (and are
        # both empty on the Python reference)
        snaps = []
        for _ in range(2):
            obs.enable()
            obs.reset()
            run_numpy(oriented, "T1", collect=True)
            run_numpy(oriented, "E4", collect=False)
            snaps.append(engine_counters())
            obs.disable()
        assert snaps[0] == snaps[1]
        assert snaps[0].get("engine.native.runs", 0) == (
            2 if native.available() else 0)

    def test_disabled_costs_nothing(self, oriented):
        result = run_numpy(oriented, "E1", collect=True)
        snap = obs.metrics.snapshot()
        assert snap["counters"] == {}
        assert snap["gauges"] == {}
        assert result.count > 0


class TestNativeGauge:
    def test_fallback_reports_zero(self, oriented, monkeypatch):
        monkeypatch.setattr(native, "_lib", None)
        obs.enable()
        result = run_numpy(oriented, "T1", collect=False)
        assert "engine" not in result.extra
        assert obs.metrics.snapshot()["gauges"]["engine.native"] == 0.0
        # the Python reference publishes no kernel counters
        assert engine_counters() == {}

    @needs_native
    def test_native_reports_one_when_available(self, oriented):
        obs.enable()
        result = run_numpy(oriented, "T1", collect=False)
        assert result.extra["engine"] == "native"
        assert obs.metrics.snapshot()["gauges"]["engine.native"] == 1.0

    def test_collect_opt_out_is_pure_numpy(self, oriented):
        """``use_native=False`` returns the Python reference's result,
        with the gauge at 0 and no kernel counters."""
        obs.enable()
        result = run_numpy(oriented, "E1", collect=True,
                           use_native=False)
        assert "engine" not in result.extra
        assert obs.metrics.snapshot()["gauges"]["engine.native"] == 0.0
        assert engine_counters() == {}

    @needs_native
    def test_native_collect_reports_kernel(self, oriented):
        obs.enable()
        result = run_numpy(oriented, "E1", collect=True)
        assert result.extra["engine"] == "native"
        assert result.extra["native_threads"] >= 1
        snap = obs.metrics.snapshot()
        assert snap["gauges"]["engine.native"] == 1.0
        assert snap["gauges"]["engine.native_threads"] >= 1.0


class TestNativeOpCounters:
    @needs_native
    def test_per_thread_ops_sum_to_total(self, oriented):
        obs.enable()
        run_numpy(oriented, "T1", collect=False)
        counters = engine_counters()
        total = counters["engine.native.ops"]
        assert total > 0
        per_thread = [v for k, v in counters.items()
                      if k.startswith("engine.native.ops.t")]
        assert per_thread and sum(per_thread) == total
        stats = native.last_stats()
        assert stats["ops"] == total
        assert stats["triangles"] > 0


class TestListerEngineLabel:
    def test_python_and_numpy_labels(self, oriented, monkeypatch):
        """Python runs and gated auto runs label ``python``; the
        removed ``numpy`` engine is rejected before any label."""
        monkeypatch.setattr(native, "_lib", None)
        obs.enable()
        list_triangles(oriented, "T1", collect=False, engine="python")
        list_triangles(oriented, "T1", collect=False, engine="auto")
        with pytest.raises(ValueError, match="unknown engine"):
            list_triangles(oriented, "T1", collect=False, engine="numpy")
        counters = obs.metrics.snapshot()["counters"]
        assert counters["lister.engine.python"] == 2
        assert not [k for k in counters
                    if k.startswith("lister.engine.")
                    and k != "lister.engine.python"]

    @needs_native
    def test_native_label(self, oriented):
        obs.enable()
        # python runs the reference loops even with the library
        # present; only auto (or native) reaches the compiled kernel
        list_triangles(oriented, "T1", collect=False, engine="python")
        counters = obs.metrics.snapshot()["counters"]
        assert counters["lister.engine.python"] == 1
        assert "lister.engine.native" not in counters
        list_triangles(oriented, "T1", collect=False, engine="auto")
        counters = obs.metrics.snapshot()["counters"]
        assert counters["lister.engine.native"] == 1

    @needs_native
    def test_native_engine_value_labels_native(self, oriented):
        obs.enable()
        list_triangles(oriented, "T1", collect=True, engine="native")
        counters = obs.metrics.snapshot()["counters"]
        assert counters["lister.engine.native"] == 1
