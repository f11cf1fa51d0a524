"""Engine-level telemetry: per-chunk kernel counters and gauges.

The vectorized engine (:mod:`repro.engine.kernels`) publishes
``engine.*`` counters -- chunks, candidate pairs, Bloom probes/hits,
confirming binary searches -- once per run when the obs layer is
enabled, plus an ``engine.native`` gauge reporting whether the
compiled count kernel ran. These tests pin the contract: the counters
are deterministic for a fixed seed, internally consistent with the
listing result, entirely absent (zero cost) when obs is disabled, and
the ``lister.engine.<label>`` counter published by
:func:`repro.listing.list_triangles` reflects the engine that actually
ran.
"""

import numpy as np
import pytest

from repro import DescendingDegree, DiscretePareto, obs, orient
from repro.distributions import root_truncation
from repro.distributions.sampling import sample_degree_sequence
from repro.engine import native, run_numpy
from repro.graphs.generators import generate_graph
from repro.listing import list_triangles


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
    def test_consistent_with_result(self, oriented):
        obs.enable()
        result = run_numpy(oriented, "E1", collect=True,
                           use_native=False)
        got = engine_counters()
        assert got["engine.runs"] == 1
        assert got["engine.chunks"] >= 1
        # every candidate pair goes through exactly one Bloom probe
        assert got["engine.candidates"] == got["engine.bloom_probes"]
        # every Bloom passer is confirmed by one binary search ...
        assert got["engine.bloom_hits"] == \
            got["engine.confirm_binsearches"]
        # ... and the confirmed subset of passers is the triangle count
        assert result.count <= got["engine.bloom_hits"] \
            <= got["engine.candidates"]
        assert result.count > 0

    def test_deterministic_for_fixed_seed(self, oriented):
        # covers the native counters too when a toolchain is present:
        # per-thread op tallies are deterministic by the static block
        # assignment, so the snapshots must still match exactly
        snaps = []
        for _ in range(2):
            obs.enable()
            obs.reset()
            run_numpy(oriented, "T1", collect=True)
            run_numpy(oriented, "E4", collect=False)
            snaps.append(engine_counters())
            obs.disable()
        assert snaps[0] == snaps[1]
        assert snaps[0]["engine.runs"] == 2

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
        assert result.extra["engine"] == "numpy"
        assert obs.metrics.snapshot()["gauges"]["engine.native"] == 0.0
        # the fallback count path feeds the kernel counters instead
        assert engine_counters()["engine.chunks"] >= 1

    def test_native_reports_one_when_available(self, oriented):
        if not native.available():
            pytest.skip("no compiled kernel in this environment")
        obs.enable()
        result = run_numpy(oriented, "T1", collect=False)
        assert result.extra["engine"] == "native"
        assert obs.metrics.snapshot()["gauges"]["engine.native"] == 1.0

    def test_collect_opt_out_is_pure_numpy(self, oriented):
        obs.enable()
        result = run_numpy(oriented, "E1", collect=True,
                           use_native=False)
        assert result.extra["engine"] == "numpy"
        assert obs.metrics.snapshot()["gauges"]["engine.native"] == 0.0

    def test_native_collect_reports_kernel(self, oriented):
        if not native.available():
            pytest.skip("no compiled kernel in this environment")
        obs.enable()
        result = run_numpy(oriented, "E1", collect=True)
        assert result.extra["engine"] == "native"
        assert result.extra["native_threads"] >= 1
        snap = obs.metrics.snapshot()
        assert snap["gauges"]["engine.native"] == 1.0
        assert snap["gauges"]["engine.native_threads"] >= 1.0


class TestNativeOpCounters:
    def test_per_thread_ops_sum_to_total(self, oriented):
        if not native.available():
            pytest.skip("no compiled kernel in this environment")
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
        monkeypatch.setattr(native, "_lib", None)
        obs.enable()
        list_triangles(oriented, "T1", collect=False, engine="python")
        list_triangles(oriented, "T1", collect=False, engine="numpy")
        counters = obs.metrics.snapshot()["counters"]
        assert counters["lister.engine.python"] == 1
        assert counters["lister.engine.numpy"] == 1

    def test_native_label(self, oriented):
        if not native.available():
            pytest.skip("no compiled kernel in this environment")
        obs.enable()
        # numpy runs the NumPy kernels even with the library present;
        # only auto (or native) reaches the compiled kernels
        list_triangles(oriented, "T1", collect=False, engine="numpy")
        counters = obs.metrics.snapshot()["counters"]
        assert counters["lister.engine.numpy"] == 1
        assert "lister.engine.native" not in counters
        list_triangles(oriented, "T1", collect=False, engine="auto")
        counters = obs.metrics.snapshot()["counters"]
        assert counters["lister.engine.native"] == 1

    def test_native_engine_value_labels_native(self, oriented):
        if not native.available():
            pytest.skip("no compiled kernel in this environment")
        obs.enable()
        list_triangles(oriented, "T1", collect=True, engine="native")
        counters = obs.metrics.snapshot()["counters"]
        assert counters["lister.engine.native"] == 1
