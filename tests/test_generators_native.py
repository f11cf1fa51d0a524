"""Native residual-degree wiring against the Python reference loop.

:func:`repro.graphs.generators.residual_degree_model` runs its main
wiring loop in C whenever the compiled library is available, and the
Python loop otherwise. Both draw from the open-stub pool with the same
uniforms -- the C loop calls the generator's ``bitgen_t`` where the
reference calls ``rng.random()`` -- so the port is bit-identical, not
merely statistically equivalent: for the same degree sequence and seed
both paths must return the same ``graph.edges`` array (in order), leave
the generator's ``bit_generator.state`` in the same place, and publish
the same ``generator.*`` counters -- including on sequences that end in
swap repair or in the Havel-Hakimi fallback. The Python reference is
forced by monkeypatching ``native._lib`` away, as in
``test_native_engine.py``.

The differential tests skip where no C toolchain exists; the gating
tests run everywhere.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import DiscretePareto, sample_degree_sequence
from repro.engine import native
from repro.graphs import generators as gen
from repro.obs import metrics

needs_native = pytest.mark.skipif(not native.available(),
                                  reason="no C toolchain / native gated")

COUNTERS = ("generator.swap_repaired_stubs",
            "generator.havel_hakimi_fallbacks")


@pytest.fixture(autouse=True)
def clean_metrics():
    metrics.disable()
    metrics.reset()
    yield
    metrics.disable()
    metrics.reset()


def _run(degrees, seed, lib):
    """One generation with ``native._lib`` set to ``lib``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(native, "_lib", lib)
        metrics.enable()
        metrics.reset()
        rng = np.random.default_rng(seed)
        graph = gen.residual_degree_model(degrees, rng)
        counters = metrics.snapshot()["counters"]
        metrics.disable()
    return (graph.edges.copy(), rng.bit_generator.state,
            {name: counters.get(name, 0) for name in COUNTERS})


def _assert_identical(degrees, seed):
    """Native and reference agree; returns the shared counters."""
    native_edges, native_state, native_counts = _run(
        degrees, seed, native._lib)
    ref_edges, ref_state, ref_counts = _run(degrees, seed, None)
    np.testing.assert_array_equal(native_edges, ref_edges)
    assert native_edges.dtype == ref_edges.dtype
    assert native_state == ref_state
    assert native_counts == ref_counts
    return native_counts


def _star_plus_matching(n=12):
    degrees = np.array([n - 1] + [3] * (n - 1))
    if degrees.sum() % 2:
        degrees[-1] -= 1
    return degrees


@needs_native
class TestBitIdentity:
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1),
           alpha=st.sampled_from([1.1, 1.5, 1.7, 2.5]),
           truncation=st.sampled_from(["root", "linear"]))
    @settings(max_examples=40, deadline=None)
    def test_pareto_sweep(self, seed, alpha, truncation):
        n = 300
        t_n = int(np.sqrt(n)) if truncation == "root" else n - 1
        dist = DiscretePareto(alpha, 15.0 * (alpha - 1)).truncate(t_n)
        degrees = sample_degree_sequence(
            dist, n, np.random.default_rng(seed), ensure_graphical=True)
        _assert_identical(degrees, seed ^ 0x5EED)

    @pytest.mark.parametrize("degrees", [
        _star_plus_matching(),
        np.full(8, 6),                          # near-complete
        np.full(20, 2), np.full(20, 4), np.full(20, 6),  # regular
    ], ids=["star-plus-matching", "near-complete", "2-regular",
            "4-regular", "6-regular"])
    def test_fixtures(self, degrees):
        repaired = 0
        for seed in range(12):
            counts = _assert_identical(degrees, seed)
            repaired += counts["generator.swap_repaired_stubs"] > 0
            np.testing.assert_array_equal(
                gen.residual_degree_model(
                    degrees, np.random.default_rng(seed)).degrees,
                degrees)
        if degrees.max() >= 6:
            # these seeds reach the swap-repair path on both sides
            assert repaired > 0

    def test_all_zero_degrees(self):
        degrees = np.zeros(7, dtype=np.int64)
        edges, state, counts = _run(degrees, 3, native._lib)
        assert edges.shape == (0, 2)
        assert state == np.random.default_rng(3).bit_generator.state
        _assert_identical(degrees, 3)

    def test_havel_hakimi_fallback(self, monkeypatch):
        """A run that leaves stubs, with the swap repair failing, ends in
        the Havel-Hakimi fallback identically on both paths."""
        def broken_repair(*args, **kwargs):
            raise RuntimeError("injected failure")

        monkeypatch.setattr(gen, "_swap_repair", broken_repair)
        degrees = np.full(8, 6)
        counts = _assert_identical(degrees, 3)
        assert counts["generator.havel_hakimi_fallbacks"] == 1
        assert counts["generator.swap_repaired_stubs"] > 0

    def test_swap_repair_gets_boxed_native_edges(self, monkeypatch):
        """Leftover stubs after the C loop send its edge keys through
        the boxing branch: swap repair receives the placement-order
        list of ``(a, b)`` int tuples."""
        seen = []
        real_repair = gen._swap_repair

        def spy(leftovers, adjacency, edges, *args):
            seen.append((len(leftovers), list(edges)))
            return real_repair(leftovers, adjacency, edges, *args)

        monkeypatch.setattr(gen, "_swap_repair", spy)
        degrees = np.full(8, 6)
        order = np.argsort(degrees)[::-1]
        keys, __ = gen._wire_native(degrees, order,
                                    np.random.default_rng(3))
        _assert_identical(degrees, 3)
        (leftovers, boxed), __ = seen    # native run, then reference
        assert leftovers > 0
        assert boxed == [divmod(k, 8) for k in keys.tolist()]
        assert all(type(e) is tuple and type(e[0]) is type(e[1]) is int
                   for e in boxed)

    def test_placement_order_is_the_reference_order(self):
        """Below the Graph: the wiring loops emit the same edge keys."""
        degrees = _star_plus_matching(40)
        order = np.argsort(degrees)[::-1]
        ref_rng, native_rng = (np.random.default_rng(5),
                               np.random.default_rng(5))
        ref_keys, ref_residual = gen._wire_python(degrees, order, ref_rng)
        keys, residual = gen._wire_native(degrees, order, native_rng)
        np.testing.assert_array_equal(keys, ref_keys)
        np.testing.assert_array_equal(residual, ref_residual)
        assert native_rng.bit_generator.state == \
            ref_rng.bit_generator.state

    def test_self_test_covers_wiring(self):
        assert native.self_test()


class TestGating:
    def test_gated_library_runs_the_reference(self, monkeypatch):
        monkeypatch.setattr(native, "_lib", None)
        degrees = np.array([3, 3, 2, 2, 2])
        order = np.argsort(degrees)[::-1]
        assert native.residual_wire(
            order, degrees.copy(), np.random.default_rng(0)) is None
        assert gen._wire_native(
            degrees, order, np.random.default_rng(0)) is None
        graph = gen.residual_degree_model(degrees,
                                          np.random.default_rng(0))
        np.testing.assert_array_equal(graph.degrees, degrees)
        assert not native.self_test()

    @needs_native
    def test_rejects_arguments_the_c_loop_cannot_take(self):
        order = np.arange(4)
        ones = np.ones(4, dtype=np.int64)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="int64"):
            native.residual_wire(order, np.ones(4), rng)
        with pytest.raises(ValueError, match="size of order"):
            native.residual_wire(order, ones[:3].copy(), rng)
        with pytest.raises(ValueError, match="index 0..n-1"):
            native.residual_wire(order + 1, ones.copy(), rng)
        with pytest.raises(ValueError, match="non-negative"):
            native.residual_wire(order, -ones, rng)
        # nothing was drawn before the arguments were refused
        assert rng.bit_generator.state == \
            np.random.default_rng(0).bit_generator.state
