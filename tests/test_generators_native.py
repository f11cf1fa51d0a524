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

The configuration model is pinned the same way. Its C pass
(``native.configuration_wire``) shuffles the stubs by Fisher-Yates with
NumPy's Lemire draws (those of ``rng.integers(0, np.arange(S, 1, -1),
dtype=np.uint64)``) and sorts the pairs by counting scatters, so for
the same sequence and seed it must return the reference's keys
(``generators._configuration_python``), the same degrees, the same
``generator.rejections`` and the same ``bit_generator.state`` --
over Hypothesis-drawn sequences and over fixed shapes: all-zero
degrees, ``n = 1, 2``, one hub, sequences dense in loops and repeated
edges, and stub counts on both sides of ``2**k``. Its pairing is also
checked against ``rng.integers`` itself on three bit generators, so a
change to NumPy's bounded draw fails here instead of silently changing
the generator's stream, and a chi-square over 6000 seeds checks that
the C pass shuffles 5 stubs into each of their 120 orders alike.

The differential tests skip where no C toolchain exists; the gating
tests run everywhere.
"""

from types import SimpleNamespace

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


def _configuration(degrees, seed, lib):
    """One configuration graph with ``native._lib`` set to ``lib``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(native, "_lib", lib)
        metrics.enable()
        metrics.reset()
        rng = np.random.default_rng(seed)
        graph = gen.configuration_model(degrees, rng)
        rejections = metrics.snapshot()["counters"].get(
            "generator.rejections", 0)
        metrics.disable()
    return graph, rng.bit_generator.state, rejections


def _assert_configuration_identical(degrees, seed):
    """Native and reference configuration graphs agree on keys,
    degrees, rejections and the RNG state; returns the rejections."""
    graph, state, rejections = _configuration(degrees, seed, native._lib)
    ref, ref_state, ref_rejections = _configuration(degrees, seed, None)
    assert graph.keys.dtype == ref.keys.dtype == np.int64
    np.testing.assert_array_equal(graph.keys, ref.keys)
    assert graph.degrees.dtype == ref.degrees.dtype == np.int64
    np.testing.assert_array_equal(graph.degrees, ref.degrees)
    assert state == ref_state
    assert rejections == ref_rejections
    return rejections


#: Bit generators whose ``next_uint32``/``next_uint64`` the C pass must
#: draw through exactly as ``rng.integers`` does.
OTHER_BIT_GENERATORS = [np.random.MT19937, np.random.Philox]
PERFECT_MATCHING_SIZES = [2, 254, 256, 258, 4096, 4098]


def _fisher_yates(n, rng):
    """``np.arange(n)`` shuffled by Fisher-Yates: entry ``i`` swaps with
    the ``rng.integers`` draw in ``[0, i]``, ``i = n - 1, ..., 1``."""
    perm = np.arange(n)
    draws = rng.integers(0, np.arange(n, 1, -1), dtype=np.uint64)
    for i, j in zip(range(n - 1, 0, -1), draws.tolist()):
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def _same_state(state, other):
    """Bit-generator states equal, array fields (MT19937's key) too."""
    if isinstance(state, dict):
        return state.keys() == other.keys() and all(
            _same_state(state[k], other[k]) for k in state)
    return np.array_equal(state, other)


def _even(degrees):
    """``degrees`` as int64 with the largest one lowered to an even sum."""
    degrees = np.array(degrees, dtype=np.int64)
    if degrees.sum() % 2:
        degrees[np.argmax(degrees)] -= 1
    return degrees


def _with_stubs(n, stubs):
    """A sequence on ``n`` nodes with exactly ``stubs`` stubs: degrees
    as equal as they come, below ``n``."""
    degrees = np.full(n, stubs // n, dtype=np.int64)
    degrees[:stubs % n] += 1
    assert degrees.sum() == stubs and degrees.max() < n
    return degrees


@needs_native
class TestConfigurationBitIdentity:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_drawn_sequences(self, data):
        n = data.draw(st.integers(min_value=1, max_value=60))
        degrees = data.draw(st.lists(
            st.integers(min_value=0, max_value=n - 1), min_size=n,
            max_size=n))
        seed = data.draw(st.integers(min_value=0, max_value=2**63 - 1))
        _assert_configuration_identical(_even(degrees), seed)

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1),
           alpha=st.sampled_from([1.1, 1.5, 1.7, 2.5]),
           truncation=st.sampled_from(["root", "linear"]))
    @settings(max_examples=20, deadline=None)
    def test_pareto_sweep(self, seed, alpha, truncation):
        n = 400
        t_n = int(np.sqrt(n)) if truncation == "root" else n - 1
        dist = DiscretePareto(alpha, 15.0 * (alpha - 1)).truncate(t_n)
        degrees = sample_degree_sequence(dist, n,
                                         np.random.default_rng(seed))
        _assert_configuration_identical(degrees, seed ^ 0x5EED)

    @pytest.mark.parametrize("degrees", [
        np.zeros(1, dtype=np.int64), np.zeros(2, dtype=np.int64),
        np.zeros(7, dtype=np.int64), np.array([1, 1]),
    ], ids=["n1", "n2-empty", "all-zero", "n2-edge"])
    def test_tiny(self, degrees):
        for seed in range(4):
            assert _assert_configuration_identical(degrees, seed) == 0
        graph, state, __ = _configuration(degrees, 3, native._lib)
        assert graph.m == degrees.sum() // 2
        if degrees.sum() == 0:
            # no stubs, no draws
            assert state == np.random.default_rng(3).bit_generator.state

    @pytest.mark.parametrize("degrees", [
        _star_plus_matching(31),
        _even([49] + [1] * 49),
        _even([9] * 10),                      # complete: many repeats
        _even([2, 2, 2]),                     # a triangle, or loops
        _even([30, 30, 30, 3] + [1] * 27),    # three hubs: repeats
    ], ids=["star-plus-matching", "one-hub", "k10", "k3", "three-hubs"])
    def test_loops_and_repeats(self, degrees):
        rejected = sum(_assert_configuration_identical(degrees, seed)
                       for seed in range(10))
        if degrees.max() >= 9:
            assert rejected > 0

    @pytest.mark.parametrize("k", [4, 8, 12, 16])
    @pytest.mark.parametrize("offset", [-2, 0, 2])
    def test_stub_counts_around_powers_of_two(self, k, offset):
        stubs = 2**k + offset
        n = max(8, int(np.sqrt(stubs)) + 2)
        _assert_configuration_identical(_with_stubs(n, stubs), k)

    @pytest.mark.parametrize("n", PERFECT_MATCHING_SIZES)
    def test_pairing_is_rng_shuffle(self, n):
        """On a perfect matching (every degree 1) the stub pairs are
        the consecutive pairs of ``np.arange(n)`` shuffled on
        ``default_rng``'s draws: Fisher-Yates on ``rng.integers``,
        not ``rng.shuffle``, whose draws differ."""
        self._assert_pairing_is_fisher_yates(np.random.PCG64, n)

    @pytest.mark.parametrize("n", PERFECT_MATCHING_SIZES)
    @pytest.mark.parametrize("bit_generator", OTHER_BIT_GENERATORS,
                             ids=lambda bg: bg.__name__)
    def test_pairing_is_lemire_fisher_yates(self, bit_generator, n):
        """As above on the other bit generators."""
        self._assert_pairing_is_fisher_yates(bit_generator, n)

    @staticmethod
    def _assert_pairing_is_fisher_yates(bit_generator, n):
        """The stub pairs are the consecutive pairs of ``np.arange(n)``
        shuffled by Fisher-Yates on ``rng.integers``' draws, and the C
        pass takes exactly those draws."""
        degrees = np.ones(n, dtype=np.int64)
        rng = np.random.Generator(bit_generator(n))
        ref_rng = np.random.Generator(bit_generator(n))
        keys, pairs = native.configuration_wire(degrees, rng)
        perm = _fisher_yates(n, ref_rng)
        lo, hi = np.sort(perm.reshape(-1, 2), axis=1).T
        assert pairs == n // 2
        np.testing.assert_array_equal(keys, np.sort(lo * n + hi))
        assert _same_state(rng.bit_generator.state,
                           ref_rng.bit_generator.state)

    def test_five_stub_orders_are_uniform(self):
        """Five stubs of five nodes through the C entry, one seed at a
        time: its pairs and its draws are those of the Fisher-Yates
        order on the same seed, and over 6000 seeds that order takes
        each of the 120 permutations, and the pass's observable outcome
        (two pairs and the stub left over) each of its 15 values, as
        often as a chi-square test allows."""
        from itertools import permutations

        from scipy.stats import chisquare
        orders = {p: k for k, p in enumerate(permutations(range(5)))}
        outcomes: dict = {}
        order_counts = np.zeros(len(orders))
        degrees = np.ones(5, dtype=np.int64)
        for seed in range(6000):
            rng = np.random.default_rng(seed)
            ref_rng = np.random.default_rng(seed)
            keys = np.full(3, -1, dtype=np.int64)
            with rng.bit_generator.lock:
                kept = native._lib.configuration_wire(
                    5, degrees.ctypes.data_as(native._I64P),
                    rng.bit_generator.ctypes.bit_generator,
                    keys.ctypes.data_as(native._I64P))
            perm = _fisher_yates(5, ref_rng)
            pairs = sorted(min(a, b) * 5 + max(a, b)
                           for a, b in (perm[:2], perm[2:4]))
            assert kept == 2 and keys[:2].tolist() == pairs
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            order_counts[orders[tuple(perm.tolist())]] += 1
            outcome = (*pairs, int(perm[4]))
            outcomes[outcome] = outcomes.get(outcome, 0) + 1
        assert len(outcomes) == 15
        assert chisquare(order_counts).pvalue > 1e-3
        assert chisquare(list(outcomes.values())).pvalue > 1e-3

    def test_strided_degrees(self):
        degrees = np.repeat(_even([5, 4, 4, 3, 3, 3, 2, 2, 1, 1]), 2)[::2]
        assert not degrees.flags.c_contiguous
        _assert_configuration_identical(degrees, 9)


class TestConfigurationGating:
    def test_gated_library_runs_the_reference(self, monkeypatch):
        monkeypatch.setattr(native, "_lib", None)
        degrees = np.array([3, 3, 2, 2, 2])
        assert native.configuration_wire(
            degrees, np.random.default_rng(0)) is None
        graph = gen.configuration_model(degrees, np.random.default_rng(0))
        assert graph.n == 5

    @pytest.mark.parametrize("code, error", [(-3, ValueError),
                                             (-1, MemoryError)])
    def test_codes_raise(self, monkeypatch, code, error):
        """-3 (n or a degree beyond 32 bits) raises the residual
        wiring's ValueError; -1 (a failed allocation) MemoryError."""
        lib = SimpleNamespace(configuration_wire=lambda *a: code)
        monkeypatch.setattr(native, "_lib", lib)
        with pytest.raises(error) as caught:
            gen.configuration_model([1, 1], np.random.default_rng(0))
        if error is ValueError:
            lib.residual_wire = lambda *a: code
            with pytest.raises(ValueError) as residual:
                gen.residual_degree_model([1, 1],
                                          np.random.default_rng(0))
            assert str(caught.value) == str(residual.value)
            assert "2**32" in str(caught.value)

    @needs_native
    @pytest.mark.parametrize("degrees", [[2, -1, 1], [1, 1, 1],
                                         [[1, 1], [1, 1]]],
                             ids=["negative", "odd-sum", "2-d"])
    def test_wrapper_refuses_bad_sequences(self, degrees):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="non-negative"):
            native.configuration_wire(degrees, rng)
        assert rng.bit_generator.state == \
            np.random.default_rng(0).bit_generator.state

    @needs_native
    def test_c_entry_refuses_wide_input_before_drawing(self):
        """n >= 2**32, or a degree beyond 32 bits, returns -3 before any
        array is read past the degrees or any draw is taken."""
        rng = np.random.default_rng(0)
        keys = np.full(2, -7, dtype=np.int64)
        wide = np.array([2**32], dtype=np.int64)
        negative = np.array([-2, 2], dtype=np.int64)
        call = native._lib.configuration_wire
        ptr = native._I64P
        with rng.bit_generator.lock:
            handle = rng.bit_generator.ctypes.bit_generator
            assert call(2**32, keys.ctypes.data_as(ptr), handle,
                        keys.ctypes.data_as(ptr)) == -3
            assert call(1, wide.ctypes.data_as(ptr), handle,
                        keys.ctypes.data_as(ptr)) == -3
            assert call(2, negative.ctypes.data_as(ptr), handle,
                        keys.ctypes.data_as(ptr)) == -3
        assert keys.tolist() == [-7, -7]
        assert rng.bit_generator.state == \
            np.random.default_rng(0).bit_generator.state
