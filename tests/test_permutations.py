"""Tests for the permutation zoo (ascending/descending/RR/CRR/uniform/OPT)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    AscendingDegree,
    ComplementaryRoundRobin,
    DescendingDegree,
    ExplicitPermutation,
    OptPermutation,
    RoundRobin,
    UniformRandom,
    complement_permutation,
    reverse_permutation,
)
from repro.core.methods import METHODS

ALL_DEGREE_PERMS = [AscendingDegree(), DescendingDegree(), RoundRobin(),
                    ComplementaryRoundRobin()]


class TestBijectivity:
    @given(st.integers(min_value=1, max_value=500))
    @settings(max_examples=60, deadline=None)
    def test_deterministic_perms_are_bijections(self, n):
        for perm in ALL_DEGREE_PERMS:
            theta = perm.rank_to_label(n)
            assert sorted(theta.tolist()) == list(range(n))

    @given(st.integers(min_value=1, max_value=300),
           st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_uniform_is_bijection(self, n, seed):
        theta = UniformRandom().rank_to_label(n, np.random.default_rng(seed))
        assert sorted(theta.tolist()) == list(range(n))

    @given(st.integers(min_value=1, max_value=300))
    @settings(max_examples=40, deadline=None)
    def test_opt_is_bijection(self, n):
        for name in ("T1", "T2", "E1", "E4"):
            theta = OptPermutation(METHODS[name].h).rank_to_label(n)
            assert sorted(theta.tolist()) == list(range(n))


class TestNamedPermutations:
    def test_ascending_is_identity(self):
        np.testing.assert_array_equal(
            AscendingDegree().rank_to_label(5), [0, 1, 2, 3, 4])

    def test_descending_is_reversal(self):
        np.testing.assert_array_equal(
            DescendingDegree().rank_to_label(5), [4, 3, 2, 1, 0])

    def test_round_robin_eq32(self):
        """Eq. (32) hand-computed for n = 6 (1-based [4,3,5,2,6,1])."""
        np.testing.assert_array_equal(
            RoundRobin().rank_to_label(6), [3, 2, 4, 1, 5, 0])

    def test_round_robin_odd_n(self):
        """n = 5, 1-based [3,2,4,1,5]."""
        np.testing.assert_array_equal(
            RoundRobin().rank_to_label(5), [2, 1, 3, 0, 4])

    def test_rr_sends_large_degrees_outward(self):
        """The top-2 ranks (largest degrees) get the extreme labels."""
        n = 100
        theta = RoundRobin().rank_to_label(n)
        assert {theta[-1], theta[-2]} == {0, n - 1}

    def test_crr_is_complement_of_rr(self):
        n = 17
        rr = RoundRobin().rank_to_label(n)
        crr = ComplementaryRoundRobin().rank_to_label(n)
        np.testing.assert_array_equal(crr, rr[::-1])

    def test_crr_sends_large_degrees_to_middle(self):
        n = 100
        theta = ComplementaryRoundRobin().rank_to_label(n)
        assert abs(theta[-1] - n / 2) <= 1
        assert {theta[0], theta[1]} == {0, n - 1}

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 10, 101, 10**4, 10**5])
    def test_round_robin_matches_the_float_formula(self, n):
        """The int64 map equals eq. (32) evaluated in floats, dtype too."""
        i = np.arange(1, n + 1)
        ref = np.empty(n, dtype=np.int64)
        ref[:] = np.where(i % 2 == 1, np.ceil((n + i) / 2.0),
                          np.floor((n - i) / 2.0) + 1.0).astype(np.int64) - 1
        for perm, expected in ((RoundRobin(), ref),
                               (ComplementaryRoundRobin(), ref[::-1])):
            theta = perm.rank_to_label(n)
            assert theta.dtype == expected.dtype
            assert theta.shape == expected.shape
            assert theta.tobytes() == expected.tobytes()

    def test_uniform_requires_rng(self):
        with pytest.raises(ValueError, match="rng"):
            UniformRandom().rank_to_label(10)

    def test_explicit_validation(self):
        ExplicitPermutation([2, 0, 1])
        with pytest.raises(ValueError):
            ExplicitPermutation([0, 0, 1])
        with pytest.raises(ValueError):
            ExplicitPermutation([1, 2, 3])

    def test_explicit_wrong_n(self):
        perm = ExplicitPermutation([1, 0])
        with pytest.raises(ValueError):
            perm.rank_to_label(3)


class TestCombinators:
    def test_reverse_formula(self):
        base = RoundRobin()
        n = 11
        np.testing.assert_array_equal(
            reverse_permutation(base).rank_to_label(n),
            (n - 1) - base.rank_to_label(n))

    def test_complement_formula(self):
        base = RoundRobin()
        n = 11
        np.testing.assert_array_equal(
            complement_permutation(base).rank_to_label(n),
            base.rank_to_label(n)[::-1])

    def test_double_reverse_is_identity(self):
        base = RoundRobin()
        twice = reverse_permutation(reverse_permutation(base))
        np.testing.assert_array_equal(twice.rank_to_label(9),
                                      base.rank_to_label(9))

    def test_reverse_of_ascending_is_descending(self):
        np.testing.assert_array_equal(
            reverse_permutation(AscendingDegree()).rank_to_label(7),
            DescendingDegree().rank_to_label(7))


class TestOptPermutation:
    def test_opt_for_t1_is_descending(self):
        """Corollary 1: h increasing + r increasing -> descending."""
        theta = OptPermutation(METHODS["T1"].h).rank_to_label(8)
        np.testing.assert_array_equal(theta,
                                      DescendingDegree().rank_to_label(8))

    def test_opt_for_t3_is_ascending(self):
        """h decreasing + r increasing -> ascending."""
        theta = OptPermutation(METHODS["T3"].h).rank_to_label(8)
        np.testing.assert_array_equal(theta,
                                      AscendingDegree().rank_to_label(8))

    def test_opt_for_t2_pushes_hubs_outward(self):
        """h = x(1-x) peaks at 1/2: largest degrees get extreme labels."""
        n = 101
        theta = OptPermutation(METHODS["T2"].h).rank_to_label(n)
        assert {theta[-1], theta[-2]} <= {0, 1, n - 2, n - 1}

    def test_opt_for_e4_pushes_hubs_to_middle(self):
        n = 101
        theta = OptPermutation(METHODS["E4"].h).rank_to_label(n)
        assert abs(theta[-1] - n / 2) <= 2

    def test_r_decreasing_flips_order(self):
        inc = OptPermutation(METHODS["T1"].h, r_increasing=True)
        dec = OptPermutation(METHODS["T1"].h, r_increasing=False)
        np.testing.assert_array_equal(dec.rank_to_label(8),
                                      inc.rank_to_label(8)[::-1])

    def test_bad_h_shape(self):
        with pytest.raises(ValueError):
            OptPermutation(lambda x: np.array([1.0])).rank_to_label(5)
