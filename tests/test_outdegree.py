"""Tests for the expected out-degree model (eqs. (10)-(13), Lemma 2)."""

import numpy as np
import pytest

from repro import DiscretePareto, generate_graph, sample_degree_sequence
from repro.core.outdegree import (
    edge_probability,
    expected_out_degrees,
    expected_q,
    lemma2_profile,
    unified_cost_from_degrees,
)
from repro.core.spread import SpreadDistribution
from repro.core.weights import capped_weight
from repro.distributions import root_truncation
from repro.orientations.permutations import AscendingDegree
from repro.orientations.relabel import orient


class TestExpectedOutDegrees:
    def test_eq11_by_hand(self):
        """n = 3, degrees (by label) [2, 1, 3]: eq. (11) by hand."""
        d = np.array([2.0, 1.0, 3.0])
        expected = expected_out_degrees(d)
        # E[X_0] = 0 (nothing below label 0)
        assert expected[0] == 0.0
        # E[X_1] = 1 * 2 / (6 - 1)
        assert expected[1] == pytest.approx(2.0 / 5.0)
        # E[X_2] = 3 * (2 + 1) / (6 - 3)
        assert expected[2] == pytest.approx(3.0)

    def test_sums_to_m_approximately(self):
        """sum E[X_i] ~ m = sum d / 2 for moderate degrees."""
        rng = np.random.default_rng(2)
        d = rng.integers(1, 20, size=500).astype(float)
        total = expected_out_degrees(d).sum()
        assert total == pytest.approx(d.sum() / 2.0, rel=0.02)

    def test_weighted_version_caps_hubs(self):
        # hub at label 0: it sits in every later node's prefix, so
        # capping its weight shrinks every other expected out-degree --
        # exactly the over-counting correction of eq. (12)
        d = np.concatenate([[90.0], np.full(99, 2.0)])
        plain = expected_out_degrees(d)
        capped = expected_out_degrees(d, weight=capped_weight(5.0))
        # the very last label saturates at its full degree either way
        assert np.all(capped[1:] <= plain[1:])
        assert np.all(capped[1:-1] < plain[1:-1])

    def test_q_in_unit_interval(self):
        rng = np.random.default_rng(3)
        d = rng.integers(1, 40, size=300).astype(float)
        q = expected_q(d)
        assert np.all(q >= 0.0) and np.all(q <= 1.0)

    def test_edge_probability_eq10(self):
        degrees = np.array([3, 4, 2, 1])
        assert edge_probability(degrees, 0, 1) == pytest.approx(12 / 10)\
            or edge_probability(degrees, 0, 1) == 1.0  # clipped
        assert edge_probability(degrees, 2, 3) == pytest.approx(2 / 10)

    def test_edge_probability_empty(self):
        assert edge_probability(np.array([0, 0]), 0, 1) == 0.0


class TestAgainstEnsembles:
    def test_expected_out_degree_matches_simulation(self, rng):
        """E[X_i | D_n] (11) vs ensemble average under ascending."""
        n = 600
        dist = DiscretePareto(2.0, 30.0).truncate(root_truncation(n))
        degrees = sample_degree_sequence(dist, n, rng)
        perm = AscendingDegree()
        x_sum = None
        # at 300 graphs the window [0, 200) ratio spreads 1.2% across
        # sequences, under a quarter of the 6% bar (3.3% at 30)
        reps = 300
        for __ in range(reps):
            graph = generate_graph(degrees, rng)
            oriented = orient(graph, perm)
            x = oriented.out_degrees.astype(float)
            x_sum = x if x_sum is None else x_sum + x
            label_degrees = oriented.degrees
        model = expected_out_degrees(label_degrees.astype(float))
        simulated = x_sum / reps
        # compare on aggregate windows (per-node is too noisy)
        for lo, hi in [(0, 200), (200, 400), (400, 600)]:
            assert simulated[lo:hi].sum() == pytest.approx(
                model[lo:hi].sum(), rel=0.06)

    def test_unified_cost_matches_model50(self):
        """Eq. (14) from the quantile skeleton converges to eq. (50)."""
        from repro import discrete_cost_model
        dist = DiscretePareto(1.7, 21.0).truncate(100)
        n = 200_000
        positions = (np.arange(n, dtype=float) + 0.5) / n
        skeleton = np.asarray(dist.quantile(positions), dtype=float)
        via_skeleton = unified_cost_from_degrees("T1", skeleton)
        via_model = discrete_cost_model(dist, "T1", "ascending")
        assert via_skeleton == pytest.approx(via_model, rel=0.02)

    def test_unified_cost_empty(self):
        assert unified_cost_from_degrees("T1", np.array([])) == 0.0


class TestLemma2:
    def test_q_converges_to_spread(self):
        """Lemma 2: q_{ceil(un)} -> J(F^{-1}(u)) under ascending."""
        dist = DiscretePareto(1.7, 21.0).truncate(1000)
        spread = SpreadDistribution(dist)
        us = np.array([0.2, 0.5, 0.8, 0.95])
        profile = lemma2_profile(dist, 300_000, us)
        quantiles = np.asarray(dist.quantile(us), dtype=float)
        targets = np.asarray(spread.cdf(quantiles - 1.0), dtype=float)
        # J evaluated just below the quantile: q counts strictly
        # smaller labels, and ties at the quantile value straddle the
        # jump, so allow the atom's width as tolerance
        atom = np.asarray(spread.pmf(quantiles), dtype=float)
        for p, t, a in zip(profile, targets, atom):
            assert t - 0.02 <= p <= t + a + 0.02

    def test_convergence_improves_with_n(self):
        dist = DiscretePareto(1.7, 21.0).truncate(200)
        spread = SpreadDistribution(dist)
        u = np.array([0.6])
        target = float(spread.cdf(float(dist.quantile(0.6))))
        errors = []
        for n in (1000, 100_000):
            value = float(lemma2_profile(dist, n, u)[0])
            errors.append(abs(value - target))
        assert errors[1] <= errors[0] + 0.02


@pytest.fixture
def rng():
    return np.random.default_rng(44)
