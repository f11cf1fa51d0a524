"""Tests for degree-sequence utilities (Erdos-Gallai, order statistics)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs import (
    ascending_order_statistics,
    degree_histogram,
    erdos_gallai_graphical,
)


def _erdos_gallai_loop(degrees) -> bool:
    """The guard as one ``k`` at a time, each with its own
    ``searchsorted``: the vectorized test must agree with it."""
    d = np.sort(np.asarray(degrees, dtype=np.int64))[::-1]
    n = d.size
    if n == 0:
        return True
    if d[0] < 0 or d[0] >= n or int(d.sum()) % 2 == 1:
        return False
    prefix = np.cumsum(d)
    ascending = d[::-1]
    for k in range(1, n + 1):
        cutoff = n - int(np.searchsorted(ascending, k, side="right"))
        m = max(cutoff - k, 0)
        tail_sum = int(prefix[-1] - prefix[k + m - 1]) if k + m <= n else 0
        if int(prefix[k - 1]) > k * (k - 1) + m * k + tail_sum:
            return False
        if d[k - 1] <= k:
            break
    return True


@st.composite
def heavy_tailed(draw):
    """A Pareto-like sequence below ``n`` with a hub at ``n - 1`` or
    ``n - 2``, its sum made even or left odd at random."""
    n = draw(st.integers(min_value=2, max_value=300))
    alpha = draw(st.floats(min_value=0.3, max_value=2.5))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    degrees = np.minimum((rng.pareto(alpha, size=n) + 1).astype(np.int64),
                         n - 1)
    degrees[rng.integers(n)] = n - 1 - draw(st.integers(0, 1))
    if draw(st.booleans()) and degrees.sum() % 2:
        degrees[np.argmin(degrees)] += 1
    return degrees


class TestErdosGallai:
    def test_known_graphic_sequences(self):
        assert erdos_gallai_graphical([])
        assert erdos_gallai_graphical([0])
        assert erdos_gallai_graphical([1, 1])
        assert erdos_gallai_graphical([2, 2, 2])          # triangle
        assert erdos_gallai_graphical([3, 3, 3, 3])       # K4
        assert erdos_gallai_graphical([2, 2, 2, 2, 2])    # C5
        assert erdos_gallai_graphical([3, 2, 2, 2, 1])

    def test_known_non_graphic_sequences(self):
        assert not erdos_gallai_graphical([1])            # odd sum
        assert not erdos_gallai_graphical([2, 2, 1])      # odd sum
        assert not erdos_gallai_graphical([4, 4, 4, 1, 1])  # EG violated
        assert not erdos_gallai_graphical([5, 1, 1, 1])   # degree >= n
        assert not erdos_gallai_graphical([-1, 1])

    def test_star_graphs(self):
        assert erdos_gallai_graphical([4, 1, 1, 1, 1])
        assert not erdos_gallai_graphical([5, 1, 1, 1, 1])

    @given(st.lists(st.integers(min_value=0, max_value=8),
                    min_size=2, max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_matches_networkx(self, degrees):
        networkx = pytest.importorskip("networkx")
        assert erdos_gallai_graphical(degrees) == \
            networkx.is_graphical(degrees)

    @given(heavy_tailed())
    @settings(max_examples=300, deadline=None)
    def test_heavy_tails_match_the_loop(self, degrees):
        assert erdos_gallai_graphical(degrees) == \
            _erdos_gallai_loop(degrees)


class TestOrderStatistics:
    def test_ascending_sort(self):
        result = ascending_order_statistics([5, 1, 3, 3])
        np.testing.assert_array_equal(result, [1, 3, 3, 5])

    def test_histogram(self):
        values, counts = degree_histogram([2, 2, 5, 1, 2])
        np.testing.assert_array_equal(values, [1, 2, 5])
        np.testing.assert_array_equal(counts, [1, 3, 1])
