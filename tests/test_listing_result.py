"""Edge-case and serialization coverage for ``ListingResult``."""

import json

import pytest

from repro.listing.base import ListingResult
from repro.obs.jsonl import dumps
from repro.obs.records import listing_result_from_dict, listing_result_to_dict


class TestPerNodeCost:
    def test_zero_nodes(self):
        assert ListingResult(method="T1", ops=0, n=0).per_node_cost == 0.0

    def test_zero_nodes_with_ops(self):
        # degenerate but must not divide by zero
        assert ListingResult(method="T1", ops=7, n=0).per_node_cost == 0.0

    def test_normal(self):
        assert ListingResult(method="T1", ops=10,
                             n=4).per_node_cost == pytest.approx(2.5)


class TestTriangleSet:
    def test_raises_without_collect(self):
        result = ListingResult(method="E1", count=3, triangles=None)
        with pytest.raises(ValueError, match="collect=True"):
            result.triangle_set()

    def test_returns_set(self):
        result = ListingResult(method="E1", count=2,
                               triangles=[(0, 1, 2), (0, 1, 2), (1, 2, 3)])
        assert result.triangle_set() == {(0, 1, 2), (1, 2, 3)}


class TestRecordsRoundTrip:
    def _sample(self, collected=True):
        return ListingResult(
            method="E4", count=2,
            triangles=[(0, 1, 2), (1, 2, 3)] if collected else None,
            ops=17, comparisons=12, hash_inserts=5, n=9,
            extra={"note": "unit"})

    def test_roundtrip_collected(self):
        original = self._sample()
        line = dumps(listing_result_to_dict(original))
        restored = listing_result_from_dict(json.loads(line))
        assert restored == original

    def test_roundtrip_uncollected(self):
        original = self._sample(collected=False)
        restored = listing_result_from_dict(
            json.loads(json.dumps(listing_result_to_dict(original))))
        assert restored == original
        with pytest.raises(ValueError):
            restored.triangle_set()

    def test_roundtrip_real_run(self):
        import numpy as np
        from repro import (DescendingDegree, DiscretePareto,
                           generate_graph, list_triangles, orient,
                           sample_degree_sequence)
        from repro.distributions import root_truncation
        rng = np.random.default_rng(11)
        dist = DiscretePareto(1.7, 21.0).truncate(root_truncation(200))
        degrees = sample_degree_sequence(dist, 200, rng)
        oriented = orient(generate_graph(degrees, rng),
                          DescendingDegree())
        result = list_triangles(oriented, "T1", collect=True)
        line = dumps(listing_result_to_dict(result))
        restored = listing_result_from_dict(json.loads(line))
        assert restored == result
        assert restored.per_node_cost == result.per_node_cost
        assert restored.triangle_set() == result.triangle_set()
