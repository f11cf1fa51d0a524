"""The exact planner's orientation pricing against its reference path.

:func:`repro.planner.plan_for_graph` prices each *distinct* label map
once: degree-ranked orientations share one stable degree ranking, an
orientation whose ``theta`` equals one already priced reuses its
totals, and one whose ``theta`` is the reverse ``n - 1 - theta'``
reuses them with T1 and T3 swapped (Proposition 1). The remaining maps
go to :func:`repro.engine.native.oriented_sums` in one call, or
through ``oriented_degrees`` + ``component_ops`` when the compiled
library is gated. These tests pin that the result is the plan a plain
per-candidate loop of ``labels_for`` + ``oriented_degrees`` +
``per_node_cost_many`` gives, on both paths.

The native differential tests skip where no C toolchain exists; the
plan-equivalence and audit tests run everywhere.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import DiscretePareto, Graph, sample_degree_sequence
from repro.core.costs import component_ops, per_node_cost_many
from repro.engine import native
from repro.graphs.generators import configuration_model
from repro.listing.api import ALL_METHODS, list_triangles
from repro.obs import audit, jsonl
from repro.orientations.permutations import DescendingDegree
from repro.orientations.relabel import orient
from repro.pipeline import run_pipeline
from repro.planner import (GRAPH_ORDERINGS, iter_candidates,
                           oriented_degrees, plan_for_graph)
from repro.planner.plan import PlanEntry, _confidence

needs_native = pytest.mark.skipif(not native.available(),
                                  reason="no C toolchain / native gated")

SPEED_RATIO = 7.5


def _graph(n, edges):
    return Graph(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2))


def _pareto(alpha, n, seed):
    rng = np.random.default_rng(seed)
    dist = DiscretePareto(alpha, 15.0 * (alpha - 1)).truncate(n - 1)
    degrees = sample_degree_sequence(dist, n, rng, ensure_graphical=True)
    return configuration_model(degrees, rng)


FIXTURES = {
    "n0": Graph(0, []),
    "m0": Graph(5, []),
    "isolated-plus-clique": _graph(10, [(i, j) for i in range(3, 10)
                                        for j in range(i + 1, 10)]),
    "star": _graph(9, [(0, i) for i in range(1, 9)]),
    "k35": _graph(8, [(i, 3 + j) for i in range(3) for j in range(5)]),
    "pareto": _pareto(1.7, 300, 5),
}

#: (methods, orderings) subsets the plan must agree on.
SUBSETS = {
    "all": (ALL_METHODS, GRAPH_ORDERINGS),
    "opt-only": (ALL_METHODS, ("opt",)),
    "reversed-methods": (tuple(reversed(ALL_METHODS)), GRAPH_ORDERINGS),
    "reversed-both": (("E4", "T3", "L3", "T1"),
                      ("degenerate", "descending", "ascending")),
    "degenerate-only": (("E1", "T2"), ("degenerate",)),
    "round-robins": (("T2", "E4"), ("crr", "rr")),
    "one-candidate": (("L3",), ("descending",)),
}


def _planner_maps(graph):
    """Every label map the exact planner can price, one per key."""
    return {c.orientation_key(): c.permutation().labels_for(graph)
            for c in iter_candidates(ALL_METHODS, GRAPH_ORDERINGS)}


def _reference_plan(graph, methods, orderings):
    """The plan from pricing every candidate on its own."""
    rows = []
    for cand in iter_candidates(methods, orderings):
        labels = cand.permutation().labels_for(graph)
        x, y = oriented_degrees(graph, labels)
        cost = per_node_cost_many([cand.method], x, y)[cand.method]
        time_units = cost / SPEED_RATIO if cand.is_sei else cost
        rows.append((time_units, cand.method,
                     GRAPH_ORDERINGS.index(cand.ordering), cand, cost))
    rows.sort(key=lambda row: row[:3])
    entries = [PlanEntry(c.method, c.ordering, c.family, cost, t,
                         rank=i + 1)
               for i, (t, __, __, c, cost) in enumerate(rows)]
    return entries, _confidence(entries)


def _assert_totals_match(graph):
    maps = _planner_maps(graph)
    sums = native.oriented_sums(graph.keys, graph.degrees,
                                np.stack(list(maps.values())))
    assert sums.dtype == np.int64 and sums.shape == (len(maps), 3)
    for row, labels in zip(sums.tolist(), maps.values()):
        ref = component_ops(*oriented_degrees(graph, labels))
        assert row == [ref["T1"], ref["T2"], ref["T3"]]


@needs_native
class TestNativeTotals:
    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_fixtures(self, name):
        _assert_totals_match(FIXTURES[name])

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1),
           alpha=st.sampled_from([1.1, 1.5, 1.7, 2.5]))
    @settings(max_examples=30, deadline=None)
    def test_pareto_sweep(self, seed, alpha):
        _assert_totals_match(_pareto(alpha, 300, seed))

    def test_no_label_maps(self):
        graph = FIXTURES["star"]
        sums = native.oriented_sums(graph.keys, graph.degrees,
                                    np.empty((0, graph.n), dtype=np.int64))
        assert sums.shape == (0, 3)


@pytest.fixture(params=["native", "reference"])
def pricing_path(request, monkeypatch):
    """Run a test on the compiled pricing and with the library gated."""
    if request.param == "native" and not native.available():
        pytest.skip("no C toolchain / native gated")
    if request.param == "reference":
        monkeypatch.setattr(native, "_lib", None)
    return request.param


@pytest.mark.parametrize("subset", sorted(SUBSETS))
@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_plan_matches_per_candidate_loop(name, subset, pricing_path):
    graph = FIXTURES[name]
    methods, orderings = SUBSETS[subset]
    plan = plan_for_graph(graph, methods=methods, orderings=orderings,
                          speed_ratio=SPEED_RATIO)
    entries, confidence = _reference_plan(graph, methods, orderings)
    assert plan.entries == entries
    assert plan.confidence == confidence
    assert (plan.n, plan.meta) == (graph.n, {"m": graph.m})


@needs_native
class TestOneKernelCall:
    def _spy(self, monkeypatch):
        calls = []
        real = native.oriented_sums

        def spy(keys, degrees, labels):
            calls.append(labels.shape)
            return real(keys, degrees, labels)

        monkeypatch.setattr(native, "oriented_sums", spy)
        return calls

    def test_six_distinct_maps_in_one_call(self, monkeypatch):
        """Five degree-ranked maps in one sums call; the sixth, the
        degenerate one, is priced from one peel's deletion degrees."""
        calls = self._spy(monkeypatch)
        peels = []
        real = native.smallest_last

        def peel(keys, degrees):
            peels.append(degrees.size)
            return real(keys, degrees)

        monkeypatch.setattr(native, "smallest_last", peel)
        graph = FIXTURES["pareto"]
        plan = plan_for_graph(graph)
        assert calls == [(5, graph.n)]
        assert peels == [graph.n]
        assert len(plan.entries) == 108

    def test_reversed_map_is_not_priced_again(self, monkeypatch):
        calls = self._spy(monkeypatch)
        graph = FIXTURES["pareto"]
        plan = plan_for_graph(graph, orderings=("ascending", "descending"),
                              speed_ratio=SPEED_RATIO)
        assert calls == [(1, graph.n)]
        up, down = plan.entry("T1", "ascending"), plan.entry("T3",
                                                             "descending")
        assert up.predicted_cost == down.predicted_cost


@needs_native
class TestWrapperRejects:
    graph = FIXTURES["k35"]

    def _args(self):
        labels = np.stack([DescendingDegree().labels_for(self.graph)] * 2)
        return self.graph.keys, self.graph.degrees, labels

    def test_wrong_dtype(self):
        keys, degrees, labels = self._args()
        for bad in ((keys.astype(np.int32), degrees, labels),
                    (keys, degrees.astype(float), labels),
                    (keys, degrees, labels.astype(np.int32)),
                    (keys.tolist(), degrees, labels)):
            with pytest.raises(ValueError, match="int64"):
                native.oriented_sums(*bad)

    def test_non_contiguous(self):
        keys, degrees, labels = self._args()
        for bad in ((np.repeat(keys, 2)[::2], degrees, labels),
                    (keys, degrees, np.asfortranarray(labels)),
                    (keys, np.repeat(degrees, 2)[::2], labels)):
            with pytest.raises(ValueError, match="contiguous"):
                native.oriented_sums(*bad)

    def test_shape_mismatch(self):
        keys, degrees, labels = self._args()
        for bad in ((keys, degrees, np.ascontiguousarray(labels[:, :-1])),
                    (keys, degrees, labels[0]),
                    (keys, degrees[:-1], labels),
                    (keys.reshape(-1, 1), degrees, labels),
                    (keys, degrees.reshape(1, -1), labels)):
            with pytest.raises(ValueError, match=r"\(K, n\)"):
                native.oriented_sums(*bad)

    def test_edges_out_of_range(self):
        keys, degrees, labels = self._args()
        n = self.graph.n
        for bad in (keys + n * n, keys - keys[-1] - 1):
            with pytest.raises(ValueError, match="0 <= lo < hi < n"):
                native.oriented_sums(bad, degrees, labels)


def test_gated_library_returns_none(monkeypatch):
    monkeypatch.setattr(native, "_lib", None)
    graph = FIXTURES["star"]
    labels = DescendingDegree().labels_for(graph)[None, :]
    assert native.oriented_sums(graph.keys, graph.degrees, labels) is None


def _strict_json(line):
    def reject(token):
        raise ValueError(f"non-strict JSON constant {token}")
    return json.loads(line, parse_constant=reject)


@pytest.mark.parametrize("name", ["n0", "m0"])
def test_audit_ratios_finite_on_empty_graphs(name, tmp_path, monkeypatch):
    sink = tmp_path / "audit.jsonl"
    monkeypatch.setenv(audit.AUDIT_ENV, "1")
    monkeypatch.setenv(audit.AUDIT_FILE_ENV, str(sink))
    monkeypatch.setenv("REPRO_CALIBRATION_FILE",
                       str(tmp_path / "calibration.json"))
    monkeypatch.setattr(audit, "_enabled", None)
    graph = FIXTURES[name]
    run_pipeline(graph, method="auto")
    list_triangles(orient(graph, DescendingDegree()), "auto")
    records = [_strict_json(line)
               for line in sink.read_text().splitlines()]
    assert [r["route"] for r in records] == ["run_pipeline",
                                             "list_triangles"]
    for record in records:
        assert all(math.isfinite(v) for v in record["ratios"].values())
        assert math.isfinite(record["realized"]["regret"])
    assert jsonl.validate(
        sink, lambda rec: jsonl.check(audit.AUDIT_RECORD, rec)) == (2, [])
