"""Monte-Carlo cells price orientations without an oriented graph.

A residual-generator cell under the ascending or descending order is
priced by the wiring loop itself
(:func:`repro.experiments.harness._wired_cost`: out-degrees counted as
edges are placed, equal-degree edges resolved after the tie-break).
Every other cell prices a realized graph through
:func:`repro.experiments.harness.instance_cost`: it relabels the graph
and hands the label map to
:func:`repro.orientations.relabel.orientation_totals` (one
:func:`repro.engine.native.oriented_sums` call, or ``oriented_degrees``
+ ``component_ops`` when the compiled library is gated) instead of
building an :class:`~repro.graphs.digraph.OrientedGraph`. These tests
pin that the wired cells give the cost and RNG state of realizing every
graph (serial, pooled and in ``estimate_cell``, with metrics on, under
both tie-breaks, through swap-repair rewinds and on a sequence of ties
only) and build no graph or key array; that ``instance_cost`` is
bit-identical to the ``OrientedGraph`` + ``per_node_cost`` path on both
pricing paths; that a cell under a
degree-ranked ordering never builds :class:`~repro.graphs.graph.Graph`'s
undirected CSR, that ``Graph`` still rejects duplicate edges without
it and hands its edges back sorted, and that an empty Monte-Carlo
budget is refused.
"""

import dataclasses

import numpy as np
import pytest

from repro import DiscretePareto, Graph, obs, sample_degree_sequence
from repro.core.costs import component_ops, per_node_cost
from repro.distributions.truncation import linear_truncation, root_truncation
from repro.engine import native
from repro.experiments import harness
from repro.experiments.harness import (SimulationSpec, instance_cost,
                                       sequence_costs, simulate_cost)
from repro.experiments.parallel import simulate_cost_parallel
from repro.experiments.statistics import estimate_cell
from repro.graphs import graph as graph_module
from repro.graphs.digraph import OrientedGraph
from repro.graphs.generators import (configuration_model, generate_graph,
                                     residual_out_degrees)
from repro.listing.api import ALL_METHODS
from repro.obs import spans
from repro.orientations.degenerate import DegenerateOrder
from repro.orientations.permutations import AscendingDegree, DescendingDegree
from repro.orientations.relabel import (orient, orientation_totals,
                                        oriented_degrees)
from repro.planner import GRAPH_ORDERINGS, Candidate


def _pareto(n, seed):
    rng = np.random.default_rng(seed)
    dist = DiscretePareto(1.7, 10.5).truncate(n - 1)
    degrees = sample_degree_sequence(dist, n, rng, ensure_graphical=True)
    return configuration_model(degrees, rng)


GRAPHS = {
    "pareto": _pareto(400, 3),
    "n0": Graph(0, []),
    "m0": Graph(6, []),
    "star": Graph(9, [(0, i) for i in range(1, 9)]),
    "clique": Graph(7, [(i, j) for i in range(7) for j in range(i + 1, 7)]),
}


def _spec(method, permutation, **budget):
    return SimulationSpec(
        base_dist=DiscretePareto.paper_parameterization(1.5),
        truncation=linear_truncation, method=method,
        permutation=permutation, limit_map="descending", **budget)


@pytest.fixture(params=["native", "reference"])
def pricing_path(request, monkeypatch):
    """Run a test on the compiled pricing and with the library gated."""
    if request.param == "native" and not native.available():
        pytest.skip("no C toolchain / native gated")
    if request.param == "reference":
        monkeypatch.setattr(native, "available", lambda: False)
    return request.param


@pytest.mark.parametrize("ordering", GRAPH_ORDERINGS)
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_cell_cost_equals_oriented_graph_cost(name, ordering,
                                              pricing_path):
    graph = GRAPHS[name]
    for method in ALL_METHODS:
        permutation = Candidate(method, ordering).permutation()
        spec = _spec(method, permutation)
        cost = instance_cost(spec, graph, np.random.default_rng(7))
        rng = np.random.default_rng(7)  # the same draws, for the reference
        oriented = OrientedGraph(graph, permutation.labels_for(
            graph, rng=rng, tie_break=spec.tie_break))
        assert cost == per_node_cost(method, oriented.out_degrees,
                                     oriented.in_degrees), method


def test_totals_match_reference_per_map(pricing_path):
    graph = GRAPHS["pareto"]
    maps = np.stack([Candidate("T1", o).permutation().labels_for(graph)
                     for o in GRAPH_ORDERINGS])
    sums = orientation_totals(graph, maps)
    assert sums.dtype == np.int64 and sums.shape == (len(maps), 3)
    for row, labels in zip(sums.tolist(), maps):
        assert row == list(component_ops(
            *oriented_degrees(graph, labels)).values())


@pytest.mark.parametrize("bad", [
    np.array([0, 0, 2, 3, 4, 5, 6, 7, 8]),     # repeated label
    np.array([1, 2, 3, 4, 5, 6, 7, 8, 9]),     # out of range
    np.array([-1, 1, 2, 3, 4, 5, 6, 7, 8]),    # negative
    np.arange(8),                              # wrong length
], ids=["repeat", "too-large", "negative", "short"])
def test_non_permutation_label_map_rejected(bad, pricing_path):
    graph = GRAPHS["star"]
    with pytest.raises(ValueError, match="labels must"):
        orientation_totals(graph, bad)
    good = np.arange(graph.n)
    if bad.shape == good.shape:
        with pytest.raises(ValueError, match="permutation"):
            orientation_totals(graph, np.stack([good, bad]))


class TestLazyCSR:
    @pytest.fixture
    def builds(self, monkeypatch):
        """Count the undirected-CSR builds of every ``Graph``."""
        calls = []
        real = graph_module._undirected_csr

        def spy(*args, **kwargs):
            calls.append(args[2])
            return real(*args, **kwargs)

        monkeypatch.setattr(graph_module, "_undirected_csr", spy)
        return calls

    def test_construction_and_orient_build_none(self, builds):
        graph = Graph(GRAPHS["pareto"].n, GRAPHS["pareto"].edges)
        oriented = orient(graph, DescendingDegree())
        assert oriented.m == graph.m > 0
        assert builds == []

    @pytest.mark.parametrize("generator", ["residual", "configuration"])
    def test_degree_ranked_cell_builds_none(self, builds, generator):
        spec = dataclasses.replace(
            _spec("T1", DescendingDegree(), n_sequences=2, n_graphs=2),
            generator=generator)
        assert simulate_cost(spec, 300, np.random.default_rng(1)) > 0
        assert builds == []

    def test_degenerate_cell_builds_once(self, builds, monkeypatch):
        """The Python smallest-last loop reads ``Graph.neighbors``."""
        monkeypatch.setattr(native, "_lib", None)
        spec = _spec("E1", DegenerateOrder(), n_sequences=1, n_graphs=1)
        assert simulate_cost(spec, 300, np.random.default_rng(1)) > 0
        assert builds == [300]

    @pytest.mark.skipif(not native.available(),
                        reason="no C toolchain / native gated")
    def test_native_degenerate_cell_builds_none(self, builds):
        """The C smallest-last pass reads the keys and frees its rows."""
        spec = _spec("E1", DegenerateOrder(), n_sequences=1, n_graphs=1)
        assert simulate_cost(spec, 300, np.random.default_rng(1)) > 0
        assert builds == []

    def test_csr_is_cached(self, builds):
        graph = Graph(4, [(0, 1), (2, 1), (3, 0)])
        first = graph.csr()
        assert graph.csr() is first
        assert graph.neighbors(1).tolist() == [0, 2]
        assert graph.has_edge(0, 3) and not graph.has_edge(2, 3)
        assert graph.adjacency_sets() == [{1, 3}, {0, 2}, {1}, {0}]
        assert builds == [4]


class TestDuplicatesRejected:
    @pytest.mark.parametrize("edges", [
        [(0, 1), (0, 1), (1, 2)],
        [(0, 1), (1, 2), (2, 1), (2, 3)],
    ], ids=["repeat", "reversed"])
    def test_presorted_input(self, edges):
        with pytest.raises(ValueError, match="duplicate edges"):
            Graph(4, edges)

    @pytest.mark.parametrize("edges", [
        [(2, 3), (0, 1), (2, 3)],
        [(1, 2), (0, 3), (2, 1)],
    ], ids=["repeat", "reversed"])
    def test_unsorted_input(self, edges):
        with pytest.raises(ValueError, match="duplicate edges"):
            Graph(4, edges)

    def test_presorted_simple_graph_accepted(self):
        graph = Graph(4, [(0, 1), (0, 3), (1, 2), (2, 3)])
        assert graph.degrees.tolist() == [2, 2, 2, 2]
        assert graph.edges.tolist() == [[0, 1], [0, 3], [1, 2], [2, 3]]

    def test_edges_come_back_sorted(self):
        graph = Graph(4, [(3, 2), (0, 1), (2, 0)])
        assert graph.edges.tolist() == [[0, 1], [0, 2], [2, 3]]
        assert graph.keys.tolist() == [1, 2, 11]
        assert graph.degrees.tolist() == [2, 1, 2, 1]


class TestEmptyBudget:
    @pytest.mark.parametrize("budget", [{"n_sequences": 0},
                                        {"n_graphs": 0},
                                        {"n_sequences": -1}])
    def test_spec_rejects_budget_below_one(self, budget):
        with pytest.raises(ValueError, match="must be at least 1"):
            _spec("T1", DescendingDegree(), **budget)
        with pytest.raises(ValueError, match="must be at least 1"):
            dataclasses.replace(_spec("T1", DescendingDegree()), **budget)

    @pytest.mark.parametrize("run", [
        lambda spec: simulate_cost(spec, 200, np.random.default_rng(0)),
        lambda spec: simulate_cost_parallel(spec, 200, seed=0,
                                            max_workers=1),
        lambda spec: estimate_cell(spec, 200, np.random.default_rng(0)),
    ], ids=["serial", "parallel", "statistics"])
    @pytest.mark.parametrize("field", ["n_sequences", "n_graphs"])
    def test_every_path_refuses_an_empty_budget(self, run, field):
        with pytest.raises(ValueError, match=f"{field} must be at least 1"):
            run(_spec("T1", DescendingDegree(), **{field: 0}))

    def test_budget_of_one_runs(self):
        spec = _spec("T1", DescendingDegree(), n_sequences=1, n_graphs=1)
        assert np.isfinite(simulate_cost(spec, 200,
                                         np.random.default_rng(0)))


needs_native = pytest.mark.skipif(not native.available(),
                                  reason="no C toolchain / native gated")

MONOTONE = {"ascending": AscendingDegree, "descending": DescendingDegree}


def _cell(method, ordering, truncation, **budget):
    return SimulationSpec(
        base_dist=DiscretePareto.paper_parameterization(1.7),
        truncation=truncation, method=method,
        permutation=MONOTONE[ordering](), limit_map=ordering,
        generator="residual", **budget)


def _both_paths(monkeypatch, run):
    """``run(rng)`` priced while wiring, then with every graph realized
    (the monotone table emptied): ``((result, state), (result,
    state))``, each from ``default_rng(11)``."""
    results = []
    for routed in (True, False):
        if not routed:
            monkeypatch.setattr(harness, "_MONOTONE", {})
        rng = np.random.default_rng(11)
        results.append((run(rng), rng.bit_generator.state))
    monkeypatch.undo()
    return results


@pytest.fixture
def wired(monkeypatch):
    """Count the cells' wired pricings and graph realizations."""
    calls = {"wired": 0, "realized": 0}
    real_wired, real_generate = harness._wired_cost, harness.generate_graph

    def spy_wired(*args):
        cost = real_wired(*args)
        calls["wired"] += cost is not None
        return cost

    def spy_generate(*args, **kwargs):
        calls["realized"] += 1
        return real_generate(*args, **kwargs)

    monkeypatch.setattr(harness, "_wired_cost", spy_wired)
    monkeypatch.setattr(harness, "generate_graph", spy_generate)
    return calls


@needs_native
class TestPricedWhileWiring:
    """Residual cells under ascending/descending are priced by the
    wiring loop's pricing sink, with the cost and RNG state of realizing
    every graph and pricing it through ``instance_cost``."""

    @pytest.mark.parametrize("truncation", [root_truncation,
                                            linear_truncation],
                             ids=["root", "linear"])
    @pytest.mark.parametrize("ordering", sorted(MONOTONE))
    @pytest.mark.parametrize("method", ["T1", "T2", "E1"])
    def test_cell_equals_realized_graphs(self, method, ordering,
                                         truncation, wired, monkeypatch):
        spec = _cell(method, ordering, truncation, n_sequences=3,
                     n_graphs=2)
        (routed, state), (realized, ref_state) = _both_paths(
            monkeypatch, lambda rng: simulate_cost(spec, 1200, rng))
        assert routed == realized and state == ref_state
        assert wired["wired"] > 0

    def test_sequence_costs_equal_instance_cost(self, wired):
        spec = _cell("T1", "descending", root_truncation, n_graphs=3)
        dist_n = spec.base_dist.truncate(root_truncation(800))
        for seed in range(4):
            rng = np.random.default_rng(seed)
            routed = list(sequence_costs(spec, dist_n, 800, rng))
            ref = np.random.default_rng(seed)
            degrees = sample_degree_sequence(dist_n, 800, ref)
            realized = [instance_cost(spec, generate_graph(degrees, ref),
                                      ref) for __ in range(3)]
            assert routed == realized
            assert rng.bit_generator.state == ref.bit_generator.state
        assert wired["wired"] == 12 and wired["realized"] == 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_parallel_cell(self, workers, monkeypatch):
        spec = _cell("E1", "ascending", root_truncation, n_sequences=3,
                     n_graphs=2)
        routed = simulate_cost_parallel(spec, 900, seed=5,
                                        max_workers=workers)
        monkeypatch.setattr(harness, "_MONOTONE", {})
        assert routed == simulate_cost_parallel(spec, 900, seed=5,
                                                max_workers=1)

    def test_estimate_cell(self, monkeypatch):
        spec = _cell("T2", "descending", linear_truncation, n_sequences=3,
                     n_graphs=3)
        (routed, state), (realized, ref_state) = _both_paths(
            monkeypatch, lambda rng: estimate_cell(spec, 700, rng))
        assert routed == realized and state == ref_state

    def test_obs_on_realizes_and_agrees(self, wired):
        """Metrics on: every graph is realized, so the ``orient.*``
        counters count; the cost and state are those of the wired
        path."""
        spec = _cell("T1", "descending", root_truncation, n_sequences=1,
                     n_graphs=2)
        rng = np.random.default_rng(3)
        routed = simulate_cost(spec, 1000, rng)
        assert wired == {"wired": 2, "realized": 0}
        obs.enable()
        try:
            obs.reset()
            ref = np.random.default_rng(3)
            assert simulate_cost(spec, 1000, ref) == routed
            counters = obs.metrics_snapshot()["counters"]
        finally:
            obs.disable()
            obs.reset()
        assert ref.bit_generator.state == rng.bit_generator.state
        assert wired == {"wired": 2, "realized": 2}
        assert counters["orient.runs"] == 2

    def test_spans_keep_their_names(self):
        spec = _cell("T1", "ascending", root_truncation, n_graphs=1)
        spans.enable()
        try:
            spans.reset()
            simulate_cost(spec, 500, np.random.default_rng(4))
            roots = spans.pop_finished()
        finally:
            spans.disable()
            spans.reset()
        names = set()
        stack = [root.to_dict() for root in roots]
        while stack:
            node = stack.pop()
            names.add(node["name"])
            stack.extend(node.get("children", ()))
        assert {"generate", "relabel", "orient", "list"} <= names

    @pytest.mark.parametrize("degrees", [[3] * 6, [4, 4, 4, 4, 2, 2, 2, 2]],
                             ids=["regular", "two-class"])
    def test_swap_repair_rewinds(self, degrees, wired, monkeypatch):
        """Sequences whose wiring often leaves stubs: those graphs are
        realized from the same draws after the rewind."""
        monkeypatch.setattr(harness, "sample_degree_sequence",
                            lambda *args: np.array(degrees))
        spec = _cell("T2", "descending", root_truncation, n_sequences=1,
                     n_graphs=40)
        (routed, state), (realized, ref_state) = _both_paths(
            monkeypatch, lambda rng: simulate_cost(spec, len(degrees),
                                                   rng))
        assert routed == realized and state == ref_state
        # both outcomes happened in the routed run, whose 40 graphs were
        # wired or realized; the reference realized its 40
        assert 0 < wired["wired"] < 40
        assert wired["wired"] + wired["realized"] == 80

    def test_regular_sequence_is_all_ties(self, monkeypatch):
        degrees = np.full(300, 4)
        out, ties = residual_out_degrees(degrees, np.random.default_rng(2),
                                         descending=True)
        assert not out.any() and ties.shape == (600, 2)
        monkeypatch.setattr(harness, "sample_degree_sequence",
                            lambda *args: degrees)
        spec = _cell("E1", "ascending", root_truncation, n_graphs=3)
        (routed, state), (realized, ref_state) = _both_paths(
            monkeypatch, lambda rng: simulate_cost(spec, 300, rng))
        assert routed == realized and state == ref_state

    def test_stable_tie_break(self, monkeypatch):
        spec = dataclasses.replace(
            _cell("T1", "ascending", root_truncation, n_graphs=2),
            tie_break="stable")
        (routed, state), (realized, ref_state) = _both_paths(
            monkeypatch, lambda rng: simulate_cost(spec, 900, rng))
        assert routed == realized and state == ref_state

    def test_builds_no_graph_and_no_keys(self, monkeypatch):
        """The routed cell never adopts keys into a ``Graph`` and never
        runs the key sink."""
        def refuse(*args, **kwargs):
            raise AssertionError("a graph or key array was built")

        monkeypatch.setattr(graph_module.Graph, "_from_keys",
                            classmethod(refuse))
        monkeypatch.setattr(native, "residual_wire", refuse)
        spec = _cell("T1", "descending", root_truncation, n_sequences=2,
                     n_graphs=2)
        assert simulate_cost(spec, 2000, np.random.default_rng(8)) > 0
