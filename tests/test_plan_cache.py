"""One exact plan per query: cached tables, the peel beside the sums.

:func:`repro.planner.plan_for_graph` resolves its candidate table once
per ``(methods, orderings)``, keeps the distinct ``theta`` maps of the
last ``n`` it saw (:func:`repro.planner.plan._theta_maps`, one entry,
read-only arrays), prices the degenerate orientation from the peel's
deletion degrees, and runs the peel on a thread of its own beside the
sums pass when the compiled library is loaded and more than one native
thread is allowed. :func:`repro.pipeline.run_pipeline` then orients
with the plan's label map instead of relabelling. These tests pin that
all of it gives the plan a per-candidate loop gives, at any ``n`` in
any call order and at one or more threads, and that the report's
decision is the one ``per_node_cost`` gives bit for bit.
"""

import threading

import numpy as np
import pytest

from repro import DiscretePareto, Graph, sample_degree_sequence
from repro.core.costs import per_node_cost
from repro.core.decision import decide_on_graph, resolve_speed_ratio
from repro.engine import native
from repro.graphs.generators import configuration_model
from repro.listing.api import ALL_METHODS
from repro.orientations.relabel import orient, oriented_degrees
from repro.pipeline import run_pipeline
from repro.planner import (GRAPH_ORDERINGS, Candidate, iter_candidates,
                           plan_for_graph)
from repro.planner import plan as plan_module
from repro.planner.plan import PlanEntry, _confidence

SPEED_RATIO = 7.5


def _graph(n, edges):
    return Graph(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2))


def _pareto(alpha, n, seed):
    rng = np.random.default_rng(seed)
    dist = DiscretePareto(alpha, 15.0 * (alpha - 1)).truncate(n - 1)
    degrees = sample_degree_sequence(dist, n, rng, ensure_graphical=True)
    return configuration_model(degrees, rng)


def _small(n):
    """Graphs on ``n`` vertices: none, a path, a star, a clique."""
    return [Graph(n, []),
            _graph(n, [(i, i + 1) for i in range(n - 1)]),
            _graph(n, [(0, i) for i in range(1, n)]),
            _graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])]


def _reference_plan(graph, methods=ALL_METHODS, orderings=GRAPH_ORDERINGS):
    """The plan from pricing every candidate on its own."""
    rows = []
    for cand in iter_candidates(methods, orderings):
        labels = cand.permutation().labels_for(graph)
        x, y = oriented_degrees(graph, labels)
        cost = per_node_cost(cand.method, x, y)
        time_units = cost / SPEED_RATIO if cand.is_sei else cost
        rows.append((time_units, cand.method,
                     GRAPH_ORDERINGS.index(cand.ordering), cand, cost))
    rows.sort(key=lambda row: row[:3])
    entries = [PlanEntry(c.method, c.ordering, c.family, cost, t,
                         rank=i + 1)
               for i, (t, __, __, c, cost) in enumerate(rows)]
    return entries, _confidence(entries)


@pytest.fixture(params=["one-thread", "default-threads", "gated"])
def plan_path(request, monkeypatch):
    """Plan serially, with the peel beside the sums, and gated."""
    if request.param != "gated" and not native.available():
        pytest.skip("no C toolchain / native gated")
    if request.param == "one-thread":
        monkeypatch.setenv("REPRO_NATIVE_THREADS", "1")
    else:
        monkeypatch.delenv("REPRO_NATIVE_THREADS", raising=False)
    if request.param == "gated":
        monkeypatch.setattr(native, "_lib", None)
    return request.param


def _assert_plan(graph):
    plan = plan_for_graph(graph, speed_ratio=SPEED_RATIO)
    entries, confidence = _reference_plan(graph)
    assert plan.entries == entries
    assert plan.confidence == confidence
    best = plan.best
    np.testing.assert_array_equal(
        plan.best_labels,
        Candidate(best.method, best.ordering).permutation()
        .labels_for(graph))


@pytest.mark.parametrize("n", range(7))
def test_plan_matches_loop_with_other_n_between(plan_path, n):
    """Plans at ``n`` between plans at other sizes: the per-``n`` map
    cache never hands one size's maps to another."""
    for graph in _small(n):
        plan_for_graph(_small(n + 7)[3])
        _assert_plan(graph)
        plan_for_graph(_small(max(n - 1, 0))[1])
        _assert_plan(graph)


def test_plan_matches_loop_on_pareto(plan_path):
    for seed in range(3):
        _assert_plan(_pareto(1.7, 200 + seed, seed))


def test_theta_cache_is_one_read_only_entry():
    plan_for_graph(_pareto(1.5, 150, 1))
    plan_for_graph(_pareto(1.5, 160, 1))
    info = plan_module._theta_maps.cache_info()
    assert info.maxsize == 1 and info.currsize == 1
    table = plan_module._candidate_table(*plan_module._names(
        ALL_METHODS, GRAPH_ORDERINGS))
    thetas, source, swapped = plan_module._theta_maps(table, 160)
    assert thetas.shape == (5, 160)
    assert not any(a.flags.writeable for a in (thetas, source, swapped))
    assert not table.components.flags.writeable


def _theta_maps_by_bytes(table, n):
    """The dedup by map bytes, as ``_theta_maps`` first did it: the
    reference its array comparisons must match."""
    priced, maps, source, swapped = {}, [], [], []
    for permutation in table.thetas:
        theta = np.asarray(permutation.rank_to_label(n), dtype=np.int64)
        token, reverse = theta.tobytes(), ((n - 1) - theta).tobytes()
        if token in priced or reverse in priced:
            source.append(priced.get(token, priced.get(reverse)))
            swapped.append(token not in priced)
            continue
        priced[token] = len(maps)
        source.append(len(maps))
        swapped.append(False)
        maps.append(theta)
    stack = np.stack(maps) if maps else np.empty((0, n), dtype=np.int64)
    return stack, np.array(source, dtype=np.intp), np.array(swapped)


@pytest.mark.parametrize("orderings", [GRAPH_ORDERINGS,
                                       ("opt", "rr", "descending"),
                                       ("crr", "opt")])
def test_theta_maps_bit_identical_to_the_bytes_dedup(orderings):
    table = plan_module._candidate_table(*plan_module._names(
        ALL_METHODS, orderings))
    for n in (0, 1, 2, 3, 4, 5, 7, 16, 101, 1000, 10_000):
        plan_module._theta_maps.cache_clear()
        got = plan_module._theta_maps(table, n)
        for a, b in zip(got, _theta_maps_by_bytes(table, n)):
            assert a.dtype == b.dtype and a.shape == b.shape, n
            assert a.tobytes() == b.tobytes(), n


def _threads(monkeypatch):
    started = []
    real = threading.Thread

    def spy(*args, **kwargs):
        started.append(kwargs.get("name"))
        return real(*args, **kwargs)

    monkeypatch.setattr(plan_module.threading, "Thread", spy)
    return started


@pytest.mark.parametrize("threads, gated, expected", [
    ("1", False, 0), ("2", False, 1), ("2", True, 0)])
def test_peel_thread_only_when_it_can_help(monkeypatch, threads, gated,
                                           expected):
    if not gated and not native.available():
        pytest.skip("no C toolchain / native gated")
    monkeypatch.setenv("REPRO_NATIVE_THREADS", threads)
    if gated:
        monkeypatch.setattr(native, "_lib", None)
    started = _threads(monkeypatch)
    graph = _pareto(1.7, 120, 4)
    plan_for_graph(graph, orderings=("descending", "rr"))
    assert started == []  # no degenerate candidate: no peel at all
    plan_for_graph(graph)
    assert len(started) == expected
    # joined before the plan returns
    assert "repro-plan-peel" not in {t.name for t in threading.enumerate()}


def test_peel_thread_error_reaches_the_caller(monkeypatch):
    if not native.available():
        pytest.skip("no C toolchain / native gated")
    monkeypatch.setenv("REPRO_NATIVE_THREADS", "2")

    def broken(keys, degrees):
        raise MemoryError("native smallest-last: scratch allocation failed")

    monkeypatch.setattr(native, "smallest_last", broken)
    with pytest.raises(MemoryError, match="scratch"):
        plan_for_graph(_pareto(1.7, 80, 2))


def test_auto_pipeline_peels_once(plan_path, monkeypatch):
    """``run_pipeline(method="auto")`` orients with the plan's labels:
    one peel per query, and the report of the explicit run."""
    peels = []
    real = native.smallest_last

    def spy(keys, degrees):
        peels.append(degrees.size)
        return real(keys, degrees)

    monkeypatch.setattr(native, "smallest_last", spy)
    graph = _pareto(1.5, 300, 6)
    for order in (None, "degenerate"):
        peels.clear()
        auto = run_pipeline(graph, method="auto", order=order,
                            collect=False)
        assert peels == [graph.n]
        assert order is None or auto.order == order
        explicit = run_pipeline(graph, method=auto.result.method,
                                order=auto.order, collect=False)
        assert (auto.count, auto.per_node_cost, auto.decision) == \
            (explicit.count, explicit.per_node_cost, explicit.decision)


def _decision_reference(oriented):
    """``decide_on_graph`` as it was: one ``per_node_cost`` per method."""
    x, y = oriented.out_degrees, oriented.in_degrees
    hash_costs = {m: per_node_cost(m, x, y) for m in ("T1", "T2", "T3")}
    sei_costs = {m: per_node_cost(m, x, y) for m in ("E1", "E4")}
    best_hash = min(hash_costs, key=hash_costs.get)
    best_sei = min(sei_costs, key=sei_costs.get)
    return (best_hash, hash_costs[best_hash], best_sei,
            sei_costs[best_sei])


@pytest.mark.parametrize("graph", [
    Graph(0, []), Graph(5, []),
    _graph(9, [(0, i) for i in range(1, 9)]),
    _graph(8, [(i, 3 + j) for i in range(3) for j in range(5)]),
    _pareto(1.5, 400, 1), _pareto(1.7, 400, 2), _pareto(2.2, 400, 3)],
    ids=["n0", "m0", "star", "k35", "pareto-1.5", "pareto-1.7",
         "pareto-2.2"])
def test_decision_costs_bit_identical(graph):
    for ordering in GRAPH_ORDERINGS:
        oriented = orient(graph, Candidate("T1", ordering).permutation())
        decision = decide_on_graph(oriented)
        assert (decision.best_hash_method, decision.best_hash_cost,
                decision.best_sei_method, decision.best_sei_cost) == \
            _decision_reference(oriented)
        assert decision.speed_ratio == resolve_speed_ratio(None)


def test_concurrent_plans_agree():
    """Planners on several threads at once -- each with its own peel
    thread and the one-entry map cache switching between sizes -- give
    the plans a serial loop gives."""
    import sys
    graphs = [_pareto(1.7, 150, 1), _pareto(1.5, 170, 2)] * 3
    expected = [plan_for_graph(g).to_rows() for g in graphs]
    results = [None] * len(graphs)

    def work(i):
        results[i] = [plan_for_graph(graphs[i]).to_rows()
                      for __ in range(3)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work, args=(i,))
                   for i in range(len(graphs))]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
            assert not worker.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert results == [[rows] * 3 for rows in expected]


def test_per_node_divides_like_python_ints():
    """Totals past 2**53 are divided exactly, as ``int / int`` does."""
    ops = np.array([2**53 + 1, 2**62 - 1, 7, 0], dtype=np.int64)
    assert plan_module._per_node(ops, 3).tolist() == \
        [int(v) / 3 for v in ops.tolist()]
    assert plan_module._per_node(ops[2:], 3).tolist() == [7 / 3, 0.0]
    assert plan_module._per_node(ops, 0).tolist() == [0.0] * 4
