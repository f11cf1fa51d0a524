"""The cost-model query planner: golden picks, routing, and regret."""

import math

import numpy as np
import pytest

from repro import DiscretePareto, Graph
from repro.core.crossover import crossover_alpha, limit_cost_ratio
from repro.core.decision import (
    PAPER_SPEED_RATIO,
    SPEED_RATIO_ENV,
    decide_in_limit,
    decide_on_graph,
    resolve_speed_ratio,
)
from repro.engine.benchmark import measure_speed_ratio
from repro.listing.api import list_triangles
from repro.orientations.permutations import DescendingDegree
from repro.orientations.relabel import orient
from repro.pipeline import run_pipeline
from repro.planner import (
    Candidate,
    choose_method,
    format_regret_table,
    plan_for_degrees,
    plan_for_graph,
    plan_in_limit,
    run_regret_suite,
    regret_summary,
)
from repro.planner.regret import default_suite


class TestGoldenLimitPicks:
    def test_never_sei_inside_the_provable_window(self):
        """Section 6.3: for alpha in (4/3, 3/2] every SEI limit is
        infinite while T1's is finite, so the planner must refuse SEI
        no matter how large the hardware speed ratio is."""
        for alpha in (1.40, 1.45):
            plan = plan_in_limit(DiscretePareto(alpha, 10.0),
                                 speed_ratio=1e9)
            assert plan.best.family != "sei", (alpha, plan.best)
            assert plan.best.method == "T1"
            assert math.isinf(
                plan.entry("E1", "descending").predicted_time)

    def test_sei_wins_for_light_tails_on_paper_hardware(self):
        """Above the crossover the single-digit cost ratio hands SEI
        the win under the paper's 94.8x speed ratio."""
        plan = plan_in_limit(DiscretePareto(2.5, 45.0),
                             speed_ratio="paper")
        assert plan.best.is_sei

    def test_agrees_with_decide_in_limit(self):
        """The argmin over {T1, E1} IS the section 2.4 rule."""
        for alpha in (1.4, 1.8, 2.5):
            dist = DiscretePareto(alpha, 30.0 * (alpha - 1.0))
            for ratio in (1.0, 5.0, PAPER_SPEED_RATIO):
                plan = plan_in_limit(dist, methods=("T1", "E1"),
                                     orderings=("descending",),
                                     speed_ratio=ratio)
                decision = decide_in_limit(dist, ratio)
                assert plan.best.is_sei == decision.sei_wins, (
                    alpha, ratio, plan.best, decision)

    def test_crossover_alpha_consistency(self):
        """Picks flip exactly where core.crossover places the boundary
        for a derived speed ratio."""
        ratio = limit_cost_ratio(1.8)
        assert math.isfinite(ratio) and ratio > 1.0
        a_star = crossover_alpha(speed_ratio=ratio, tol=0.02)
        assert a_star == pytest.approx(1.8, abs=0.05)
        for alpha, expect_sei in ((a_star + 0.2, True),
                                  (a_star - 0.2, False)):
            plan = plan_in_limit(
                DiscretePareto(alpha, 30.0 * (alpha - 1.0)),
                methods=("T1", "E1"), orderings=("descending",),
                speed_ratio=ratio)
            assert plan.best.is_sei == expect_sei, (alpha, plan.best)


class TestPlanStructure:
    def test_entries_sorted_and_ranked(self, pareto_graph):
        plan = plan_for_graph(pareto_graph)
        times = [e.predicted_time for e in plan.entries]
        assert times == sorted(times)
        assert [e.rank for e in plan.entries] == list(
            range(1, len(plan.entries) + 1))
        assert plan.best is plan.entries[0]
        assert 0.0 <= plan.confidence <= 1.0

    def test_argmin_stable_under_candidate_reordering(self,
                                                      pareto_graph):
        methods = ("T1", "T2", "E1", "E4", "L1", "L3")
        forward = plan_for_graph(pareto_graph, methods=methods)
        backward = plan_for_graph(pareto_graph,
                                  methods=tuple(reversed(methods)))
        assert [e.key for e in forward.entries] == \
            [e.key for e in backward.entries]

    def test_entry_lookup(self, pareto_graph):
        plan = plan_for_graph(pareto_graph)
        entry = plan.entry("e1", "descending")
        assert entry.method == "E1" and entry.family == "sei"
        with pytest.raises(KeyError):
            plan.entry("T1", "uniform")

    def test_degenerate_rejected_by_model_backend(self, pareto_graph):
        with pytest.raises(ValueError, match="degenerate"):
            plan_for_degrees(pareto_graph.degrees, n=pareto_graph.n,
                             orderings=("descending", "degenerate"))

    def test_opt_candidate_shares_named_optimum(self, pareto_graph):
        """Algorithm 1's OPT construction can never beat the model's
        optimal named map (Corollaries 1-2), so at the model level the
        two candidates price identically."""
        plan = plan_for_degrees(pareto_graph.degrees,
                                n=pareto_graph.n, methods=("T1",))
        assert plan.entry("T1", "opt").predicted_cost == \
            pytest.approx(
                plan.entry("T1", "descending").predicted_cost)


class TestAutoRouting:
    def test_choose_method_agrees_with_decision_rule(self,
                                                     pareto_graph):
        oriented = orient(pareto_graph, DescendingDegree())
        for ratio in (1.0, 5.0, PAPER_SPEED_RATIO):
            plan = choose_method(
                oriented, methods=("T1", "T2", "T3", "E1", "E4"),
                speed_ratio=ratio)
            decision = decide_on_graph(oriented, ratio)
            assert plan.best.is_sei == decision.sei_wins, (
                ratio, plan.best, decision)

    def test_list_triangles_auto(self, pareto_graph):
        oriented = orient(pareto_graph, DescendingDegree())
        result = list_triangles(oriented, method="auto")
        picked = result.extra["auto_method"]
        assert picked == choose_method(oriented).best.method
        assert 0.0 <= result.extra["auto_confidence"] <= 1.0
        explicit = list_triangles(oriented, method=picked)
        assert result.count == explicit.count
        assert result.ops == explicit.ops

    def test_pipeline_auto(self, pareto_graph):
        report = run_pipeline(pareto_graph, method="auto")
        reference = run_pipeline(pareto_graph, method="T1")
        assert report.count == reference.count
        assert report.order in ("ascending", "descending", "rr",
                                "crr", "opt", "degenerate")

    def test_pipeline_auto_respects_order_constraint(self,
                                                     pareto_graph):
        report = run_pipeline(pareto_graph, method="auto",
                              order="ascending")
        assert report.order == "ascending"
        assert report.count == run_pipeline(pareto_graph,
                                            method="T1").count


class TestSpeedRatioOverride:
    def test_default_is_paper(self, monkeypatch):
        monkeypatch.delenv(SPEED_RATIO_ENV, raising=False)
        assert resolve_speed_ratio() == PAPER_SPEED_RATIO
        assert resolve_speed_ratio("paper") == PAPER_SPEED_RATIO

    def test_env_override_threads_into_decision(self, monkeypatch,
                                                pareto_graph):
        monkeypatch.setenv(SPEED_RATIO_ENV, "7.5")
        assert resolve_speed_ratio() == 7.5
        oriented = orient(pareto_graph, DescendingDegree())
        assert decide_on_graph(oriented).speed_ratio == 7.5
        assert plan_for_graph(pareto_graph).speed_ratio == 7.5

    def test_explicit_value_beats_env(self, monkeypatch):
        monkeypatch.setenv(SPEED_RATIO_ENV, "7.5")
        assert resolve_speed_ratio(3.0) == 3.0
        assert resolve_speed_ratio("12") == 12.0

    def test_invalid_values_rejected(self):
        for bad in (-1.0, 0.0, math.inf, math.nan, "nonsense"):
            with pytest.raises(ValueError):
                resolve_speed_ratio(bad)

    def test_measured_ratio_is_positive(self, pareto_graph):
        oriented = orient(pareto_graph, DescendingDegree())
        ratio = measure_speed_ratio(oriented, repeats=1)
        assert math.isfinite(ratio) and ratio > 0.0

    def test_calibrated_resolution_is_cached(self, monkeypatch):
        from repro.engine import benchmark as bench_mod
        calls = []
        bench_mod.calibrated_speed_ratio.cache_clear()
        monkeypatch.setattr(
            bench_mod, "measure_speed_ratio",
            lambda *a, **k: calls.append(1) or 2.5)
        assert resolve_speed_ratio("calibrated") == 2.5
        assert resolve_speed_ratio("calibrated") == 2.5
        assert len(calls) == 1
        bench_mod.calibrated_speed_ratio.cache_clear()


class TestRegretHarness:
    def test_small_suite(self):
        rows = run_regret_suite(default_suite(n=100), seed=7)
        assert len(rows) == len(default_suite(n=100))
        by_label = {r["label"]: r for r in rows}
        for row in rows:
            # the planner only sees the degree law: its pick can never
            # be the structure-dependent degenerate ordering
            assert "degenerate" not in row["planner"]
            assert row["regret"] >= 0.0
            assert row["oracle_time"] <= row["planner_time"] or \
                math.isinf(row["regret"])
        # zero-cost edge cases must not produce spurious regret
        assert by_label["star"]["regret"] == 0.0
        assert by_label["complete"]["regret"] == 0.0
        summary = regret_summary(rows)
        assert summary["cases"] == len(rows)
        assert summary["median_regret"] <= 0.10
        assert 0.0 <= summary["agreement"] <= 1.0

    def test_excess_ops_per_edge_stays_finite(self):
        """The ring's zero-cost oracle makes its regret infinite; the
        excess ops per edge stays finite there, and so do the
        summary's max and mean."""
        rows = run_regret_suite(default_suite(), seed=7)
        by_label = {r["label"]: r for r in rows}
        assert math.isinf(by_label["ring"]["regret"])
        assert math.isfinite(by_label["ring"]["excess_ops_per_edge"])
        for row in rows:
            assert math.isfinite(row["excess_ops_per_edge"]), row
            assert row["excess_ops_per_edge"] >= 0.0
            assert row["excess_ops_per_edge"] == (
                (row["planner_time"] - row["oracle_time"])
                * row["n"] / max(row["m"], 1))
        summary = regret_summary(rows)
        assert math.isinf(summary["max_regret"])
        assert math.isfinite(summary["max_excess_ops_per_edge"])
        assert math.isfinite(summary["mean_excess_ops_per_edge"])
        assert summary["max_excess_ops_per_edge"] == max(
            r["excess_ops_per_edge"] for r in rows)
        table = format_regret_table(rows)
        assert (f"max excess {summary['max_excess_ops_per_edge']:.3g} "
                f"ops/edge") in table
        empty_summary = regret_summary([])
        assert empty_summary["max_excess_ops_per_edge"] == 0.0
        assert empty_summary["mean_excess_ops_per_edge"] == 0.0

    def test_excess_ops_per_edge_on_an_edgeless_graph(self):
        """m = 0: the degree-law planner has nothing to plan, but the
        oracle prices every candidate at 0 and the excess is 0, not a
        division by zero."""
        from repro.planner.regret import _excess_ops_per_edge, _regret
        graph = Graph(8, [])
        oracle = plan_for_graph(graph)
        best = oracle.best.predicted_time
        worst = oracle.entries[-1].predicted_time
        assert best == worst == 0.0
        assert _excess_ops_per_edge(worst, best, graph.n, graph.m) == 0.0
        assert _regret(worst, best) == 0.0
        assert _excess_ops_per_edge(1.5, 0.0, 8, 0) == 12.0
        row = {"regret": math.inf, "agree": False,
               "excess_ops_per_edge": 12.0}
        summary = regret_summary([row])
        assert summary["max_excess_ops_per_edge"] == 12.0
        assert summary["mean_excess_ops_per_edge"] == 12.0

    def test_oracle_can_use_degenerate(self):
        """The oracle's candidate set strictly contains the planner's:
        it may exploit the smallest-last orientation."""
        suite = default_suite(n=100)
        oracle_keys = set()
        rng = np.random.default_rng(3)
        for case in suite:
            graph = case.make(rng)
            oracle_keys.update(
                e.ordering for e in plan_for_graph(graph).entries)
        assert "degenerate" in oracle_keys

    def test_wall_mode_smoke(self):
        rows = run_regret_suite([default_suite(n=60)[2]], seed=5,
                                methods=("T1", "E1"),
                                oracle_mode="wall")
        assert len(rows) == 1
        assert rows[0]["planner_time"] > 0.0

    def test_rejects_unknown_oracle_mode(self):
        from repro.planner import evaluate_case
        with pytest.raises(ValueError, match="oracle_mode"):
            evaluate_case(default_suite(n=60)[0],
                          np.random.default_rng(0),
                          oracle_mode="psychic")


class TestCandidateTable:
    def test_candidate_validation(self):
        with pytest.raises(ValueError):
            Candidate("T9", "descending")
        with pytest.raises(ValueError):
            Candidate("T1", "sideways")
        with pytest.raises(ValueError):
            Candidate("T1", "degenerate").limit_map()

    def test_opt_orientation_shared_by_h_class(self):
        """T1, T4, L2, L6 share h(x) = x(x-1)/2, hence one OPT
        orientation; T2's h differs."""
        keys = {Candidate(m, "opt").orientation_key()
                for m in ("T1", "T4", "L2", "L6")}
        assert len(keys) == 1
        assert Candidate("T2", "opt").orientation_key() not in keys
