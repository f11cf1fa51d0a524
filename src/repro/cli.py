"""Command-line interface: the paper's pipeline from a shell.

Subcommands::

    repro generate   sample a degree sequence and realize a random graph
    repro triangles  relabel/orient an edge list and list triangles
    repro model      evaluate the discrete cost model (50) / Algorithm 2
    repro limit      the n -> inf cost limit of a (method, permutation)
    repro decide     the SEI-vs-hash decision rule (section 2.4)
    repro plan       rank every (method, ordering) candidate by modeled
                     cost (graph / degree-law / sketch / limit backends)
    repro regimes    finiteness classification across tail indices
    repro sweep      parallel Monte-Carlo sim-vs-model sweep over n
    repro profile    phase-time breakdown over a method/order grid
    repro bench      engine micro-benchmarks (--native-compare)
    repro report     run-history analytics & the perf-regression gate
                     (trends | baseline | compare | divergence |
                     validate)
    repro audit      planner model-conformance audit over the audit
                     lines of runs.jsonl (summary | misplans |
                     calibration)
    repro mem        memory observability: array ledger + footprint
                     conformance (summary | ledger | conformance)
    repro export     recorded runs -> Chrome trace JSON / flame stacks
                     (trace | flame)

Every subcommand accepts ``--trace`` (print the span tree and metric
counters after the run; add ``--trace-memory`` for tracemalloc peaks).
``REPRO_PROFILE=1`` additionally attaches top-K cProfile stats to every
top-level span while tracing (see docs/OBSERVABILITY.md).
``repro --version`` prints the package version.

Examples::

    python -m repro.cli generate --n 10000 --alpha 1.7 --out g.txt
    python -m repro.cli triangles --graph g.txt --method E1 \
        --order descending
    python -m repro.cli model --alpha 1.5 --n 1000000 --method T1 \
        --map descending
    python -m repro.cli limit --alpha 1.7 --method T2 --map rr
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

import numpy as np

from repro import obs
from repro.core.decision import decide_in_limit, decide_on_graph
from repro.core.fastmodel import fast_cost_model
from repro.core.kernels import MAPS
from repro.core.limits import limit_cost
from repro.core.model import discrete_cost_model
from repro.distributions.pareto import DiscretePareto
from repro.distributions.sampling import sample_degree_sequence
from repro.distributions.truncation import (linear_truncation,
                                            root_truncation)
from repro.experiments.regimes import format_regime_table, sweep_regimes
from repro.graphs.generators import generate_graph
from repro.graphs.io import load_edge_list, save_edge_list
from repro.listing.api import list_triangles
from repro.orientations import NAMED_ORDERINGS
from repro.orientations.permutations import DescendingDegree
from repro.orientations.relabel import orient


def _dist_from_args(args) -> DiscretePareto:
    beta = args.beta if args.beta is not None else 30.0 * (args.alpha - 1)
    if beta <= 0:
        raise SystemExit(
            "beta must be positive; pass --beta explicitly for alpha <= 1")
    return DiscretePareto(args.alpha, beta)


def _graph_from_args(args, rng):
    """The ``--graph`` edge list, else a synthetic graph: a Pareto
    ``--alpha``/``--beta`` degree sequence of ``--n`` nodes under root
    truncation, realized by the default generator, both drawing from
    ``rng``."""
    if args.graph:
        return load_edge_list(args.graph)
    dist_n = _dist_from_args(args).truncate(root_truncation(args.n))
    degrees = sample_degree_sequence(dist_n, args.n, rng)
    return generate_graph(degrees, rng)


def _add_dist_args(parser):
    parser.add_argument("--alpha", type=float, required=True,
                        help="Pareto tail index")
    parser.add_argument("--beta", type=float, default=None,
                        help="Pareto scale (default: 30 (alpha - 1))")


def cmd_generate(args) -> int:
    """``repro generate``: sample, realize, and save a graph."""
    rng = np.random.default_rng(args.seed)
    dist = _dist_from_args(args)
    trunc = (root_truncation if args.truncation == "root"
             else linear_truncation)
    dist_n = dist.truncate(trunc(args.n))
    degrees = sample_degree_sequence(dist_n, args.n, rng)
    graph = generate_graph(degrees, rng, method=args.generator)
    save_edge_list(graph, args.out)
    print(f"wrote {graph.m} edges over {graph.n} nodes to {args.out} "
          f"(max degree {graph.degrees.max()})")
    return 0


def cmd_triangles(args) -> int:
    """``repro triangles``: orient an edge list and list/count."""
    graph = load_edge_list(args.graph)
    rng = np.random.default_rng(args.seed)
    perm = NAMED_ORDERINGS[args.order]()
    oriented = orient(graph, perm, rng=rng)
    result = list_triangles(oriented, args.method, collect=False)
    method = result.extra.get("auto_method", args.method)
    print(f"graph: n={graph.n} m={graph.m}")
    if "auto_method" in result.extra:
        print(f"planner picked {method} (confidence "
              f"{result.extra['auto_confidence']:.2f})")
    print(f"method {method} under {args.order}: "
          f"{result.count} triangles, {result.ops} operations, "
          f"c_n = {result.per_node_cost:.3f}")
    return 0


def cmd_model(args) -> int:
    """``repro model``: evaluate (50) or Algorithm 2 at one n."""
    dist = _dist_from_args(args)
    trunc = (root_truncation if args.truncation == "root"
             else linear_truncation)
    dist_n = dist.truncate(trunc(args.n))
    if args.fast or args.n > 10**7:
        value = fast_cost_model(dist_n, args.method, args.map,
                                eps=args.eps)
        how = f"Algorithm 2 (eps={args.eps})"
    else:
        value = discrete_cost_model(dist_n, args.method, args.map)
        how = "exact model (50)"
    print(f"E[c_n({args.method}, {args.map})] at n={args.n}, "
          f"{args.truncation} truncation: {value:.4f}   [{how}]")
    return 0


def cmd_limit(args) -> int:
    """``repro limit``: the n -> inf cost of a (method, map)."""
    dist = _dist_from_args(args)
    value = limit_cost(dist, args.method, args.map, eps=1e-4)
    text = "infinite" if math.isinf(value) else f"{value:.4f}"
    print(f"lim n->inf E[c_n({args.method}, {args.map})] = {text}")
    return 0


def cmd_decide(args) -> int:
    """``repro decide``: SEI vs hash, on a graph or in the limit."""
    if args.graph:
        graph = load_edge_list(args.graph)
        oriented = orient(graph, DescendingDegree())
        decision = decide_on_graph(oriented, args.speed_ratio)
        print(f"on {args.graph} (descending orientation):")
    else:
        dist = _dist_from_args(args)
        decision = decide_in_limit(dist, args.speed_ratio)
        print(f"in the limit for Pareto(alpha={args.alpha}):")
    ratio = ("inf" if math.isinf(decision.cost_ratio)
             else f"{decision.cost_ratio:.2f}")
    print(f"  best hash method: {decision.best_hash_method} "
          f"(cost {decision.best_hash_cost:.4g})")
    print(f"  best SEI method:  {decision.best_sei_method} "
          f"(cost {decision.best_sei_cost:.4g})")
    print(f"  cost ratio w = {ratio}, speed ratio = "
          f"{decision.speed_ratio:.1f}")
    print(f"  winner: {decision.winner}")
    return 0


def cmd_plan(args) -> int:
    """``repro plan``: the full ranked candidate table.

    Backends: ``--graph`` prices every candidate exactly on the loaded
    graph (incl. the degenerate ordering); ``--graph --sketch K``
    plans from ``K`` sampled degrees; ``--alpha [--n]`` plans from a
    Pareto law through Algorithm 2; ``--alpha --limit`` ranks the
    ``n -> inf`` limits. ``--speed-ratio`` accepts a number,
    ``paper``, or ``calibrated`` (measure this host once).
    """
    from repro.planner import (format_plan, plan_for_distribution,
                               plan_for_graph, plan_for_sketch,
                               plan_in_limit)

    kwargs: dict = {"speed_ratio": args.speed_ratio}
    if args.methods:
        kwargs["methods"] = [m.strip().upper()
                             for m in args.methods.split(",")
                             if m.strip()]
    if args.orders:
        kwargs["orderings"] = tuple(
            o.strip().lower() for o in args.orders.split(",")
            if o.strip())
    if args.graph:
        if args.limit:
            raise SystemExit("--limit needs --alpha, not --graph")
        graph = load_edge_list(args.graph)
        if args.sketch:
            rng = np.random.default_rng(args.seed)
            plan = plan_for_sketch(graph, args.sketch, rng, **kwargs)
        else:
            plan = plan_for_graph(graph, **kwargs)
        source = args.graph
    elif args.alpha is not None:
        dist = _dist_from_args(args)
        if args.limit:
            plan = plan_in_limit(dist, **kwargs)
            source = f"Pareto(alpha={args.alpha}) limit"
        else:
            plan = plan_for_distribution(dist, n=args.n, **kwargs)
            source = f"Pareto(alpha={args.alpha}), n={args.n}"
    else:
        raise SystemExit("pass --graph PATH or --alpha A")
    if args.json:
        import json as _json
        print(_json.dumps({
            "source": plan.source, "n": plan.n,
            "speed_ratio": plan.speed_ratio,
            "confidence": plan.confidence, "winner": plan.winner,
            "entries": plan.to_rows()}, indent=2))
    else:
        print(f"source: {source}")
        print(format_plan(plan, top=args.top))
    if args.record:
        from repro.obs import records as obs_records
        was_enabled = obs.is_enabled()
        if not was_enabled:
            obs.enable()
        record = obs_records.collect(
            "plan",
            config={"source": plan.source, "input": source,
                    "speed_ratio": plan.speed_ratio,
                    "winner": plan.winner,
                    "confidence": plan.confidence,
                    "plan_rows": plan.to_rows()})
        path = obs_records.write_record(record, args.record)
        print(f"run record appended to {path}")
        if not was_enabled:
            obs.disable()
    return 0


def cmd_regimes(args) -> int:
    """``repro regimes``: finiteness classification per alpha."""
    alphas = [float(a) for a in args.alphas]
    print(format_regime_table(sweep_regimes(alphas)))
    return 0


def cmd_table(args) -> int:
    """``repro table``: regenerate the paper's evaluation tables."""
    from repro.experiments.reproduce import reproduce_all
    reproduce_all(args.out, full=args.full, tables=args.names or None)
    return 0


def cmd_predict(args) -> int:
    """``repro predict``: predict + measure cost from a graph file.

    The section 7.5 workflow: fit the empirical degree histogram, run
    the model (50) for each fundamental method under its optimal
    ordering, and compare against the measured cost of the same graph.
    """
    from repro.distributions.base import EmpiricalDegreeDistribution
    from repro.experiments.comparison import (compare_methods,
                                              format_comparison)
    from repro.pipeline import optimal_order_for
    graph = load_edge_list(args.graph)
    positive = graph.degrees[graph.degrees > 0]
    if positive.size == 0:
        raise SystemExit("graph has no edges; nothing to predict")
    empirical = EmpiricalDegreeDistribution(positive)
    print(f"graph: n={graph.n} m={graph.m}  (histogram support "
          f"[{int(positive.min())}, {int(positive.max())}])\n")
    print(f"{'method':>7} {'order':>11} {'model c_n':>10}")
    for method in ("T1", "T2", "E1", "E4"):
        order = optimal_order_for(method)
        # each named order with a limit map shares its name
        predicted = discrete_cost_model(empirical, method, order)
        print(f"{method:>7} {order:>11} {predicted:>10.2f}")
    print("\nmeasured (each method under its optimal ordering):")
    print(format_comparison(compare_methods(graph)))
    return 0


def cmd_sweep(args) -> int:
    """``repro sweep``: Monte-Carlo sim-vs-model across graph sizes.

    Fans degree sequences over a process pool
    (:func:`repro.experiments.parallel.sweep_n_parallel`). The RNG
    streams derive from ``--seed`` via ``SeedSequence.spawn``, so the
    rows are bit-for-bit identical for any ``--workers`` /
    ``--chunksize`` setting.

    ``--record PATH`` appends the full run record (span trees with the
    merged worker subtrees, metric snapshot, sim-vs-model rows) to a
    JSONL file -- the input ``repro export`` and ``repro report``
    consume.
    """
    from repro.experiments.harness import SimulationSpec
    from repro.experiments.parallel import (resolve_workers,
                                            sweep_n_parallel)
    from repro.obs import records as obs_records

    dist = _dist_from_args(args)
    trunc = (root_truncation if args.truncation == "root"
             else linear_truncation)
    ns = [int(float(x)) for x in args.ns.split(",") if x.strip()]
    if not ns:
        raise SystemExit("--ns must list at least one graph size")
    spec = SimulationSpec(
        base_dist=dist, truncation=trunc, method=args.method.upper(),
        permutation=NAMED_ORDERINGS[args.order](),
        limit_map=args.order,
        n_sequences=args.sequences, n_graphs=args.graphs,
        generator=args.generator)
    workers = resolve_workers(args.workers, args.sequences)
    recording = bool(args.record)
    was_enabled = obs.is_enabled()
    if recording:
        obs.enable(memory=getattr(args, "trace_memory", False))
        obs.spans.pop_finished()
    rows = sweep_n_parallel(spec, ns, seed=args.seed,
                            max_workers=args.workers,
                            chunksize=args.chunksize,
                            mp_start=args.mp_start)
    print(f"sweep: {spec.method} under {args.order}, "
          f"alpha={args.alpha}, {args.truncation} truncation, "
          f"{args.sequences}x{args.graphs} instances per n, "
          f"{workers} worker(s), seed={args.seed}")
    print(f"{'n':>9} {'sim c_n':>12} {'model c_n':>12} {'error':>8}")
    for row in rows:
        print(f"{row['n']:>9} {row['sim']:>12.4f} "
              f"{row['model']:>12.4f} {100 * row['error']:>7.1f}%")
    if recording:
        label = f"{spec.method}+{args.order}"
        record = obs_records.collect(
            "sweep",
            config={"method": spec.method, "order": args.order,
                    "alpha": args.alpha, "truncation": args.truncation,
                    "sequences": args.sequences, "graphs": args.graphs,
                    "workers": workers, "seed": args.seed,
                    "rows": [{"label": label, **row} for row in rows]})
        path = obs_records.write_record(record, args.record)
        print(f"\nrun record appended to {path}")
        if not was_enabled:
            obs.disable()
    return 0


def cmd_profile(args) -> int:
    """``repro profile``: run a method/order grid, report phase times.

    Relabel + orient + list each (method, order) combination with the
    observability layer enabled and print a per-phase wall-clock
    breakdown built from the recorded span trees -- the same data the
    JSONL run records carry. ``--record PATH`` appends the full record;
    ``--trace-out`` / ``--flame-out`` export the same spans straight to
    Chrome trace-event JSON / collapsed flame stacks (with
    ``REPRO_PROFILE=1``, per-span cProfile attribution rides along).
    """
    from repro.obs import records as obs_records

    methods = [m.strip().upper() for m in args.methods.split(",")
               if m.strip()]
    orders = [o.strip().lower() for o in args.orders.split(",")
              if o.strip()]
    unknown = sorted(set(orders) - set(NAMED_ORDERINGS))
    if unknown:
        raise SystemExit(f"unknown order(s) {unknown}; choose from "
                         f"{sorted(NAMED_ORDERINGS)}")
    graph = _graph_from_args(args, np.random.default_rng(args.seed))
    source = (args.graph
              or f"synthetic Pareto(alpha={args.alpha}, seed={args.seed})")
    was_enabled = obs.is_enabled()
    obs.enable(memory=getattr(args, "trace_memory", False))
    obs.spans.pop_finished()
    rows = []
    roots = []
    for order in orders:
        for method in methods:
            rng = np.random.default_rng(args.seed)
            with obs.span("profile", method=method, order=order):
                oriented = orient(graph, NAMED_ORDERINGS[order](), rng=rng)
                result = list_triangles(oriented, method, collect=False)
            root = obs.pop_finished()[-1]
            roots.append(root)
            totals = root.phase_totals()
            rows.append((method, order,
                         totals.get("relabel", 0) / 1e6,
                         totals.get("orient", 0) / 1e6,
                         totals.get("list", 0) / 1e6,
                         root.duration_ns / 1e6,
                         result.ops, result.count))
    if not was_enabled:
        obs.disable()
    print(f"phase breakdown on {source} (n={graph.n}, m={graph.m})")
    print(f"{'method':>7} {'order':>11} {'relabel ms':>11} "
          f"{'orient ms':>10} {'list ms':>10} {'total ms':>10} "
          f"{'ops':>12} {'triangles':>10}")
    for method, order, relabel, orient_ms, list_ms, total, ops, tri in rows:
        print(f"{method:>7} {order:>11} {relabel:>11.3f} "
              f"{orient_ms:>10.3f} {list_ms:>10.3f} {total:>10.3f} "
              f"{ops:>12} {tri:>10}")
    if args.record or args.trace_out or args.flame_out:
        record = obs_records.collect(
            "profile",
            config={"source": source, "n": graph.n, "m": graph.m,
                    "seed": args.seed, "methods": methods,
                    "orders": orders},
            spans=roots)
        if args.record:
            path = obs_records.write_record(record, args.record)
            print(f"\nrun record appended to {path}")
        if args.trace_out:
            path = obs.write_trace([record], args.trace_out)
            print(f"trace-event JSON written to {path} "
                  f"(open in https://ui.perfetto.dev)")
        if args.flame_out:
            source_kind = ("profile" if any(r.profile for r in roots)
                           else "spans")
            path = obs.write_collapsed([record], args.flame_out,
                                       source=source_kind)
            print(f"collapsed {source_kind} stacks written to {path} "
                  f"(flamegraph.pl / speedscope)")
    return 0


def _report_records(args):
    """Load + filter the run history for ``report`` / ``export``.

    An empty or missing history is a usage error for every consumer:
    exits non-zero with a clear message (no traceback) naming the sink
    that was read and, when filters ate everything, what they dropped.
    """
    from repro.obs import records as obs_records
    from repro.obs import report as obs_report
    sink = obs_records.runs_path(args.runs)
    records = obs_records.load_records(sink)
    if not records:
        raise SystemExit(
            f"no run records in {sink}; produce some first (repro "
            f"sweep/profile --record, or the benchmarks) or point "
            f"--runs/REPRO_RUNS_FILE at an existing history")
    filtered = obs_report.filter_records(
        records, names=args.name or None,
        git_rev=getattr(args, "git_rev", None),
        last=getattr(args, "last", None))
    if not filtered:
        raise SystemExit(
            f"no run records matched the filters in {sink} "
            f"({len(records)} record(s) total); loosen --name/"
            f"--git-rev/--last")
    return filtered


def cmd_bench(args) -> int:
    """``repro bench``: engine micro-benchmarks from the CLI.

    ``--native-compare`` renders the side-by-side python / native
    ns-per-edge table of :mod:`repro.engine.benchmark` on a
    synthetic (or loaded) graph, and ``--json`` persists the
    machine-readable sidecar (with host metadata, incl. compiler
    version and native thread count) for offline diffing.
    """
    from repro.engine.benchmark import native_compare
    from repro.obs import records as obs_records
    if not args.native_compare:
        raise SystemExit("nothing to do: pass --native-compare")
    rng = np.random.default_rng(args.seed)
    graph = _graph_from_args(args, rng)
    oriented = orient(graph, NAMED_ORDERINGS[args.order](), rng=rng)
    oriented.edge_key_set()  # warm the python engine's membership set
    methods = [m.strip().upper() for m in args.methods.split(",")
               if m.strip()]
    text, data = native_compare(oriented, methods=methods,
                                threads=args.threads,
                                repeats=args.repeats)
    print(text)
    if args.json:
        import json as _json
        data["host"] = obs_records.host_meta()
        with open(args.json, "w") as fh:
            _json.dump(data, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json}")
    return 0


def cmd_report(args) -> int:
    """``repro report``: analytics over the JSONL run history.

    ``trends`` summarizes per-bench wall clock and headline counters
    by git revision; ``divergence`` tabulates the model-vs-simulation
    error cells; ``baseline`` freezes the aggregated history to a JSON
    file; ``compare`` classifies the history against such a baseline
    and (with ``--fail-on-regress``) exits non-zero on regressions --
    the CI perf gate. ``--json`` switches trends/divergence/compare to
    machine-readable output. ``validate`` schema-checks every line of
    the stream -- runs and audit records -- and exits 1
    on any bad line (the CI schema gate).
    """
    import dataclasses
    import json

    from repro.obs import baselines as obs_baselines
    from repro.obs import jsonl
    from repro.obs import records as obs_records
    from repro.obs import report as obs_report

    if args.report_command == "validate":
        path = obs_records.runs_path(args.runs)
        try:
            count, errors = jsonl.validate(path, obs_records.check_line)
        except OSError as exc:
            raise SystemExit(f"cannot read {path}: {exc}")
        if errors:
            print(f"{len(errors)} schema error(s) in {path}:",
                  file=sys.stderr)
            for error in errors[:20]:
                print(f"  {error}", file=sys.stderr)
            return 1
        print(f"{count} line(s) OK in {path}")
        return 0
    records = _report_records(args)
    if args.report_command == "trends":
        rows = obs_report.trend_rows(records)
        if args.json:
            print(json.dumps(rows, indent=2))
        else:
            print(obs_report.format_trends(rows))
        return 0
    if args.report_command == "divergence":
        rows = obs_report.divergence_rows(records)
        if args.json:
            print(json.dumps(rows, indent=2))
        else:
            print(obs_report.format_divergence(rows))
        if args.fail_over is not None:
            worst = max((abs(r["error"]) for r in rows), default=0.0)
            if worst > args.fail_over:
                print(f"FAIL: worst |error| {100 * worst:.1f}% exceeds "
                      f"--fail-over {100 * args.fail_over:.1f}%",
                      file=sys.stderr)
                return 1
        return 0
    if args.report_command == "baseline":
        baseline = obs_baselines.build_baseline(records,
                                                label=args.label)
        path = obs_baselines.save_baseline(baseline, args.out)
        print(f"baseline over {len(records)} record(s) / "
              f"{len(baseline.names())} bench(es) written to {path}")
        return 0
    # compare
    baseline = obs_baselines.load_baseline(args.baseline)
    deltas = obs_baselines.compare(
        records, baseline, rtol_time=args.rtol_time,
        rtol_value=args.rtol_value, atol_error=args.atol_error,
        include_time=not args.no_time)
    regressed = obs_baselines.has_regressions(deltas)
    if args.json:
        print(json.dumps({
            "baseline": dict(baseline.meta),
            "summary": obs_baselines.summarize_deltas(deltas),
            "regressed": regressed,
            "deltas": [dataclasses.asdict(d) for d in deltas],
        }, indent=2))
    else:
        print(obs_baselines.format_deltas(deltas, show=args.show,
                                          baseline_meta=baseline.meta))
    if regressed:
        if args.fail_on_regress:
            print(f"FAIL: regressions detected against {args.baseline}",
                  file=sys.stderr)
            return 1
        if not args.json:
            print("WARNING: regressions detected (pass "
                  "--fail-on-regress to gate on them)")
    return 0


def _audit_records(args):
    """Load the audit lines for ``repro audit``; cold history exits
    non-zero with a clear message (no traceback), like the run-history
    consumers."""
    from repro.obs import audit as obs_audit
    from repro.obs import records as obs_records
    sink = obs_records.runs_path(args.runs)
    records = obs_audit.load_audit(sink)
    if not records:
        raise SystemExit(
            f"no audit records in {sink}; run auto-routed calls "
            f"(method='auto') with REPRO_AUDIT=1 first, or point "
            f"--runs/REPRO_RUNS_FILE at an existing history")
    return records


def cmd_audit(args) -> int:
    """``repro audit``: the model-conformance audit read surface.

    ``summary`` aggregates the stream's audit lines into headline
    regret / prediction-ratio numbers plus the per-(method, ordering,
    graph-class) conformance table (``--fail-over R`` exits non-zero
    when the median realized regret exceeds ``R`` -- the CI gate);
    ``misplans`` lists every diagnosed bad pick; ``calibration``
    inspects (and with
    ``--measure --record`` feeds) the rolling speed-ratio store behind
    ``speed_ratio="calibrated"``.
    """
    import json

    from repro.obs import audit as obs_audit

    if args.audit_command == "calibration":
        from repro.engine import benchmark as bench
        path = bench.calibration_path(args.store)
        host = bench.host_fingerprint()
        if args.measure:
            ratio = bench.measure_speed_ratio()
            print(f"measured speed ratio: {ratio:.4g}x (host={host})")
            if args.record:
                bench.store_calibration(ratio, path=args.store)
                print(f"recorded to {path}")
        store = bench.load_calibration_store(args.store)
        entries = store["entries"]
        if not entries:
            raise SystemExit(
                f"no calibration entries in {path}; measure one with "
                f"`repro audit calibration --measure --record`")
        stored = bench.stored_speed_ratio(args.store)
        if args.json:
            print(json.dumps({"path": str(path), "host": host,
                              "stored_ratio": stored,
                              "entries": entries}, indent=2))
            return 0
        print(f"calibration store {path} ({len(entries)} entries, "
              f"host {host})")
        lines = [f"{'engine':>8} {'ratio':>9} {'age':>10} {'host':>24}"]
        now = time.time()
        for entry in entries:
            age_s = now - float(entry.get("ts", 0.0))
            age = (f"{age_s / 86400:.1f}d" if age_s >= 86400
                   else f"{age_s:.0f}s")
            mark = "" if entry.get("host") == host else "  (other host)"
            lines.append(f"{str(entry.get('engine')):>8} "
                         f"{entry.get('ratio', 0.0):>8.3g}x {age:>10} "
                         f"{str(entry.get('host')):>24}{mark}")
        print("\n".join(lines))
        if stored is not None:
            print(f"current answer: {stored:.4g}x (median of fresh "
                  f"host-matching python entries)")
        else:
            print("no fresh host-matching python entries: "
                  "speed_ratio='calibrated' will fall back to a fresh "
                  "measurement")
        return 0

    records = _audit_records(args)
    if args.audit_command == "misplans":
        threshold = (args.threshold if args.threshold is not None
                     else obs_audit.MISPLAN_REGRET)
        rows = obs_audit.misplan_rows(records, threshold=threshold)
        if args.json:
            print(json.dumps(rows, indent=2))
        else:
            print(obs_audit.format_misplans(rows))
        return 0

    # summary
    summary = obs_audit.audit_summary(records)
    conformance = obs_audit.conformance_rows(records)
    if args.json:
        print(json.dumps({"summary": summary,
                          "conformance": conformance,
                          "misplans": obs_audit.misplan_rows(records)},
                         indent=2))
    else:
        print(obs_audit.format_summary(records))
    if args.fail_over is not None:
        median_regret = summary.get("median_regret")
        if median_regret is not None and (
                math.isinf(median_regret)
                or median_regret > args.fail_over):
            shown = ("inf" if math.isinf(median_regret)
                     else f"{100 * median_regret:.1f}%")
            print(f"FAIL: median realized regret {shown} exceeds "
                  f"--fail-over {100 * args.fail_over:.1f}%",
                  file=sys.stderr)
            return 1
    return 0


def _mem_pipeline(args):
    """Build a graph and run one ledger-attributed count-only pass.

    The array ledger is reset and force-enabled for the run; the pass
    is ``list_triangles(oriented, method, collect=False)`` on the
    default engine, which allocates nothing beyond the graph-side
    arrays the footprint model prices. Returns ``(oriented, count)``.
    """
    from repro.obs import memory as obs_memory

    obs_memory.reset()
    obs_memory.enable()
    rng = np.random.default_rng(args.seed)
    graph = _graph_from_args(args, rng)
    oriented = orient(graph, NAMED_ORDERINGS[args.order](), rng=rng)
    count = list_triangles(oriented, args.method, collect=False).count
    return oriented, count


def cmd_mem(args) -> int:
    """``repro mem``: the memory observability read surface.

    Runs one count-only listing pass (synthetic graph, or
    ``--graph``) with the array ledger on, then reads it back:
    ``summary`` prints the headline attribution plus the conformance
    verdict; ``ledger`` the per-tag table; ``conformance`` the full
    predicted-vs-attributed verdict, exiting non-zero on ``fail`` (a
    CI obs-smoke gate).
    """
    import json

    from repro.obs import memory as obs_memory

    oriented, count = _mem_pipeline(args)
    tolerance = (args.tolerance if args.tolerance is not None
                 else obs_memory.DEFAULT_TOLERANCE)
    report = obs_memory.conformance_report(
        oriented.n, oriented.m, method=args.method, tolerance=tolerance)
    if args.mem_command == "ledger":
        rows = obs_memory.ledger_rows()
        if args.json:
            print(json.dumps(rows, indent=2))
        else:
            print(obs_memory.format_ledger(rows))
        return 0
    if args.mem_command == "conformance":
        if args.json:
            print(json.dumps(report, indent=2))
        else:
            print(obs_memory.format_conformance(report))
        return 0 if report["verdict"] == "pass" else 1
    # summary
    summary = obs_memory.ledger_summary()
    if args.json:
        print(json.dumps({"summary": summary, "conformance": report},
                         indent=2))
    else:
        print(f"graph: n={oriented.n} m={oriented.m} "
              f"method={args.method} triangles={count}")
        print(obs_memory.format_summary(summary, report))
    return 0


def cmd_export(args) -> int:
    """``repro export``: recorded runs -> standard viewer formats.

    ``trace`` emits Chrome trace-event JSON (validated before writing;
    open in Perfetto or ``chrome://tracing``); ``flame`` emits
    collapsed stacks for ``flamegraph.pl`` / speedscope, weighted by
    span self-time (``--source spans``) or attached ``REPRO_PROFILE``
    cProfile stats (``--source profile``).
    """
    from repro.obs import export as obs_export

    records = _report_records(args)
    if args.export_command == "trace":
        trace = obs_export.records_to_trace(records)
        n_events = obs_export.validate_trace(trace)
        path = obs_export.write_trace(records, args.out)
        print(f"{n_events} trace event(s) over {len(records)} "
              f"record(s) written to {path} "
              f"(open in https://ui.perfetto.dev)")
        return 0
    # flame
    lines = obs_export.collapsed_stacks(records, source=args.source)
    if not lines:
        raise SystemExit(
            f"no {args.source} stacks in the selected records"
            + ("" if args.source == "spans"
               else " (record with REPRO_PROFILE=1 to attach "
                    "cProfile attribution)"))
    path = obs_export.write_collapsed(records, args.out,
                                      source=args.source)
    print(f"{len(lines)} collapsed stack(s) written to {path} "
          f"(flamegraph.pl / speedscope)")
    return 0


def _package_version() -> str:
    """Installed package version, falling back to the module constant."""
    try:
        from importlib.metadata import version
        return version("repro")
    except Exception:
        import repro
        return getattr(repro, "__version__", "unknown")


def _print_trace() -> None:
    """Print collected span trees and counters after a traced run."""
    roots = obs.pop_finished()
    if roots:
        print("\n-- trace " + "-" * 31)
        for root in roots:
            print(obs.format_span_tree(root))
    counters = obs.metrics_snapshot().get("counters", {})
    if counters:
        print("-- metrics " + "-" * 29)
        for name in sorted(counters):
            print(f"  {name} = {counters[name]}")


def build_parser() -> argparse.ArgumentParser:
    """Assemble the argparse tree for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Triangle-listing cost analysis (PODS 2017 "
                    "reproduction)")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {_package_version()}")
    trace_parent = argparse.ArgumentParser(add_help=False)
    trace_parent.add_argument(
        "--trace", action="store_true",
        help="record spans/metrics and print them after the run "
             "(also enabled by REPRO_TRACE=1)")
    trace_parent.add_argument(
        "--trace-memory", action="store_true",
        help="with --trace: track peak memory via tracemalloc")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[trace_parent], **kwargs)

    def add_runs_argument(p):
        p.add_argument("--runs", "--runs-file", dest="runs",
                       default=None, metavar="PATH",
                       help="record stream to read (default: "
                            "REPRO_RUNS_FILE or "
                            "benchmarks/results/runs.jsonl)")

    p = add_parser("generate", help="sample and realize a random graph")
    _add_dist_args(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--truncation", choices=("linear", "root"),
                   default="root")
    p.add_argument("--generator", choices=("residual", "configuration"),
                   default="residual")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="edge-list output path")
    p.set_defaults(func=cmd_generate)

    p = add_parser("triangles", help="orient and list triangles")
    p.add_argument("--graph", required=True, help="edge-list path")
    p.add_argument("--method", default="E1",
                   help="T1-T6, E1-E6, L1-L6, or 'auto' (cost-model "
                        "planner picks the cheapest method for the "
                        "chosen order)")
    p.add_argument("--order", choices=sorted(NAMED_ORDERINGS),
                   default="descending")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_triangles)

    p = add_parser("model", help="evaluate the discrete model (50)")
    _add_dist_args(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", default="T1")
    p.add_argument("--map", default="descending", choices=sorted(MAPS))
    p.add_argument("--truncation", choices=("linear", "root"),
                   default="linear")
    p.add_argument("--fast", action="store_true",
                   help="force Algorithm 2 (automatic for n > 1e7)")
    p.add_argument("--eps", type=float, default=1e-5)
    p.set_defaults(func=cmd_model)

    p = add_parser("limit", help="the n -> inf cost limit")
    _add_dist_args(p)
    p.add_argument("--method", default="T1")
    p.add_argument("--map", default="descending", choices=sorted(MAPS))
    p.set_defaults(func=cmd_limit)

    p = add_parser("decide", help="SEI vs hash decision rule")
    p.add_argument("--graph", default=None,
                   help="edge-list path (omit to decide in the limit)")
    p.add_argument("--alpha", type=float, default=1.7)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--speed-ratio", default=None,
                   help="SEI-to-hash per-op speed ratio: a number, "
                        "'paper' (94.8), or 'calibrated' (measure "
                        "this host); default: REPRO_SPEED_RATIO or "
                        "the paper's 94.8")
    p.set_defaults(func=cmd_decide)

    p = add_parser("plan",
                   help="rank every (method, ordering) candidate by "
                        "modeled cost")
    p.add_argument("--graph", default=None,
                   help="edge-list path (exact backend; omit for a "
                        "Pareto law)")
    p.add_argument("--sketch", type=int, default=None, metavar="K",
                   help="with --graph: plan from K sampled degrees "
                        "instead of the exact costs")
    p.add_argument("--alpha", type=float, default=None,
                   help="Pareto tail index (model backend)")
    p.add_argument("--beta", type=float, default=None,
                   help="Pareto scale (default: 30 (alpha - 1))")
    p.add_argument("--n", type=int, default=None,
                   help="with --alpha: graph size (root truncation)")
    p.add_argument("--limit", action="store_true",
                   help="with --alpha: rank the n -> inf limit costs")
    p.add_argument("--speed-ratio", default=None,
                   help="a number, 'paper', or 'calibrated' (default: "
                        "REPRO_SPEED_RATIO or the paper's 94.8)")
    p.add_argument("--methods", default=None,
                   help="comma-separated subset (default: all 18; "
                        "--limit defaults to T1,T2,E1,E4)")
    p.add_argument("--orders", default=None,
                   help="comma-separated subset of "
                        "ascending,descending,rr,crr,opt,degenerate "
                        "(degenerate needs --graph without --sketch)")
    p.add_argument("--top", type=int, default=10,
                   help="rows to print (default 10)")
    p.add_argument("--seed", type=int, default=0,
                   help="rng seed for --sketch sampling")
    p.add_argument("--json", action="store_true",
                   help="also print the full plan as JSON")
    p.add_argument("--record", default=None, metavar="PATH",
                   help="append a run record with the plan table to "
                        "this JSONL file")
    p.set_defaults(func=cmd_plan)

    p = add_parser("regimes", help="finiteness regimes over alpha")
    p.add_argument("alphas", nargs="+",
                   help="tail indices to classify, e.g. 1.3 1.4 1.6 2.1")
    p.set_defaults(func=cmd_regimes)

    p = add_parser("predict",
                       help="predict + measure per-method cost from an "
                            "edge list")
    p.add_argument("--graph", required=True, help="edge-list path")
    p.set_defaults(func=cmd_predict)

    p = add_parser("table",
                       help="regenerate the paper's evaluation tables")
    p.add_argument("names", nargs="*",
                   help="subset, e.g. table05 table12 (default: all)")
    p.add_argument("--out", default="reproduction")
    p.add_argument("--full", action="store_true")
    p.set_defaults(func=cmd_table)

    p = add_parser("sweep",
                   help="parallel Monte-Carlo sweep: sim vs model "
                        "across n")
    _add_dist_args(p)
    p.add_argument("--method", default="T1",
                   help="T1-T6, E1-E6, or L1-L6")
    p.add_argument("--order", choices=sorted(MAPS),
                   default="descending")
    p.add_argument("--ns", default="1000,3000,10000",
                   help="comma-separated graph sizes (floats ok, e.g. "
                        "1e4)")
    p.add_argument("--sequences", type=int, default=4,
                   help="degree sequences per n")
    p.add_argument("--graphs", type=int, default=4,
                   help="graph realizations per sequence")
    p.add_argument("--workers", type=int, default=None,
                   help="process-pool size (default: REPRO_MAX_WORKERS "
                        "or cpu count)")
    p.add_argument("--chunksize", type=int, default=None,
                   help="tasks per worker dispatch (default: "
                        "~4 chunks/worker)")
    p.add_argument("--mp-start", default=None,
                   choices=("fork", "spawn", "forkserver"),
                   help="multiprocessing start method (default: "
                        "the platform default)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--truncation", choices=("linear", "root"),
                   default="root")
    p.add_argument("--generator", choices=("residual", "configuration"),
                   default="residual")
    p.add_argument("--record", default=None, metavar="PATH",
                   help="append the full run record (spans incl. "
                        "worker trees, metrics, sim-vs-model rows) to "
                        "this JSONL file")
    p.set_defaults(func=cmd_sweep)

    p = add_parser("report",
                   help="run-history analytics & perf-regression gate")
    rsub = p.add_subparsers(dest="report_command", required=True)

    def add_report_parser(name, **kwargs):
        rp = rsub.add_parser(name, **kwargs)
        add_runs_argument(rp)
        rp.add_argument("--name", action="append", default=None,
                        metavar="PATTERN",
                        help="only benches matching this fnmatch "
                             "pattern (repeatable)")
        rp.add_argument("--last", type=int, default=None, metavar="K",
                        help="only the most recent K records per bench")
        rp.set_defaults(func=cmd_report)
        return rp

    rp = add_report_parser(
        "trends", help="wall-clock & counter trajectory per git rev")
    rp.add_argument("--git-rev", default=None,
                    help="restrict to one git revision")
    rp.add_argument("--json", action="store_true",
                    help="print the trend rows as JSON")

    rp = add_report_parser(
        "baseline", help="freeze the aggregated history to a JSON file")
    rp.add_argument("--out", required=True, metavar="FILE",
                    help="baseline file to write (convention: "
                         "benchmarks/baselines/<name>.json)")
    rp.add_argument("--label", default=None,
                    help="free-form label stored in the baseline meta")
    rp.add_argument("--git-rev", default=None,
                    help="restrict to records of one git revision")

    rp = add_report_parser(
        "compare",
        help="classify the history against a baseline "
             "(improved/unchanged/regressed)")
    rp.add_argument("--baseline", required=True, metavar="FILE",
                    help="baseline JSON produced by `repro report "
                         "baseline`")
    rp.add_argument("--rtol-time", type=float, default=0.25,
                    help="relative tolerance for wall-clock metrics "
                         "(default 0.25)")
    rp.add_argument("--rtol-value", type=float, default=1e-6,
                    help="relative tolerance for deterministic "
                         "counters/costs (default 1e-6)")
    rp.add_argument("--atol-error", type=float, default=0.05,
                    help="absolute tolerance for |model error| growth "
                         "(default 0.05)")
    rp.add_argument("--no-time", action="store_true",
                    help="ignore wall-clock metrics (cross-machine CI "
                         "mode: gate on deterministic cells only)")
    rp.add_argument("--fail-on-regress", action="store_true",
                    help="exit non-zero when any cell regressed")
    rp.add_argument("--show", choices=("changed", "all"),
                    default="changed",
                    help="print only changed cells (default) or all")
    rp.add_argument("--git-rev", default=None,
                    help="restrict to records of one git revision")
    rp.add_argument("--json", action="store_true",
                    help="print summary + every delta as JSON")

    rp = add_report_parser(
        "divergence", help="model-vs-simulation error table")
    rp.add_argument("--fail-over", type=float, default=None,
                    metavar="ERR",
                    help="exit non-zero if any cell's median |error| "
                         "exceeds this fraction")
    rp.add_argument("--json", action="store_true",
                    help="print the divergence rows as JSON")

    rp = rsub.add_parser(
        "validate",
        help="schema-check every line of the record stream; exit "
             "non-zero on errors")
    add_runs_argument(rp)
    rp.set_defaults(func=cmd_report)

    p = add_parser("audit",
                   help="planner model-conformance audit "
                        "(predicted vs actual)")
    asub = p.add_subparsers(dest="audit_command", required=True)

    def add_audit_parser(name, **kwargs):
        ap = asub.add_parser(name, **kwargs)
        add_runs_argument(ap)
        ap.set_defaults(func=cmd_audit)
        return ap

    ap = add_audit_parser(
        "summary",
        help="headline regret/calibration numbers + conformance table")
    ap.add_argument("--json", action="store_true",
                    help="print summary, conformance rows, and "
                         "misplans as JSON")
    ap.add_argument("--fail-over", type=float, default=None,
                    metavar="REGRET",
                    help="exit non-zero if the median realized regret "
                         "exceeds this fraction (the CI gate)")

    ap = add_audit_parser(
        "misplans", help="diagnosed bad picks, worst regret first")
    ap.add_argument("--threshold", type=float, default=None,
                    metavar="REGRET",
                    help="realized-regret threshold (default: the "
                         "committed 10%% misplan threshold)")
    ap.add_argument("--json", action="store_true",
                    help="print the misplan rows as JSON")

    ap = add_audit_parser(
        "calibration",
        help="inspect/feed the rolling speed-ratio store")
    ap.add_argument("--store", default=None, metavar="PATH",
                    help="store file (default: REPRO_CALIBRATION_FILE "
                         "or benchmarks/baselines/speed_ratio.json)")
    ap.add_argument("--measure", action="store_true",
                    help="measure a fresh ratio on this host first")
    ap.add_argument("--record", action="store_true",
                    help="with --measure: append the measurement to "
                         "the store")
    ap.add_argument("--json", action="store_true",
                    help="print the store and resolved ratio as JSON")

    p = add_parser("mem",
                   help="memory observability: array ledger + "
                        "footprint conformance")
    msub = p.add_subparsers(dest="mem_command", required=True)

    def add_mem_parser(name, **kwargs):
        mp = msub.add_parser(name, **kwargs)
        mp.add_argument("--graph", default=None, metavar="PATH",
                        help="edge-list to attribute (omit for a "
                             "synthetic Pareto graph)")
        mp.add_argument("--n", type=int, default=100_000,
                        help="synthetic graph size (default 100000)")
        mp.add_argument("--alpha", type=float, default=1.7,
                        help="synthetic Pareto tail index "
                             "(default 1.7)")
        mp.add_argument("--beta", type=float, default=None,
                        help="Pareto scale (default: 30 (alpha - 1))")
        mp.add_argument("--seed", type=int, default=7,
                        help="RNG seed (default 7)")
        mp.add_argument("--method", default="E1",
                        help="listing method to run (default E1)")
        mp.add_argument("--order", choices=sorted(NAMED_ORDERINGS),
                        default="descending",
                        help="vertex ordering (default descending)")
        mp.add_argument("--tolerance", type=float,
                        default=None, metavar="FRAC",
                        help="conformance tolerance as a fraction "
                             "(default 0.10)")
        mp.add_argument("--json", action="store_true",
                        help="print the result as JSON")
        mp.set_defaults(func=cmd_mem)
        return mp

    add_mem_parser("summary",
                   help="headline attributed bytes + conformance "
                        "verdict")
    add_mem_parser("ledger", help="the per-tag attribution table")
    add_mem_parser("conformance",
                   help="predicted-vs-attributed footprint verdict; "
                        "exit non-zero on fail (the CI gate)")

    p = add_parser("export",
                   help="recorded runs -> Chrome trace JSON / flame "
                        "stacks")
    esub = p.add_subparsers(dest="export_command", required=True)

    def add_export_parser(name, **kwargs):
        ep = esub.add_parser(name, **kwargs)
        add_runs_argument(ep)
        ep.add_argument("--name", action="append", default=None,
                        metavar="PATTERN",
                        help="only benches matching this fnmatch "
                             "pattern (repeatable)")
        ep.add_argument("--last", type=int, default=None, metavar="K",
                        help="only the most recent K records per bench")
        ep.add_argument("--out", required=True, metavar="FILE",
                        help="output file to write")
        ep.set_defaults(func=cmd_export)
        return ep

    add_export_parser(
        "trace",
        help="Chrome trace-event JSON (Perfetto / chrome://tracing)")
    ep = add_export_parser(
        "flame",
        help="collapsed stacks (flamegraph.pl / speedscope)")
    ep.add_argument("--source", choices=("spans", "profile"),
                    default="spans",
                    help="weight by span self-time (default) or "
                         "attached REPRO_PROFILE cProfile stats")

    p = add_parser("profile",
                   help="phase-time breakdown over a method/order grid")
    p.add_argument("--graph", default=None,
                   help="edge-list path (omit to profile a synthetic "
                        "graph)")
    p.add_argument("--n", type=int, default=3000,
                   help="synthetic graph size (ignored with --graph)")
    p.add_argument("--alpha", type=float, default=1.7,
                   help="synthetic Pareto tail index")
    p.add_argument("--beta", type=float, default=None,
                   help="Pareto scale (default: 30 (alpha - 1))")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--methods", default="T1,T2,E1,E4,L1,L3",
                   help="comma-separated listing methods")
    p.add_argument("--orders", default="descending",
                   help="comma-separated orderings "
                        f"({', '.join(sorted(NAMED_ORDERINGS))})")
    p.add_argument("--record", default=None, metavar="PATH",
                   help="also append the full run record to this JSONL "
                        "file")
    p.add_argument("--trace-out", default=None, metavar="FILE",
                   help="also write Chrome trace-event JSON of the "
                        "profiled spans")
    p.add_argument("--flame-out", default=None, metavar="FILE",
                   help="also write collapsed flame stacks of the "
                        "profiled spans")
    p.set_defaults(func=cmd_profile)

    p = add_parser("bench",
                   help="engine micro-benchmarks "
                        "(--native-compare: py/native ns/edge)")
    p.add_argument("--native-compare", action="store_true",
                   help="compare the python and native engines")
    p.add_argument("--graph", default=None,
                   help="edge-list path (omit to bench a synthetic "
                        "graph)")
    p.add_argument("--n", type=int, default=3000,
                   help="synthetic graph size (ignored with --graph)")
    p.add_argument("--alpha", type=float, default=1.7,
                   help="synthetic Pareto tail index")
    p.add_argument("--beta", type=float, default=None,
                   help="Pareto scale (default: 30 (alpha - 1))")
    p.add_argument("--seed", type=int, default=3)
    p.add_argument("--order", default="descending",
                   choices=sorted(NAMED_ORDERINGS))
    p.add_argument("--methods", default=",".join(
        ("T1", "T2", "E1", "E4", "L1", "L3")),
        help="comma-separated listing methods")
    p.add_argument("--threads", type=int, default=None,
                   help="native thread count (default: "
                        "REPRO_NATIVE_THREADS / cpu count)")
    p.add_argument("--repeats", type=int, default=3,
                   help="timing repeats per cell (best is kept)")
    p.add_argument("--json", default=None, metavar="FILE",
                   help="also write the machine-readable comparison")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    """Entry point: parse arguments and dispatch.

    ``--trace`` (or ``REPRO_TRACE=1``) enables the observability layer
    for the dispatched subcommand and prints the recorded span trees
    and metric counters afterwards.
    """
    args = build_parser().parse_args(argv)
    trace = getattr(args, "trace", False)
    if trace:
        obs.enable(memory=getattr(args, "trace_memory", False))
        obs.spans.pop_finished()
    else:
        trace = obs.enable_from_env()
    try:
        rc = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe (`repro audit summary | head`):
        # point stdout at devnull so the exit-time flush cannot raise
        # again, and exit as a shell does on SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        rc = 141
    if trace:
        _print_trace()
        obs.disable()
    return rc


if __name__ == "__main__":
    sys.exit(main())
