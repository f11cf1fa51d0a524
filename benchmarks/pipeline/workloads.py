"""One benchmark workload, run in a fresh process started by ``run.py``.

The process builds the workload's inputs from ``--seed``, repeats one
job for ``--seconds`` (at least ``MIN_JOBS`` times), checks every
output, and prints one JSON line. With ``--trace 1`` it then replays
every job with each public call into a layer wrapped in a span,
requires the replay to reproduce the untraced result exactly, runs
diagnostic probes outside the job spans, and writes the spans and a
Chrome trace.

A job is the unit a user waits for:

* ``mc-residual`` -- one ``simulated_vs_model`` call (a Table 6-10
  cell: T1 + descending, residual generator);
* ``mc-degenerate`` -- one ``simulate_cost`` call (E1 + degenerate
  order, configuration generator);
* ``list-collect`` -- ``orient`` + ``list_triangles(collect=True)`` on
  one triangle-rich graph;
* ``pipeline-auto`` -- one round of ``run_pipeline(method="auto")``
  queries over a pool of graphs (closed loop, one client, no think
  time); its job time is reported per query.

Every job of a run repeats the same inputs, so that the jobs' times
differ only by the host's noise and their median is robust to bursts
of contention from other processes; the seed varies the inputs
between runs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import resource
import statistics
import sys
import time

import numpy as np

import repro.obs
from repro.core.costs import method_cost, per_node_cost
from repro.core.decision import decide_on_graph
from repro.distributions.pareto import DiscretePareto
from repro.distributions.sampling import sample_degree_sequence
from repro.distributions.truncation import linear_truncation, root_truncation
from repro.engine import native, run_numpy
from repro.experiments.harness import (
    MODEL_ERROR_WARN_DEFAULT,
    SimulationSpec,
    check_model_divergence,
    model_cost,
    simulate_cost,
    simulated_vs_model,
)
from repro.graphs.digraph import OrientedGraph
from repro.graphs.generators import generate_graph
from repro.listing.api import list_triangles
from repro.obs import audit, memory
from repro.obs.export import validate_trace
from repro.obs.records import git_revision, host_meta
from repro.orientations.degenerate import DegenerateOrder
from repro.orientations.permutations import DescendingDegree
from repro.orientations.relabel import orient
from repro.pipeline import PipelineReport, run_pipeline
from repro.planner import GRAPH_ORDERINGS, Candidate, plan_for_graph

import tracer as tr

#: Sizes per scale. ``--smoke`` keeps every code path at n ~ 2000.
SCALES = {
    "full": {
        "mc-residual": {"n": 10_000, "sequences": 1, "graphs": 1},
        "mc-degenerate": {"n": 20_000, "sequences": 1, "graphs": 1},
        "list-collect": {"n": 10_000},
        "pipeline-auto": {"n": 10_000, "pool": 12},
    },
    "smoke": {
        "mc-residual": {"n": 2_000, "sequences": 1, "graphs": 2},
        "mc-degenerate": {"n": 2_000, "sequences": 1, "graphs": 2},
        "list-collect": {"n": 2_000},
        "pipeline-auto": {"n": 2_000, "pool": 10},
    },
}

#: pipeline-auto's graph laws: a heavy tail, the paper's default, and
#: a light tail, so the planner prices different regimes.
POOL_LAWS = ((1.5, linear_truncation), (1.7, root_truncation),
             (2.2, root_truncation))

#: Jobs a run makes even when ``--seconds`` has already passed.
MIN_JOBS = 2

#: Repeats of the warm count probe; its median is reported.
WARM_REPEATS = 5


def reference_count(graph) -> int:
    """Triangle count by the pure-NumPy engine (no compiled kernels)."""
    oriented = OrientedGraph(graph, DescendingDegree().labels_for(graph))
    return run_numpy(oriented, "E1", collect=False, use_native=False).count


def _array_bytes(obj) -> int:
    """Bytes held by the NumPy arrays among ``obj``'s attributes."""
    return sum(value.nbytes for value in vars(obj).values()
               if isinstance(value, np.ndarray))


def _generate(t, degrees, rng, method):
    with t.span("generators", n=int(degrees.size),
                stubs=int(degrees.sum())) as attrs:
        graph = generate_graph(degrees, rng, method=method)
    attrs.update(m=graph.m, bytes=_array_bytes(graph))
    return graph


def _orient(t, graph, permutation, **kwargs):
    """``orient`` as its two public calls, each in its own span."""
    with t.span("relabel", n=graph.n):
        labels = permutation.labels_for(graph, **kwargs)
    with t.span("digraph", m=graph.m) as attrs:
        oriented = OrientedGraph(graph, labels)
    attrs["bytes"] = _array_bytes(oriented)
    return labels, oriented


class Workload:
    """Inputs, the real job, its traced replay, and the checks."""

    #: Calls to the program one job makes; job time is reported per call.
    calls_per_job = 1

    def __init__(self, scale: dict):
        self.scale = scale
        self.probe_target = None  # (graph, labels) the probes run on
        self.call_s: list[float] = []  # per-call latencies, if a job has many

    def setup(self, seed: int, t) -> None:
        raise NotImplementedError

    def compute_references(self) -> None:
        """Independent answers for :meth:`check`; not part of set-up."""

    def job(self):
        """The untraced call sequence a user makes; returns its result."""
        raise NotImplementedError

    def replay(self, t):
        """The job again, one span per layer; returns what ``job`` does."""
        raise NotImplementedError

    def digest(self, result):
        """A small JSON-able value equal for equal outputs."""
        raise NotImplementedError

    def check(self, digest) -> str | None:
        """A failure message, or None when the output is correct."""
        raise NotImplementedError


class MonteCarlo(Workload):
    """One harness cell per job, every job from ``default_rng(seed)``."""

    def __init__(self, scale: dict, spec: SimulationSpec, with_model: bool):
        super().__init__(scale)
        self.spec = spec
        self.with_model = with_model

    def setup(self, seed, t):
        self.seed = seed

    def job(self):
        rng = np.random.default_rng(self.seed)
        if self.with_model:
            return simulated_vs_model(self.spec, self.scale["n"], rng)
        return (simulate_cost(self.spec, self.scale["n"], rng),)

    def digest(self, result):
        return list(result)

    def replay(self, t):
        # mirrors repro.experiments.harness.simulate_cost call for call;
        # the exact-equality check on the digest catches any drift
        spec, n = self.spec, self.scale["n"]
        rng = np.random.default_rng(self.seed)
        dist_n = spec.base_dist.truncate(spec.truncation(n))
        costs = []
        for __ in range(spec.n_sequences):
            with t.span("sampling", n=n):
                degrees = sample_degree_sequence(dist_n, n, rng)
            for __ in range(spec.n_graphs):
                graph = _generate(t, degrees, rng, spec.generator)
                labels, oriented = _orient(t, graph, spec.permutation,
                                           rng=rng,
                                           tie_break=spec.tie_break)
                with t.span("costs"):
                    costs.append(per_node_cost(
                        spec.method, oriented.out_degrees,
                        oriented.in_degrees))
                if self.probe_target is None:
                    self.probe_target = (graph, labels)
        sim = float(np.mean(costs))
        if not self.with_model:
            return (sim,)
        with t.span("costs"):
            model = model_cost(spec, n)
        return sim, model, check_model_divergence(spec, n, sim, model)

    def check(self, digest):
        sim = digest[0]
        if not (math.isfinite(sim) and sim > 0):
            return f"simulated cost {sim!r} is not finite and positive"
        if self.with_model:
            error = digest[2]
            if not abs(error) <= MODEL_ERROR_WARN_DEFAULT:
                return (f"|model/sim - 1| = {abs(error):.4f} exceeds "
                        f"{MODEL_ERROR_WARN_DEFAULT}")
        return None


class ListCollect(Workload):
    """Orient + collect on one graph built in setup.

    The degree sequence is the alpha = 1.5, linear-truncation law taken
    at its quantile grid, so the seed changes the wiring but not the
    degrees. With i.i.d. degrees the triangle count (hence the job
    time) swings about 15% between seeds; on the grid its interquartile
    spread over seeds is about 1%.
    """

    def setup(self, seed, t):
        n = self.scale["n"]
        rng = np.random.default_rng(seed)
        dist = DiscretePareto.paper_parameterization(1.5).truncate(
            linear_truncation(n))
        with t.span("sampling", n=n):
            degrees = np.asarray(dist.quantile((np.arange(n) + 0.5) / n),
                                 dtype=np.int64)
            if degrees.sum() % 2:
                degrees[np.argmin(degrees)] += 1
        self.graph = _generate(t, degrees, rng, "configuration")
        self.probe_target = (self.graph,
                             DescendingDegree().labels_for(self.graph))

    def compute_references(self):
        self.reference = reference_count(self.graph)

    def job(self):
        oriented = orient(self.graph, DescendingDegree())
        return list_triangles(oriented, "E1", collect=True)

    def digest(self, result):
        return [result.count, len(result.triangles),
                hash(tuple(result.triangles))]

    def replay(self, t):
        __, oriented = _orient(t, self.graph, DescendingDegree())
        with t.span("listing"):
            return list_triangles(oriented, "E1", collect=True)

    def check(self, digest):
        count, listed, __ = digest
        if not count == listed == self.reference:
            return (f"count {count}, {listed} listed, "
                    f"reference {self.reference}")
        return None


class PipelineAuto(Workload):
    """A round of auto-routed queries, one per graph of a seeded pool.

    The pool mixes three laws whose queries cost ~0.12-0.19 s at
    n = 1e4; a per-query median would jump between those groups, while
    a round's time is the same mix every time.
    """

    def __init__(self, scale):
        super().__init__(scale)
        self.calls_per_job = scale["pool"]

    def setup(self, seed, t):
        n = self.scale["n"]
        rng = np.random.default_rng(seed)
        self.pool = []
        for k in range(self.scale["pool"]):
            alpha, truncation = POOL_LAWS[k % len(POOL_LAWS)]
            dist = DiscretePareto.paper_parameterization(alpha).truncate(
                truncation(n))
            with t.span("sampling", n=n):
                degrees = sample_degree_sequence(dist, n, rng)
            self.pool.append(_generate(t, degrees, rng, "configuration"))
        self.probe_target = (self.pool[0],
                             DescendingDegree().labels_for(self.pool[0]))

    def compute_references(self):
        self.references = [reference_count(g) for g in self.pool]

    def job(self):
        reports = []
        for graph in self.pool:
            start = time.perf_counter()
            reports.append(run_pipeline(graph, method="auto",
                                        collect=False))
            self.call_s.append(time.perf_counter() - start)
        return reports

    def digest(self, reports):
        return [[r.count, r.result.method, r.order] for r in reports]

    def replay(self, t):
        return [self._replay_query(t, graph) for graph in self.pool]

    def _replay_query(self, t, graph):
        # mirrors repro.pipeline.run_pipeline(method="auto") call for call
        with t.span("planner") as attrs:
            plan = plan_for_graph(graph, orderings=GRAPH_ORDERINGS)
        attrs["candidates"] = len(plan.entries)
        method, order = plan.best.method, plan.best.ordering
        permutation = Candidate(method, order).permutation()
        __, oriented = _orient(t, graph, permutation, rng=None)
        with t.span("listing"):
            result = list_triangles(oriented, method, collect=False)
        with t.span("costs"):
            return PipelineReport(result=result, order=order,
                                  per_node_cost=method_cost(oriented, method),
                                  decision=decide_on_graph(oriented))

    def check(self, digest):
        counts = [query[0] for query in digest]
        if counts != self.references:
            return f"counts {counts}, references {self.references}"
        return None


def make(name: str, scale: dict) -> Workload:
    if name == "mc-residual":
        spec = SimulationSpec(
            base_dist=DiscretePareto.paper_parameterization(1.7),
            truncation=root_truncation, method="T1",
            permutation=DescendingDegree(), limit_map="descending",
            n_sequences=scale["sequences"], n_graphs=scale["graphs"],
            generator="residual")
        return MonteCarlo(scale, spec, with_model=True)
    if name == "mc-degenerate":
        # limit_map is unused by simulate_cost: the degenerate order
        # depends on the graph and has no limiting map
        spec = SimulationSpec(
            base_dist=DiscretePareto.paper_parameterization(1.5),
            truncation=linear_truncation, method="E1",
            permutation=DegenerateOrder(), limit_map="descending",
            n_sequences=scale["sequences"], n_graphs=scale["graphs"],
            generator="configuration")
        return MonteCarlo(scale, spec, with_model=False)
    if name == "list-collect":
        return ListCollect(scale)
    if name == "pipeline-auto":
        return PipelineAuto(scale)
    raise ValueError(f"unknown workload {name!r}; choose from "
                     f"{list(SCALES['full'])}")


def _timed(fn, *args):
    start = time.perf_counter()
    value = fn(*args)
    return time.perf_counter() - start, value


def probe(workload: Workload, t) -> tuple[dict, str | None]:
    """Diagnostic calls on the probe graph, in spans outside any job.

    A fresh orientation pays engine setup on its first count; the
    median warm count is the kernel alone; collect minus warm count is
    emission; the stream drain is the array path for reference.
    Returns the probe metrics and a failure message or None.
    """
    graph, labels = workload.probe_target
    with t.span("probe"):
        oriented = OrientedGraph(graph, labels)
        with t.span("engine.first_count"):
            first, __ = _timed(list_triangles, oriented, "E1", False)
        warm = []
        for __ in range(WARM_REPEATS):
            with t.span("native.count"):
                warm.append(_timed(list_triangles, oriented, "E1", False)[0])
        stats = native.last_stats() or {"ops": 0, "triangles": 0}
        warm_s = statistics.median(warm)
        with t.span("listing.collect"):
            collect_s, result = _timed(list_triangles, oriented, "E1", True)
        triangles = result.count
        del result
        with t.span("listing.stream"):
            stream_s, streamed = _timed(_drain, oriented)
        if not tr.named(t.roots, "planner"):
            with t.span("planner") as attrs:
                plan = plan_for_graph(graph)
            attrs["candidates"] = len(plan.entries)
    emit_s = collect_s - warm_s
    metrics = {
        "engine.setup_s": first - warm_s,
        "native.busy_s": warm_s,
        "native.ns_per_edge": warm_s * 1e9 / max(graph.m, 1),
        "native.ops": stats["ops"],
        "native.triangles": stats["triangles"],
        "listing.emit_s": emit_s,
        "listing.ns_per_triangle": emit_s * 1e9 / max(triangles, 1),
        "listing.stream_s": stream_s,
    }
    if streamed is not None and streamed != triangles:
        return metrics, (f"probe: stream drained {streamed} triangles, "
                         f"collect listed {triangles}")
    return metrics, None


def _drain(oriented):
    batches = native.stream_triangles(oriented)
    if batches is None:  # compiled kernels unavailable
        return None
    return sum(batch.shape[0] for batch in batches)


def per_layer(t, job_s: list[float], replay_s: list[float],
              probes: dict) -> dict:
    """The traced pass's per-layer metrics (see README.md)."""
    roots = t.roots
    breakdown = tr.job_breakdown(roots)
    busy, total = breakdown["busy_ns"], breakdown["total_ns"]
    planner = tr.named(roots, "planner")
    generated = tr.named(roots, "generators")
    oriented = tr.named(roots, "digraph")
    metrics = {f"{layer}.share": busy[layer] / total
               for layer in tr.LAYERS}
    metrics.update({
        "sampling.ns_per_node": tr.rate(roots, "sampling", "n"),
        "generators.ns_per_edge": tr.rate(roots, "generators", "m"),
        "generators.edge_yield": (
            sum(s["attrs"]["m"] for s in generated)
            / (sum(s["attrs"]["stubs"] for s in generated) / 2)),
        "generators.bytes": statistics.mean(
            s["attrs"]["bytes"] for s in generated),
        "relabel.ns_per_node": tr.rate(roots, "relabel", "n"),
        "digraph.ns_per_edge": tr.rate(roots, "digraph", "m"),
        "digraph.bytes": statistics.mean(
            s["attrs"]["bytes"] for s in oriented),
        "engine.build_s": tr.named(roots, "engine.build")[0]["duration_ns"]
        / 1e9,
        "planner.busy_s": statistics.mean(
            s["duration_ns"] for s in planner) / 1e9,
        "planner.candidates": planner[-1]["attrs"]["candidates"],
        "harness.self_s": busy["harness"] / breakdown["jobs"] / 1e9,
        "obs.trace_overhead": sum(replay_s) / sum(job_s) - 1.0,
    })
    metrics.update(probes)
    return metrics


def _repro_env() -> dict:
    """What the program would read from the environment or obs state."""
    return {
        "env": sorted(k for k in os.environ if k.startswith("REPRO_")),
        "obs": repro.obs.is_enabled(),
        "audit": audit.is_enabled(),
        "mem_ledger": memory.is_enabled(),
    }


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
        setup_only: bool, out_dir: str) -> dict:
    scale = SCALES["smoke" if smoke else "full"][name]
    t = tr.Tracer() if trace else tr.NULL
    workload = make(name, scale)
    with t.span("setup", workload=name, seed=seed):
        with t.span("engine.build"):
            native.available()
        workload.setup(seed, t)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    if setup_only:
        return {"ready": ready}

    job_s, digests = [], []
    start = time.perf_counter()
    while len(job_s) < MIN_JOBS or time.perf_counter() - start < seconds:
        elapsed, result = _timed(workload.job)
        job_s.append(elapsed)
        digests.append(workload.digest(result))
        del result
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with t.span("reference"):
        workload.compute_references()
    # one entry per check: a failure message, or None when it passed
    checks = [failure and f"job {i}: {failure}"
              for i, failure in enumerate(map(workload.check, digests))]
    env = _repro_env()
    checks.append((env["env"] or env["obs"] or env["audit"]
                   or env["mem_ledger"])
                  and f"program saw observability state {env}")

    out = {"ready": ready,
           "job_s": [s / workload.calls_per_job for s in job_s],
           "call_s": workload.call_s or job_s,
           "peak_rss_mb": peak_rss_mb, "digests": digests,
           "repro_env": env}
    if trace:
        replay_s = []
        for i, digest in enumerate(digests):
            with t.span("job", index=i):
                result = workload.replay(t)
            replay_s.append(t.roots[-1]["duration_ns"] / 1e9)
            replayed = workload.digest(result)
            del result
            checks.append(replayed != digest and
                          f"job {i}: traced replay {replayed} != "
                          f"untraced {digest}")
        probes, failure = probe(workload, t)
        checks.append(failure)
        out["per_layer"] = per_layer(t, job_s, replay_s, probes)
        checks.append(_write_trace(t, name, seed, out_dir))
    out.update(checks=len(checks), failures=[c for c in checks if c],
               host={**host_meta(), "numpy": np.__version__,
                     "git_rev": git_revision()})
    return out


def _write_trace(t, name: str, seed: int, out_dir: str) -> str | None:
    """Write spans and a validated Chrome trace; a failure message or None."""
    document = tr.chrome_trace(f"{name} seed {seed}", t.roots)
    try:
        validate_trace(document)
    except ValueError as exc:
        return f"trace output: {exc}"
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{name}-{seed}.spans.json").write_text(json.dumps(t.roots) + "\n")
    (out / f"{name}-{seed}.trace.json").write_text(json.dumps(document) + "\n")
    return None


def main(argv: list[str]) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=list(SCALES["full"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    return run(args.workload, args.seed, args.seconds, bool(args.trace),
               args.smoke, args.setup_only, args.out)


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])), flush=True)
