"""Multiprocess Monte-Carlo for the simulation harness.

The paper averages every cell over 10,000 graph instances; a single
Python process cannot afford that, but the instances are embarrassingly
parallel. This runner fans :class:`SimulationSpec` cells out over a
process pool with independent, reproducibly-derived RNG streams
(``numpy.random.SeedSequence.spawn``) and chunked scheduling, and
aggregates per-instance costs *and* per-worker observability back into
the parent:

* every worker runs its sequence under the same ``sequence``/
  ``sample``/``list`` span structure the serial harness emits, ships
  the finished span trees and the metric-counter snapshot home as
  plain dicts, and the parent reattaches them under its ``cell`` span
  (:meth:`repro.obs.spans.Span.from_dict`) and folds the counters into
  its registry (:func:`repro.obs.metrics.merge_counters`); with the
  memory ledger on, workers ship their ledger rows too and the parent
  folds them in (:func:`repro.obs.memory.merge_ledger`), so a run
  record's ``memory`` has the same tags at any worker count;
* ``harness.instances`` is incremented in the parent exactly as
  :func:`repro.experiments.harness.simulate_cost` does;
* every task reports ``(pid, wall_ns)`` back and the parent publishes
  per-worker telemetry (``parallel.tasks``, ``parallel.task_ms``,
  idle share, imbalance ratio -- see
  :func:`_publish_worker_telemetry`) and annotates the ``cell`` span
  with it.

Results are bit-for-bit identical for a fixed seed regardless of
worker count or chunk size: the seed derivation, task order, and
aggregation order never depend on the pool geometry.

Worker-count resolution: an explicit ``max_workers`` argument wins,
then the ``REPRO_MAX_WORKERS`` environment variable, then
``min(n_tasks, os.cpu_count())``.
"""

from __future__ import annotations

import concurrent.futures
import math
import multiprocessing
import os
import time

import numpy as np

from repro.experiments.harness import (check_model_divergence,
                                       model_cost, sequence_costs)
from repro.obs import memory as _memory
from repro.obs import metrics as _metrics
from repro.obs import spans as _spans
from repro.obs.spans import Span, span

__all__ = [
    "resolve_chunksize",
    "resolve_mp_context",
    "resolve_workers",
    "simulate_cost_parallel",
    "simulated_vs_model_parallel",
    "sweep_n_parallel",
]


def resolve_workers(max_workers: int | None, n_tasks: int) -> int:
    """Pick the pool size: argument > ``REPRO_MAX_WORKERS`` > cpus.

    The environment override and the default are both capped by the
    task count (more workers than tasks is pure overhead); an explicit
    argument is taken as-is.
    """
    if max_workers is not None:
        return max(1, int(max_workers))
    raw = os.environ.get("REPRO_MAX_WORKERS", "")
    if raw:
        try:
            return max(1, min(int(raw), n_tasks))
        except ValueError:
            pass
    return max(1, min(n_tasks, os.cpu_count() or 1))


def resolve_chunksize(chunksize: int | None, n_tasks: int,
                      workers: int) -> int:
    """Tasks handed to a worker per round trip.

    Default: ~4 chunks per worker (``ceil(n_tasks / (4 * workers))``)
    -- large enough to amortize pickling, small enough to keep the
    pool load-balanced when sequence costs vary.
    """
    if chunksize is not None:
        return max(1, int(chunksize))
    return max(1, math.ceil(n_tasks / (4 * workers)))


def resolve_mp_context(mp_start: str | None = None):
    """Multiprocessing context: argument, else the platform default.

    ``"fork"`` (the Linux default) inherits the parent's modules;
    ``"spawn"`` re-imports everything in a fresh interpreter -- the
    only option on macOS/Windows and the mode the spawn-parity tests
    exercise. ``None``/empty falls back to the platform default.
    """
    method = (mp_start or "").strip().lower()
    if not method:
        return None
    return multiprocessing.get_context(method)


def _run_one_sequence(task):
    """Worker: one degree sequence, ``n_graphs`` realizations.

    ``task`` is ``(spec, n, seq_index, seed, bootstrap)``. With
    ``bootstrap=None`` (serial in-process call) the ambient
    observability state is used directly -- spans nest under the open
    ``cell`` span, metrics go to the process registry -- and the obs
    fields of the return value are ``None``. In a child process
    ``bootstrap`` carries the parent's ``(spans_on, metrics_on,
    ledger_on)`` flags.

    The worker enables a fresh obs state, runs, and returns the
    collected span dicts, counter snapshot and memory-ledger
    ``(peak_bytes, rows)`` for the parent to merge.
    Every path also returns a telemetry tuple ``(pid, wall_ns)`` so
    the parent can attribute per-task wall time to the worker process
    that executed it (one ``perf_counter_ns`` pair per *sequence*, far
    outside any hot loop).
    """
    spec, n, seq_index, seed, bootstrap = task
    in_child = bootstrap is not None
    t0 = time.perf_counter_ns()
    if in_child:
        spans_on, metrics_on, ledger_on = bootstrap
        _spans.reset()
        _metrics.reset()
        _memory.reset()
        if spans_on:
            _spans.enable()
        if metrics_on:
            _metrics.enable()
        if ledger_on:
            _memory.enable()
    rng = np.random.default_rng(seed)
    dist_n = spec.base_dist.truncate(spec.truncation(n))
    with span("sequence", index=seq_index, n=n) as seq_span:
        if in_child:
            # Marks the reattached subtree with its worker process so
            # the trace exporter can lay it on its own thread row.
            seq_span.annotate(worker_pid=os.getpid())
        costs = list(sequence_costs(spec, dist_n, n, rng))
    tele = (os.getpid(), time.perf_counter_ns() - t0)
    if not in_child:
        return costs, None, None, None, tele
    counters = _metrics.snapshot()["counters"] if metrics_on else None
    span_dicts = ([s.to_dict() for s in _spans.pop_finished()]
                  if spans_on else None)
    ledger = ((_memory.peak_bytes(), _memory.ledger_rows())
              if ledger_on else None)
    if spans_on:
        _spans.disable()
    if metrics_on:
        _metrics.disable()
    if ledger_on:
        _memory.disable()
    return costs, counters, span_dicts, ledger, tele


def simulate_cost_parallel(spec, n: int, seed=0,
                           max_workers: int | None = None,
                           chunksize: int | None = None,
                           mp_start: str | None = None) -> float:
    """Parallel version of
    :func:`repro.experiments.harness.simulate_cost`.

    Spawns one task per degree sequence; each task derives its RNG
    from ``SeedSequence(seed).spawn``, so results are bit-for-bit
    reproducible for a fixed ``(spec, n, seed)`` regardless of
    ``max_workers`` / ``chunksize`` / ``mp_start`` (start method:
    argument, else the platform default).

    Observability parity with the serial harness: the fan-out runs
    under a ``cell`` span, worker span trees are reattached beneath
    it, worker counters are merged into the parent registry, and
    ``harness.instances`` counts every realized graph.
    """
    n_tasks = spec.n_sequences
    workers = resolve_workers(max_workers, n_tasks)
    cs = resolve_chunksize(chunksize, n_tasks, workers)
    root = (seed if isinstance(seed, np.random.SeedSequence)
            else np.random.SeedSequence(seed))
    seeds = root.spawn(n_tasks)
    with span("cell", method=spec.method,
              permutation=type(spec.permutation).__name__, n=n,
              workers=workers, chunksize=cs) as cell:
        pool_t0 = time.perf_counter_ns()
        if workers <= 1:
            results = [_run_one_sequence((spec, n, i, s, None))
                       for i, s in enumerate(seeds)]
        else:
            bootstrap = (_spans.is_enabled(), _metrics.is_enabled(),
                         _memory.is_enabled())
            tasks = [(spec, n, i, s, bootstrap)
                     for i, s in enumerate(seeds)]
            with concurrent.futures.ProcessPoolExecutor(
                    max_workers=workers,
                    mp_context=resolve_mp_context(mp_start)) as pool:
                # pool.map yields in task order, so the aggregation
                # below never depends on the pool geometry
                results = list(pool.map(_run_one_sequence, tasks,
                                        chunksize=cs))
            for __, counters, span_dicts, ledger, __tele in results:
                if counters:
                    _metrics.merge_counters(counters)
                if ledger:
                    _memory.merge_ledger(*ledger)
                if span_dicts and isinstance(cell, Span):
                    cell.children.extend(
                        Span.from_dict(d) for d in span_dicts)
        elapsed_ns = time.perf_counter_ns() - pool_t0
        all_costs = [c for costs, *__ in results for c in costs]
        cell.annotate(instances=len(all_costs))
        if _metrics.is_enabled():
            _publish_worker_telemetry(
                cell, workers, [tele for *__, tele in results],
                elapsed_ns)
    _metrics.inc("harness.instances", len(all_costs))
    return float(np.mean(all_costs))


def _publish_worker_telemetry(cell, workers: int, teles, elapsed_ns: int
                              ) -> None:
    """Fold per-task ``(pid, wall_ns)`` telemetry into the registry.

    Deterministic facts go to *counters* (``parallel.tasks``,
    ``parallel.cells`` -- bit-identical at any pool geometry);
    wall-clock facts go to gauges / histograms:

    * ``parallel.task_ms`` (histogram) -- per-sequence wall time;
    * ``parallel.workers`` -- resolved pool size;
    * ``parallel.busy_share`` -- sum of task wall time over
      ``workers * elapsed`` (1.0 = perfectly packed pool);
    * ``parallel.idle_share`` -- its complement, clamped to [0, 1];
    * ``parallel.imbalance_ratio`` -- busiest worker's total over the
      mean worker total (1.0 = perfectly balanced).

    The same numbers land as attributes on the ``cell`` span, so run
    records carry them per cell as well as in aggregate.
    """
    _metrics.inc("parallel.cells")
    _metrics.inc("parallel.tasks", len(teles))
    busy_by_pid: dict[int, int] = {}
    total_busy = 0
    for pid, wall_ns in teles:
        _metrics.observe("parallel.task_ms", wall_ns / 1e6)
        busy_by_pid[pid] = busy_by_pid.get(pid, 0) + wall_ns
        total_busy += wall_ns
    busy_share = (total_busy / (workers * elapsed_ns)
                  if elapsed_ns > 0 else 0.0)
    idle_share = min(max(1.0 - busy_share, 0.0), 1.0)
    mean_busy = total_busy / len(busy_by_pid) if busy_by_pid else 0.0
    imbalance = (max(busy_by_pid.values()) / mean_busy
                 if mean_busy > 0 else 1.0)
    _metrics.set_gauge("parallel.workers", workers)
    _metrics.set_gauge("parallel.busy_share", busy_share)
    _metrics.set_gauge("parallel.idle_share", idle_share)
    _metrics.set_gauge("parallel.imbalance_ratio", imbalance)
    cell.annotate(worker_pids=len(busy_by_pid),
                  idle_share=round(idle_share, 4),
                  imbalance_ratio=round(imbalance, 4))


def simulated_vs_model_parallel(spec, n: int, seed=0,
                                max_workers: int | None = None,
                                chunksize: int | None = None,
                                mp_start: str | None = None
                                ) -> tuple[float, float, float]:
    """Parallel analogue of
    :func:`repro.experiments.harness.simulated_vs_model` -- same
    return convention and divergence warning, pool-backed simulation.
    """
    sim = simulate_cost_parallel(spec, n, seed=seed,
                                 max_workers=max_workers,
                                 chunksize=chunksize,
                                 mp_start=mp_start)
    model = model_cost(spec, n)
    error = check_model_divergence(spec, n, sim, model)
    return sim, model, error


def sweep_n_parallel(spec, ns, seed=0, max_workers: int | None = None,
                     chunksize: int | None = None,
                     mp_start: str | None = None) -> list[dict]:
    """Pool-backed :func:`repro.experiments.harness.sweep_n`.

    Each ``n`` gets its own child ``SeedSequence`` (spawned in grid
    order), so the whole sweep is reproducible for a fixed ``seed``
    and invariant to the pool geometry.
    """
    root = (seed if isinstance(seed, np.random.SeedSequence)
            else np.random.SeedSequence(seed))
    ns = list(ns)
    children = root.spawn(len(ns))
    rows = []
    for n, child in zip(ns, children):
        sim, model, error = simulated_vs_model_parallel(
            spec, n, seed=child, max_workers=max_workers,
            chunksize=chunksize, mp_start=mp_start)
        rows.append({"n": n, "sim": sim, "model": model,
                     "error": error})
    return rows
