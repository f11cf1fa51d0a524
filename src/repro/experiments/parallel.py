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
from repro.obs import bus as _bus
from repro.obs import live as _live
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
    ``cell`` span, metrics go to the live registry -- and the obs
    fields of the return value are ``None``. In a child process
    ``bootstrap`` carries the parent's ``(spans_on, metrics_on,
    ledger_on)`` flags -- extended by ``(hb_queue, hb_interval)``
    while live telemetry is on, where ``hb_queue`` is a
    manager-queue proxy (picklable under both ``fork`` and ``spawn``)
    the worker posts liveness heartbeats into: one at sequence start,
    then at most one per ``hb_interval`` as realizations complete. The
    parent-side :class:`repro.obs.live.HeartbeatWatchdog` drains them.

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
    hb_queue = None
    hb_interval = _live.DEFAULT_INTERVAL_S
    t0 = time.perf_counter_ns()
    if in_child:
        spans_on, metrics_on, ledger_on, *heartbeat = bootstrap
        if heartbeat:
            hb_queue, hb_interval = heartbeat
        _spans.reset()
        _metrics.reset()
        _memory.reset()
        if spans_on:
            _spans.enable()
        if metrics_on:
            _metrics.enable()
        if ledger_on:
            _memory.enable()
    task_label = f"seq {seq_index} n={n} {spec.method}"
    if hb_queue is not None:
        _live.post_heartbeat(hb_queue, task_label, status="start")
    last_hb = time.monotonic()
    rng = np.random.default_rng(seed)
    dist_n = spec.base_dist.truncate(spec.truncation(n))
    costs = []
    with span("sequence", index=seq_index, n=n) as seq_span:
        if in_child:
            # Marks the reattached subtree with its worker process so
            # the trace exporter can lay it on its own thread row.
            seq_span.annotate(worker_pid=os.getpid())
        for cost in sequence_costs(spec, dist_n, n, rng):
            costs.append(cost)
            if (hb_queue is not None
                    and time.monotonic() - last_hb >= hb_interval):
                _live.post_heartbeat(hb_queue, task_label,
                                     status="running")
                last_hb = time.monotonic()
    if hb_queue is not None:
        _live.post_heartbeat(hb_queue, task_label, status="done")
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


def _cell_progress(spec, n: int, n_tasks: int):
    """Model-ops progress tracker for one cell (``None`` when bus off).

    The paper's cost model predicts the cell's total work up front:
    ``E[c_n] * n`` ops per instance, ``n_sequences * n_graphs``
    instances -- so live progress is reported as fraction of predicted
    ops consumed (each finished task contributes its *actual* summed
    ``per_node_cost * n``), and the ETA extrapolates from that
    fraction rather than from task counts.
    """
    if not _bus.is_enabled():
        return None
    try:
        predicted = (model_cost(spec, n) * n
                     * n_tasks * spec.n_graphs)
    except Exception:
        predicted = None
    return _live.Progress(
        f"cell n={n} {spec.method}", n_tasks,
        predicted_ops=predicted, scope="cell", phase="simulate")


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
    ``harness.instances`` counts every realized graph. With live
    telemetry on (``REPRO_LIVE=1``) the pool results are consumed
    lazily so every finished task advances a model-ops progress
    tracker, and workers post heartbeats a watchdog thread relays /
    monitors for stalls.
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
        progress = _cell_progress(spec, n, n_tasks)
        pool_t0 = time.perf_counter_ns()
        if workers <= 1:
            results = []
            for i, s in enumerate(seeds):
                result = _run_one_sequence((spec, n, i, s, None))
                results.append(result)
                if progress is not None:
                    progress.advance(1, ops=sum(result[0]) * n)
        else:
            bootstrap = (_spans.is_enabled(), _metrics.is_enabled(),
                         _memory.is_enabled())
            manager = watchdog = None
            if _live.is_enabled():
                interval = _live.live_interval()
                manager = multiprocessing.Manager()
                watchdog = _live.HeartbeatWatchdog(
                    manager.Queue(), interval_s=interval).start()
                bootstrap = bootstrap + (watchdog.queue, interval)
            tasks = [(spec, n, i, s, bootstrap)
                     for i, s in enumerate(seeds)]
            try:
                with concurrent.futures.ProcessPoolExecutor(
                        max_workers=workers,
                        mp_context=resolve_mp_context(mp_start)) as pool:
                    # pool.map yields in task order as results arrive;
                    # consuming it lazily lets each completion advance
                    # the progress tracker without changing the final
                    # (order-deterministic) aggregation below.
                    results = []
                    for result in pool.map(_run_one_sequence, tasks,
                                           chunksize=cs):
                        results.append(result)
                        if progress is not None:
                            progress.advance(1, ops=sum(result[0]) * n)
            finally:
                if watchdog is not None:
                    stalled = sum(
                        1 for w in watchdog.stop().values()
                        if w.get("stalled"))
                    cell.annotate(heartbeat_workers=len(
                        watchdog.workers), stalled_workers=stalled)
                if manager is not None:
                    manager.shutdown()
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
    and invariant to the pool geometry. With the live bus on, the
    sweep itself reports model-ops progress across its grid points.
    """
    root = (seed if isinstance(seed, np.random.SeedSequence)
            else np.random.SeedSequence(seed))
    ns = list(ns)
    children = root.spawn(len(ns))
    progress = None
    if _bus.is_enabled():
        try:
            predicted = sum(model_cost(spec, n) * n
                            * spec.n_sequences * spec.n_graphs
                            for n in ns)
        except Exception:
            predicted = None
        progress = _live.Progress(
            f"sweep {spec.method} x{len(ns)}", len(ns),
            predicted_ops=predicted, scope="sweep", phase="sweep")
    rows = []
    for n, child in zip(ns, children):
        sim, model, error = simulated_vs_model_parallel(
            spec, n, seed=child, max_workers=max_workers,
            chunksize=chunksize, mp_start=mp_start)
        rows.append({"n": n, "sim": sim, "model": model,
                     "error": error})
        if progress is not None:
            progress.advance(
                1, ops=sim * n * spec.n_sequences * spec.n_graphs)
    return rows
