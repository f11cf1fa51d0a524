"""Monte-Carlo harness: simulated cost vs. the discrete model (50).

The paper's protocol (section 7.3): average ``c_n(M, theta_n)`` over
``S`` random degree sequences ``D_n``, each realized by ``G`` random
graphs (the paper uses 100 x 100 = 10,000 instances at up to
``n = 10^7``; pure Python scales that down by default, configurable
upward). Cost is evaluated *exactly* from the oriented degrees via
eqs. (7)-(9) -- no listing run is needed, because the instrumented
listers' ``ops`` equal those formulas identically (verified in tests).
Every Monte-Carlo loop (serial, :mod:`~repro.experiments.parallel`,
:mod:`~repro.experiments.statistics`) prices each graph through
:func:`instance_cost`, from the edge list: it builds no oriented CSR
and, under a degree-ranked permutation, no undirected CSR either.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.core.costs import component_ops, per_node_cost_from_ops
from repro.core.kernels import LimitMap
from repro.core.model import discrete_cost_model
from repro.core.weights import identity_weight
from repro.distributions.base import DegreeDistribution
from repro.distributions.sampling import sample_degree_sequence
from repro.graphs.generators import generate_graph
from repro.obs import bus as _bus
from repro.obs import metrics as _metrics
from repro.obs.logging import get_logger, log_event
from repro.obs.spans import span
from repro.orientations.permutations import Permutation
from repro.orientations.relabel import count_orientation, orientation_totals

_log = get_logger(__name__)

#: |model/sim - 1| beyond which a cell logs a divergence warning.
MODEL_ERROR_WARN_DEFAULT = 0.25


@dataclass
class SimulationSpec:
    """One experimental cell: a (method, permutation) pair plus workload.

    Attributes
    ----------
    base_dist:
        The untruncated degree law ``F``.
    truncation:
        Schedule ``n -> t_n`` (e.g. ``linear_truncation``).
    method:
        Listing method name (cost evaluated from degrees).
    permutation:
        The relabeling permutation ``theta_n``.
    limit_map:
        The permutation's limiting map ``xi`` (for the model side).
    weight:
        The ``w(x)`` entering the model (simulation is unaffected).
    n_sequences / n_graphs:
        Monte-Carlo budget: degree sequences per cell and graphs per
        sequence (each at least 1; ValueError otherwise).
    generator:
        ``"residual"`` (exact realization, the paper's choice) or
        ``"configuration"``.
    """

    base_dist: DegreeDistribution
    truncation: Callable[[int], int]
    method: str
    permutation: Permutation
    limit_map: LimitMap | str
    weight: Callable = identity_weight
    n_sequences: int = 4
    n_graphs: int = 4
    generator: str = "residual"
    tie_break: str = "random"
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        for name, value in (("n_sequences", self.n_sequences),
                            ("n_graphs", self.n_graphs)):
            if value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")


def instance_cost(spec: SimulationSpec, graph,
                  rng: np.random.Generator) -> float:
    """``c_n(M, theta_n)`` of one realized graph: the per-graph cell step.

    Relabels and orients like :func:`~repro.orientations.relabel.orient`
    (same spans, counters and ``rng`` draws) but prices the label map
    with :func:`~repro.orientations.relabel.orientation_totals` instead
    of building an :class:`~repro.graphs.digraph.OrientedGraph`. When
    the relabel already yields the out-degrees ``X`` (the degenerate
    order's peel), the totals are ``component_ops(X, d - X)`` instead.
    """
    with span("relabel", permutation=type(spec.permutation).__name__,
              n=graph.n):
        labels, out_degrees = spec.permutation.labels_with_out_degrees(
            graph, rng=rng, tie_break=spec.tie_break)
    with span("orient", n=graph.n, m=graph.m):
        if out_degrees is None:
            totals = dict(zip(("T1", "T2", "T3"),
                              orientation_totals(graph, labels)[0].tolist()))
        else:
            totals = component_ops(out_degrees, graph.degrees - out_degrees)
        count_orientation(graph, labels)
    with span("list", method=spec.method):
        return per_node_cost_from_ops([spec.method], totals,
                                      graph.n)[spec.method]


def sequence_costs(spec: SimulationSpec, dist_n, n: int,
                   rng: np.random.Generator):
    """Sample one degree sequence of length ``n`` from ``dist_n`` and
    yield the :func:`instance_cost` of each of its ``spec.n_graphs``
    realizations -- the sequence loop every Monte-Carlo path shares."""
    with span("sample", n=n):
        degrees = sample_degree_sequence(dist_n, n, rng)
    for __ in range(spec.n_graphs):
        yield instance_cost(spec, generate_graph(
            degrees, rng, method=spec.generator), rng)


def simulate_cost(spec: SimulationSpec, n: int,
                  rng: np.random.Generator) -> float:
    """Monte-Carlo estimate of ``E[c_n(M, theta_n)]`` at size ``n``."""
    dist_n = spec.base_dist.truncate(spec.truncation(n))
    costs = []
    with span("cell", method=spec.method,
              permutation=type(spec.permutation).__name__, n=n):
        for seq in range(spec.n_sequences):
            with span("sequence", index=seq):
                costs.extend(sequence_costs(spec, dist_n, n, rng))
            if _log.isEnabledFor(logging.DEBUG):
                log_event(_log, logging.DEBUG, "monte-carlo progress",
                          method=spec.method,
                          permutation=type(spec.permutation).__name__,
                          n=n, sequence=seq + 1,
                          of=spec.n_sequences,
                          graphs_per_sequence=spec.n_graphs)
    _metrics.inc("harness.instances", len(costs))
    return float(np.mean(costs))


def model_cost(spec: SimulationSpec, n: int) -> float:
    """The discrete model (50) for the same cell."""
    dist_n = spec.base_dist.truncate(spec.truncation(n))
    return discrete_cost_model(dist_n, spec.method, spec.limit_map,
                               spec.weight)


def check_model_divergence(spec: SimulationSpec, n: int, sim: float,
                           model: float) -> float:
    """Relative error ``model / sim - 1``, with the divergence warning.

    ``relative_error`` matches the sign convention of the paper's
    tables (negative = model underestimates). Cells whose absolute
    relative error exceeds :data:`MODEL_ERROR_WARN_DEFAULT` bump
    ``harness.divergent_cells`` and log a structured WARNING instead
    of diverging silently. Shared by the serial and pool-backed
    harnesses.
    """
    error = model / sim - 1.0 if sim else float("nan")
    threshold = MODEL_ERROR_WARN_DEFAULT
    if math.isfinite(error) and abs(error) > threshold:
        _metrics.inc("harness.divergent_cells")
        log_event(_log, logging.WARNING, "model-simulation divergence",
                  method=spec.method,
                  permutation=type(spec.permutation).__name__,
                  n=n, sim=sim, model=model, relative_error=error,
                  threshold=threshold)
    return error


def simulated_vs_model(spec: SimulationSpec, n: int,
                       rng: np.random.Generator) -> tuple[float, float,
                                                          float]:
    """Return ``(sim, model, relative_error)`` for one cell.

    See :func:`check_model_divergence` for the error convention and
    the divergence warning.
    """
    sim = simulate_cost(spec, n, rng)
    model = model_cost(spec, n)
    error = check_model_divergence(spec, n, sim, model)
    return sim, model, error


def sweep_n(spec: SimulationSpec, ns: Sequence[int],
            rng: np.random.Generator | None = None, *,
            workers: int | None = 1, chunksize: int | None = None,
            seed: int = 0) -> list[dict]:
    """Run a cell across graph sizes; returns one dict per ``n``.

    With ``workers=1`` (the default) this is the legacy serial path:
    one ``rng`` threads through every cell, preserving historic
    sequences exactly. Any other value -- including ``None`` (resolve
    from ``REPRO_MAX_WORKERS`` / cpu count) -- delegates to
    :func:`repro.experiments.parallel.sweep_n_parallel`, which fans
    sequences over a process pool and derives its streams from
    ``seed`` (``rng`` is then unused and may be ``None``).
    """
    if workers != 1:
        from repro.experiments.parallel import sweep_n_parallel
        return sweep_n_parallel(spec, ns, seed=seed,
                                max_workers=workers,
                                chunksize=chunksize)
    if rng is None:
        rng = np.random.default_rng(seed)
    ns = list(ns)
    progress = None
    if _bus.is_enabled():
        from repro.obs.live import Progress
        try:
            predicted = sum(model_cost(spec, n) * n
                            * spec.n_sequences * spec.n_graphs
                            for n in ns)
        except Exception:
            predicted = None
        progress = Progress(f"sweep {spec.method} x{len(ns)}", len(ns),
                            predicted_ops=predicted, scope="sweep",
                            phase="sweep")
    rows = []
    for n in ns:
        sim, model, error = simulated_vs_model(spec, n, rng)
        rows.append({"n": n, "sim": sim, "model": model, "error": error})
        if progress is not None:
            progress.advance(
                1, ops=sim * n * spec.n_sequences * spec.n_graphs)
    return rows
