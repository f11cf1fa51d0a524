"""Uncertainty quantification for the Monte-Carlo harness.

The paper reports plain averages over 10,000 instances and notes the
results "are still pretty noisy, which explains non-monotonicity of
error in certain cases". At Python scale the budgets are smaller, so
error bars matter more: this module decomposes the variance of
``c_n(M, theta_n)`` into its two sampling layers -- across degree
sequences ``D_n`` and across graphs ``G_n`` realizing a fixed sequence
-- and produces standard errors and normal-approximation confidence
intervals for the cell mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.experiments.harness import sequence_costs


@dataclass(frozen=True)
class CellEstimate:
    """Monte-Carlo estimate of one experimental cell."""

    mean: float
    std_error: float
    between_sequence_var: float   # variance of per-sequence means
    within_sequence_var: float    # mean variance across graphs
    n_sequences: int
    n_graphs: int

    def confidence_interval(self, z: float = 1.96) -> tuple[float, float]:
        """Normal-approximation CI for the cell mean."""
        half = z * self.std_error
        return self.mean - half, self.mean + half

    def contains(self, value: float, z: float = 1.96) -> bool:
        """Does the z-level confidence interval cover ``value``?"""
        lo, hi = self.confidence_interval(z)
        return lo <= value <= hi


def estimate_cell(spec, n: int, rng: np.random.Generator) -> CellEstimate:
    """Run a :class:`SimulationSpec` cell with variance decomposition.

    The estimator of the cell mean is the grand mean of per-sequence
    means; its standard error follows the one-way random-effects
    formula ``sqrt(Var(sequence means) / S)``, which correctly absorbs
    the graph-level noise into the per-sequence means.
    """
    dist_n = spec.base_dist.truncate(spec.truncation(n))
    sequence_means = []
    within_vars = []
    for __ in range(spec.n_sequences):
        costs = list(sequence_costs(spec, dist_n, n, rng))
        sequence_means.append(float(np.mean(costs)))
        within_vars.append(float(np.var(costs, ddof=1))
                           if len(costs) > 1 else 0.0)
    mean = float(np.mean(sequence_means))
    between = (float(np.var(sequence_means, ddof=1))
               if len(sequence_means) > 1 else 0.0)
    std_error = math.sqrt(between / max(len(sequence_means), 1))
    return CellEstimate(
        mean=mean,
        std_error=std_error,
        between_sequence_var=between,
        within_sequence_var=float(np.mean(within_vars)),
        n_sequences=spec.n_sequences,
        n_graphs=spec.n_graphs,
    )
