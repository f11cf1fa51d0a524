"""Determinism guarantees: fixed seeds reproduce everything exactly."""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import repro

from repro import (
    DiscretePareto,
    UniformRandom,
    generate_graph,
    orient,
    sample_degree_sequence,
)
from repro.distributions import root_truncation


def _build(seed):
    rng = np.random.default_rng(seed)
    dist = DiscretePareto(1.7, 21.0).truncate(root_truncation(800))
    degrees = sample_degree_sequence(dist, 800, rng)
    graph = generate_graph(degrees, rng)
    oriented = orient(graph, UniformRandom(), rng=rng,
                      tie_break="random")
    return degrees, graph, oriented


class TestSeededReproducibility:
    def test_identical_graphs_same_seed(self):
        d1, g1, o1 = _build(42)
        d2, g2, o2 = _build(42)
        np.testing.assert_array_equal(d1, d2)
        np.testing.assert_array_equal(g1.edges, g2.edges)
        np.testing.assert_array_equal(o1.labels, o2.labels)

    def test_different_seed_different_graph(self):
        __, g1, __ = _build(1)
        __, g2, __ = _build(2)
        assert g1.m != g2.m or not np.array_equal(g1.edges, g2.edges)

    def test_table_generator_deterministic(self):
        from repro.experiments.paper_tables import table06
        __, rows_a = table06(sizes=(400,), n_sequences=2, n_graphs=1)
        __, rows_b = table06(sizes=(400,), n_sequences=2, n_graphs=1)
        for cell_a, cell_b in zip(rows_a[0].cells, rows_b[0].cells):
            assert cell_a[0] == pytest.approx(cell_b[0], rel=1e-12)

    def test_twitter_study_deterministic(self):
        from repro.experiments.twitter import (cost_matrix,
                                               twitter_like_graph)
        g1 = twitter_like_graph(n=1500, rng=np.random.default_rng(9))
        g2 = twitter_like_graph(n=1500, rng=np.random.default_rng(9))
        np.testing.assert_array_equal(cost_matrix(g1), cost_matrix(g2))


#: NumPy's x86 dispatch groups above the x86-64-v2 baseline (NumPy >= 2.3
#: names first, then the older per-extension names). NumPy warns about
#: and ignores any name it does not dispatch on this host.
NO_AVX = ("X86_V3 X86_V4 AVX512_ICL AVX512_SPR "
          "AVX2 FMA3 AVX512F AVX512_SKX AVX512_CLX AVX512_CNL")

CELL = r"""
import json
import numpy as np
from repro.distributions.pareto import DiscretePareto
from repro.distributions.truncation import root_truncation
from repro.experiments.harness import SimulationSpec, simulate_cost
from repro.orientations.permutations import DescendingDegree

spec = SimulationSpec(DiscretePareto.paper_parameterization(1.7),
                      root_truncation, "T1", DescendingDegree(),
                      "descending", n_sequences=1, n_graphs=2)
rng = np.random.default_rng(2017)
cost = simulate_cost(spec, 5000, rng)
print(json.dumps([cost.hex(), rng.bit_generator.state]))
"""


class TestHostIndependence:
    def test_residual_cell_ignores_simd_dispatch(self):
        """A residual cell gives the same cost and RNG state whatever
        SIMD paths NumPy dispatches to (its sorts order ties by them)."""
        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        results = []
        for disabled in (None, NO_AVX):
            env = dict(os.environ)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (src, os.environ.get("PYTHONPATH")) if p)
            env.pop("NPY_DISABLE_CPU_FEATURES", None)
            if disabled:
                env["NPY_DISABLE_CPU_FEATURES"] = disabled
            out = subprocess.run([sys.executable, "-c", CELL], env=env,
                                 check=True, capture_output=True,
                                 text=True, timeout=300)
            results.append(json.loads(out.stdout.splitlines()[-1]))
        assert results[0] == results[1]
