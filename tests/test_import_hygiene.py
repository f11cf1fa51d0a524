"""SciPy, and the uniform map's quadrature, load only where used.

The package imports SciPy inside the functions that call it (non-Pareto
laws, Pareto moments, the continuous model), so the Monte-Carlo,
planner and listing paths start without paying for it. Likewise
:class:`~repro.core.kernels.UniformMap` computes its Gauss-Legendre
quadrature (an eigen-solve) on first use, not at import. A fresh
process imports ``repro``, runs one call of each, and must not have
loaded any ``scipy`` module or computed the quadrature. The
SciPy-backed and quadrature values themselves are pinned by the
golden-value, model and distribution tests.
"""

import json
import os
import pathlib
import subprocess
import sys

import repro

SRC = str(pathlib.Path(repro.__file__).resolve().parents[1])

SCRIPT = r"""
import json, sys
import numpy as np
import repro
from repro import (DescendingDegree, DiscretePareto, generate_graph,
                   list_triangles, orient, run_pipeline,
                   sample_degree_sequence)
from repro.distributions.truncation import linear_truncation
from repro.experiments.harness import (SimulationSpec, simulate_cost,
                                       simulated_vs_model)

loaded = {"import": sorted(m for m in sys.modules if m.startswith("scipy"))}
rng = np.random.default_rng(3)
spec = SimulationSpec(DiscretePareto(1.7, 21.0), linear_truncation, "T1",
                      DescendingDegree(), "descending", n_sequences=1,
                      n_graphs=1)
simulate_cost(spec, 300, rng)
simulated_vs_model(spec, 300, rng)
degrees = sample_degree_sequence(DiscretePareto(1.7, 21.0).truncate(300),
                                 300, rng)
graph = generate_graph(degrees, rng)
run_pipeline(graph, method="auto")
list_triangles(orient(graph, DescendingDegree()), "T1", collect=True)
loaded["calls"] = sorted(m for m in sys.modules if m.startswith("scipy"))
from repro.core import kernels
loaded["quadrature"] = kernels._uniform_quadrature.cache_info().currsize
print(json.dumps(loaded))
"""


def test_no_scipy_on_the_simulation_planner_and_listing_paths(tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                         check=True, capture_output=True, text=True,
                         timeout=300)
    loaded = json.loads(out.stdout.splitlines()[-1])
    assert loaded == {"import": [], "calls": [], "quadrature": 0}
