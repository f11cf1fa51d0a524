"""Reproduction of "On Asymptotic Cost of Triangle Listing in Random Graphs".

Di Xiao, Yi Cui, Daren B.H. Cline, and Dmitri Loguinov, PODS 2017.

This package implements the paper end to end:

* ``repro.distributions`` -- degree laws (discrete Pareto and friends),
  truncation schemes, and i.i.d. degree-sequence sampling (paper section 1.2
  and 3.1).
* ``repro.graphs`` -- undirected graphs with sorted adjacency lists, acyclic
  orientations ``G(theta)``, and random-graph generators that realize a
  prescribed degree sequence exactly (section 7.2).
* ``repro.orientations`` -- the relabeling permutations ``theta``: ascending,
  descending, uniform, Round-Robin, Complementary Round-Robin, degenerate
  (smallest-last), and the OPT construction of Algorithm 1.
* ``repro.listing`` -- all 18 triangle-listing search patterns (T1-T6,
  E1-E6, L1-L6) with instruction-accurate operation counters, plus classical
  baselines (brute force, Chiba-Nishizeki, Forward / Compact-Forward).
* ``repro.core`` -- the analytical machinery: cost formulas (7)-(9), the
  unified model (14), the spread distribution ``J(x)``, the discrete cost
  model (50), the continuous model (49), Algorithm 2, limit maps ``xi(u)``,
  asymptotic limits (20)-(45), finiteness thresholds, and scaling rates
  (46)-(48).
* ``repro.experiments`` -- the simulation harness and the table
  reproductions of section 7.
* ``repro.obs`` -- observability: hierarchical spans, metric counters,
  JSONL run records, and structured logging (all off by default; see
  docs/OBSERVABILITY.md).

Quickstart::

    import numpy as np
    from repro import (DiscretePareto, sample_degree_sequence,
                       generate_graph, orient, DescendingDegree,
                       list_triangles)

    rng = np.random.default_rng(7)
    dist = DiscretePareto(alpha=1.5, beta=15.0).truncate(100)
    degrees = sample_degree_sequence(dist, n=2_000, rng=rng)
    graph = generate_graph(degrees, rng=rng)
    oriented = orient(graph, DescendingDegree())
    triangles = list_triangles(oriented, method="E1")
"""

from repro.distributions import (
    DegreeDistribution,
    DiscretePareto,
    ContinuousPareto,
    TruncatedDistribution,
    EmpiricalDegreeDistribution,
    GeometricDegree,
    ZipfDegree,
    linear_truncation,
    root_truncation,
    sample_degree_sequence,
)
from repro.graphs import (
    Graph,
    OrientedGraph,
    configuration_model,
    residual_degree_model,
    generate_graph,
    erdos_gallai_graphical,
    degeneracy,
    arboricity_bounds,
    save_edge_list,
    load_edge_list,
)
from repro.orientations import (
    Permutation,
    AscendingDegree,
    DescendingDegree,
    RoundRobin,
    ComplementaryRoundRobin,
    UniformRandom,
    DegenerateOrder,
    OptPermutation,
    ExplicitPermutation,
    KernelPermutation,
    orient,
    reverse_permutation,
    complement_permutation,
)
from repro.listing import (
    list_triangles,
    count_triangles,
    ListingResult,
    VERTEX_ITERATORS,
    SCANNING_EDGE_ITERATORS,
    LOOKUP_EDGE_ITERATORS,
    ALL_METHODS,
    brute_force_triangles,
    adjacency_matrix_triangles,
    chiba_nishizeki_triangles,
    forward_triangles,
    compact_forward_triangles,
)
from repro.core import (
    Method,
    METHODS,
    FUNDAMENTAL_METHODS,
    method_cost,
    per_node_cost,
    SpreadDistribution,
    pareto_spread_cdf,
    LimitMap,
    AscendingMap,
    DescendingMap,
    UniformMap,
    RoundRobinMap,
    ComplementaryRoundRobinMap,
    discrete_cost_model,
    continuous_cost_model,
    fast_cost_model,
    limit_cost,
    finiteness_threshold,
    is_cost_finite,
    t1_scaling_rate,
    e1_scaling_rate,
    optimal_map,
    worst_map,
    opt_permutation_ranks,
    identity_weight,
    capped_weight,
    decide_on_graph,
    decide_in_limit,
    cost_ratio_w,
)
from repro.pipeline import run_pipeline, optimal_order_for, PipelineReport
from repro import obs

__version__ = "1.0.0"

__all__ = [
    # observability
    "obs",
    # distributions
    "DegreeDistribution",
    "DiscretePareto",
    "ContinuousPareto",
    "TruncatedDistribution",
    "EmpiricalDegreeDistribution",
    "GeometricDegree",
    "ZipfDegree",
    "linear_truncation",
    "root_truncation",
    "sample_degree_sequence",
    # graphs
    "Graph",
    "OrientedGraph",
    "configuration_model",
    "residual_degree_model",
    "generate_graph",
    "erdos_gallai_graphical",
    "degeneracy",
    "arboricity_bounds",
    "save_edge_list",
    "load_edge_list",
    # orientations
    "Permutation",
    "AscendingDegree",
    "DescendingDegree",
    "RoundRobin",
    "ComplementaryRoundRobin",
    "UniformRandom",
    "DegenerateOrder",
    "OptPermutation",
    "ExplicitPermutation",
    "KernelPermutation",
    "orient",
    "reverse_permutation",
    "complement_permutation",
    # listing
    "list_triangles",
    "count_triangles",
    "ListingResult",
    "VERTEX_ITERATORS",
    "SCANNING_EDGE_ITERATORS",
    "LOOKUP_EDGE_ITERATORS",
    "ALL_METHODS",
    "brute_force_triangles",
    "adjacency_matrix_triangles",
    "chiba_nishizeki_triangles",
    "forward_triangles",
    "compact_forward_triangles",
    # core
    "Method",
    "METHODS",
    "FUNDAMENTAL_METHODS",
    "method_cost",
    "per_node_cost",
    "SpreadDistribution",
    "pareto_spread_cdf",
    "LimitMap",
    "AscendingMap",
    "DescendingMap",
    "UniformMap",
    "RoundRobinMap",
    "ComplementaryRoundRobinMap",
    "discrete_cost_model",
    "continuous_cost_model",
    "fast_cost_model",
    "limit_cost",
    "finiteness_threshold",
    "is_cost_finite",
    "t1_scaling_rate",
    "e1_scaling_rate",
    "optimal_map",
    "worst_map",
    "opt_permutation_ranks",
    "identity_weight",
    "capped_weight",
    "decide_on_graph",
    "decide_in_limit",
    "cost_ratio_w",
    "run_pipeline",
    "optimal_order_for",
    "PipelineReport",
]
