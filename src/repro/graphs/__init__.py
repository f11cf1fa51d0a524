"""Graph substrate: adjacency structures and random-graph generation.

Implements the deterministic-graph machinery of section 2 (sorted
adjacency lists, acyclic orientations ``G(theta_n)``) and the
random-graph generation of section 7.2:

* :class:`Graph` -- simple undirected graph stored as sorted int64 edge
  keys, with a lazy CSR whose adjacency lists are sorted ascending by
  node ID.
* :class:`OrientedGraph` -- the relabeled digraph ``G(theta)`` where node
  IDs *are* labels and each edge points from the larger label to the
  smaller (out-neighbors have smaller labels, as in section 2.1).
* :func:`configuration_model` -- classic stub matching [8], [30] with
  simplification; exhibits the degree deficit the paper warns about.
* :func:`residual_degree_model` -- the paper's generator (a variation of
  Blitzstein-Diaconis [11]): neighbors picked in proportion to residual
  degree, excluding already-attached neighbors, by rejection from a pool
  of open stubs, with double-edge-swap repair for the stuck tail.
* :func:`generate_graph` -- convenience dispatcher.
* :func:`erdos_gallai_graphical` -- graphicality test for degree
  sequences.
"""

from repro.graphs.degree import (
    erdos_gallai_graphical,
    degree_histogram,
    ascending_order_statistics,
)
from repro.graphs.graph import Graph
from repro.graphs.digraph import OrientedGraph
from repro.graphs.generators import (
    configuration_model,
    residual_degree_model,
    generate_graph,
)
from repro.graphs.analysis import (
    degeneracy,
    arboricity_bounds,
    triangle_count,
    triangle_count_sparse,
    global_clustering_coefficient,
    expected_triangles_configuration_model,
    wedge_count,
    degree_assortativity,
    empirical_spread_sample,
)
from repro.graphs.generators import havel_hakimi_graph
from repro.graphs.compressed import (
    CompressedOrientedGraph,
    run_e1_compressed,
)
from repro.graphs.io import (
    save_edge_list,
    load_edge_list,
    save_degree_sequence,
    load_degree_sequence,
)
from repro.graphs.components import (
    connected_components,
    component_sizes,
    largest_component,
    induced_subgraph,
)

__all__ = [
    "erdos_gallai_graphical",
    "degree_histogram",
    "ascending_order_statistics",
    "Graph",
    "OrientedGraph",
    "configuration_model",
    "residual_degree_model",
    "generate_graph",
    "degeneracy",
    "arboricity_bounds",
    "triangle_count",
    "triangle_count_sparse",
    "havel_hakimi_graph",
    "CompressedOrientedGraph",
    "run_e1_compressed",
    "global_clustering_coefficient",
    "expected_triangles_configuration_model",
    "wedge_count",
    "save_edge_list",
    "load_edge_list",
    "save_degree_sequence",
    "load_degree_sequence",
    "connected_components",
    "component_sizes",
    "largest_component",
    "induced_subgraph",
    "degree_assortativity",
    "empirical_spread_sample",
]
