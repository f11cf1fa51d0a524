"""Relabeling permutations and acyclic orientation (sections 2.1, 5, 7.5).

A permutation ``theta_n`` maps the *ascending-degree rank* of a node to
its new label (section 2.1: theta "always starts with ascending-degree
order and maps each node in position i to a label theta_n(i)"). The five
permutations studied in the paper, plus the degenerate (smallest-last)
orientation of [29] and the OPT construction of Algorithm 1, are all
:class:`Permutation` objects consumed by :func:`orient`.
"""

from repro.orientations.permutations import (
    Permutation,
    AscendingDegree,
    DescendingDegree,
    RoundRobin,
    ComplementaryRoundRobin,
    UniformRandom,
    ExplicitPermutation,
    OptPermutation,
    reverse_permutation,
    complement_permutation,
)
from repro.orientations.degenerate import DegenerateOrder, smallest_last_order
from repro.orientations.kernel_permutation import KernelPermutation
from repro.orientations.relabel import orient, labels_from_rank_map

#: Every named ordering, by the name the CLI, the pipeline, the planner
#: and the experiments take, to its :class:`Permutation` class.
NAMED_ORDERINGS: dict[str, type[Permutation]] = {
    "ascending": AscendingDegree,
    "descending": DescendingDegree,
    "rr": RoundRobin,
    "crr": ComplementaryRoundRobin,
    "uniform": UniformRandom,
    "degenerate": DegenerateOrder,
}

__all__ = [
    "NAMED_ORDERINGS",
    "Permutation",
    "AscendingDegree",
    "DescendingDegree",
    "RoundRobin",
    "ComplementaryRoundRobin",
    "UniformRandom",
    "ExplicitPermutation",
    "OptPermutation",
    "reverse_permutation",
    "complement_permutation",
    "DegenerateOrder",
    "smallest_last_order",
    "KernelPermutation",
    "orient",
    "labels_from_rank_map",
]
