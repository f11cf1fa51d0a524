"""The planner's candidate table: method × ordering pairs.

The paper's decision space is the cross product of the 18 listing
methods (T1-T6, E1-E6, L1-L6) with the relabeling orderings --
ascending, descending, Round-Robin, Complementary Round-Robin, the OPT
construction of Algorithm 1, and the degenerate (smallest-last)
orientation of [29]. A :class:`Candidate` names one such pair and knows
how to resolve its two execution-side artifacts:

* a concrete :class:`~repro.orientations.permutations.Permutation`
  (for orienting a real graph), and
* the limiting map ``xi(u)`` entering the cost model (for pricing the
  candidate from a degree distribution alone).

The degenerate ordering is the one candidate the *model* cannot price:
it depends on the edge structure, not just the degree law, so it is
only admissible for exact (graph-backed) evaluation -- the planner's
oracle ranks it, the distribution-backed planner does not. That gap is
precisely what the regret harness measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering

from repro.core.kernels import LimitMap, get_map
from repro.core.methods import METHODS, Method, get_method
from repro.core.optimality import optimal_map
from repro.orientations import NAMED_ORDERINGS
from repro.orientations.permutations import OptPermutation, Permutation

#: Orderings a concrete graph can be relabeled with (the oracle's set).
GRAPH_ORDERINGS: tuple[str, ...] = (
    "ascending", "descending", "rr", "crr", "opt", "degenerate")

#: Orderings the cost model can price from a degree law alone --
#: everything except the structure-dependent degenerate orientation.
MODEL_ORDERINGS: tuple[str, ...] = (
    "ascending", "descending", "rr", "crr", "opt")

#: Per-op weight classes of section 2.4 / Table 3: scanning edge
#: iterators (SEI) execute their sequential comparisons up to
#: ``speed_ratio`` times faster than the hash-based vertex and lookup
#: iterators execute theirs.
HASH_FAMILIES = ("vertex", "lei")


@total_ordering
@dataclass(frozen=True)
class Candidate:
    """One (method, ordering) pair the planner can rank."""

    method: str
    ordering: str

    def __post_init__(self):
        get_method(self.method)  # validate eagerly
        if self.ordering not in GRAPH_ORDERINGS:
            raise ValueError(
                f"unknown ordering {self.ordering!r}; choose from "
                f"{GRAPH_ORDERINGS}")

    @property
    def key(self) -> str:
        """Stable display/identity key, e.g. ``"E1+descending"``."""
        return f"{self.method}+{self.ordering}"

    @property
    def spec(self) -> Method:
        return METHODS[self.method]

    @property
    def family(self) -> str:
        """``"vertex"``, ``"sei"``, or ``"lei"``."""
        return self.spec.family

    @property
    def is_sei(self) -> bool:
        return self.family == "sei"

    def permutation(self) -> Permutation:
        """The concrete relabeling permutation of this ordering.

        For ``"opt"`` this is Algorithm 1 keyed by the *method's own*
        ``h`` function, so two candidates with different ``h`` shapes
        resolve to different OPT permutations.
        """
        if self.ordering == "opt":
            return OptPermutation(self.spec.h)
        return NAMED_ORDERINGS[self.ordering]()

    def limit_map(self) -> LimitMap:
        """The limiting map pricing this candidate in the model.

        Raises ``ValueError`` for the degenerate ordering, whose cost
        is not a functional of the degree distribution.
        """
        if self.ordering == "degenerate":
            raise ValueError(
                "the degenerate ordering depends on the edge structure; "
                "the cost model cannot price it from a degree law "
                "(use an exact, graph-backed plan)")
        if self.ordering == "opt":
            # Theorem 3 + Corollaries 1-2: for triangle listing (r
            # increasing) OPT's limiting map is the method's optimal
            # named map.
            return optimal_map(self.method)
        return get_map(self.ordering)

    def orientation_key(self) -> str:
        """Candidates sharing this key share one relabeled graph.

        Named orderings are method-independent; OPT depends on the
        method only through its ``h`` shape, so e.g. T1/T4/L2/L6 (all
        ``h(x) = x^2/2``) share a single OPT orientation.
        """
        if self.ordering == "opt":
            return f"opt:{self.spec.h.__name__}"
        return self.ordering

    def _sort_key(self):
        return (self.method, GRAPH_ORDERINGS.index(self.ordering))

    def __lt__(self, other: "Candidate") -> bool:
        return self._sort_key() < other._sort_key()

    def __str__(self) -> str:
        return self.key


def iter_candidates(methods, orderings) -> list[Candidate]:
    """The cross product as validated :class:`Candidate` objects."""
    out = []
    for method in methods:
        name = method.upper() if isinstance(method, str) else method.name
        for ordering in orderings:
            out.append(Candidate(name, str(ordering).lower()))
    if len({c.key for c in out}) != len(out):
        raise ValueError("duplicate (method, ordering) candidates")
    return out
