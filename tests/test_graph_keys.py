"""``Graph`` as one sorted edge-key array, differentially.

:class:`~repro.graphs.graph.Graph` stores its edges only as the strictly
increasing int64 keys ``lo * n + hi``. The generators hand keys over
through ``Graph._from_keys``; the public constructor takes edges in any
order and ends in the same checks. The symmetric CSR is built from the
keys by one sort, whether or not the compiled library is loaded, and the
planner's orientation sums walk the keys in C (``native.oriented_sums``).
These tests pin, on small shapes and a heavy-tailed configuration graph:

* both constructors agree on keys, degrees, ``edges`` and ``csr()``;
* ``csr()``, ``neighbors()`` and ``has_edge()`` equal a brute-force
  adjacency from ``edges``, with ``indptr`` the prefix sums of the
  degrees, int64 arrays and a lazy, cached build -- also over
  Hypothesis-drawn simple graphs;
* the key-walking sums equal ``oriented_degrees`` + ``component_ops``
  under every label map the planner prices (a superset of the six
  distinct maps it sends to the kernel in one call);
* the native smallest-last order, peeled from the rows it lays out in
  C, equals the Python reference on ``csr()``, ties included;
* malformed keys raise ValueError from the constructor and from every
  native key walker (``native.oriented_csr`` included), and an ``n``
  whose keys would overflow int64 is refused before anything is
  allocated;
* key adoption (``Graph._adopt``) through the native pass
  (``native.adopt_keys``) and through the NumPy reference gives the
  same degrees on every shape, and the same ``ValueError`` message on
  every malformed array -- several faults in one array included, where
  the first check in the reference's order names the fault -- also
  over Hypothesis-drawn arrays.

The native tests skip where no C toolchain exists (or under
``REPRO_NATIVE=0``); the constructor tests run everywhere.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import DiscretePareto, Graph, sample_degree_sequence
from repro.core.costs import component_ops
from repro.engine import native
from repro.graphs import graph as graph_module
from repro.graphs.generators import configuration_model
from repro.listing.api import ALL_METHODS
from repro.orientations.degenerate import _smallest_last_python
from repro.orientations.relabel import oriented_degrees
from repro.planner.candidates import GRAPH_ORDERINGS, iter_candidates

needs_native = pytest.mark.skipif(not native.available(),
                                  reason="no C toolchain / native gated")


def _pareto_configuration(n=600, seed=11):
    """A Pareto alpha = 1.5 configuration graph (library-made keys)."""
    rng = np.random.default_rng(seed)
    dist = DiscretePareto.paper_parameterization(1.5).truncate(n - 1)
    return configuration_model(sample_degree_sequence(dist, n, rng), rng)


#: ``(n, edges)`` per shape, edges in no particular order or orientation.
SHAPES = {
    "n0": (0, []),
    "m0": (6, []),
    "isolated": (9, [(7, 2), (2, 4), (4, 7)]),
    "star": (9, [(i, 0) for i in range(8, 0, -1)]),
    "k7": (7, [(j, i) for i in range(7) for j in range(i + 1, 7)]),
    "k35": (8, [(3 + j, i) for j in range(5) for i in range(3)]),
    "path": (10, [(i + 1, i) for i in range(9)][::-1]),
    "pareto": None,
}


@pytest.fixture(params=sorted(SHAPES))
def shape(request):
    """``(n, edges)`` of one shape; the pareto graph in random order."""
    if SHAPES[request.param] is not None:
        return SHAPES[request.param]
    edges = _pareto_configuration().edges
    order = np.random.default_rng(0).permutation(len(edges))
    return 600, edges[order][:, ::-1]


def _reference_keys(n, edges):
    """Canonical sorted keys computed with plain Python ints."""
    return np.array(sorted(min(u, v) * n + max(u, v)
                           for u, v in np.asarray(edges).tolist()),
                    dtype=np.int64)


def _assert_csr_brute_force(graph):
    """``csr()``, ``neighbors()`` and ``has_edge()`` against the
    adjacency of ``graph.edges``: every row, and ``has_edge`` on every
    pair (up to 100 nodes; beyond, on each row's neighbours, the node
    itself and the next node)."""
    assert graph._csr is None
    indices, indptr = graph.csr()
    assert graph.csr() is graph._csr
    assert indices.dtype == indptr.dtype == np.int64
    assert indices.shape == (2 * graph.m,)
    assert indptr.tolist() == [0, *np.cumsum(graph.degrees).tolist()]
    adjacency = [set() for _ in range(graph.n)]
    for u, v in graph.edges.tolist():
        adjacency[u].add(v)
        adjacency[v].add(u)
    for v in range(graph.n):
        assert graph.neighbors(v).tolist() == sorted(adjacency[v])
        probes = (range(graph.n) if graph.n <= 100
                  else adjacency[v] | {v, (v + 1) % graph.n})
        for u in probes:
            assert graph.has_edge(v, u) == (u in adjacency[v])


def _pairs(n):
    """Simple edge sets over ``n`` nodes, isolated nodes allowed."""
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    return st.sets(pair.filter(lambda e: e[0] != e[1])
                   .map(lambda e: (max(e), min(e))), max_size=3 * n)


#: ``(n, edges)``: no nodes, isolated nodes only, stars, cliques and
#: random simple graphs.
SIMPLE_GRAPHS = st.one_of(
    st.just((0, [])),
    st.integers(1, 12).map(lambda n: (n, [])),
    st.integers(1, 12).map(lambda n: (n, [(v, 0) for v in range(1, n)])),
    st.integers(1, 9).map(lambda n: (n, [(u, v) for v in range(n)
                                         for u in range(v + 1, n)])),
    st.integers(1, 16).flatmap(
        lambda n: st.tuples(st.just(n), _pairs(n).map(sorted))),
)


class TestConstructorsAgree:
    def test_keys_degrees_edges_and_csr(self, shape):
        n, edges = shape
        public = Graph(n, edges)
        keyed = Graph._from_keys(n, _reference_keys(n, edges))
        np.testing.assert_array_equal(public.keys, _reference_keys(n, edges))
        np.testing.assert_array_equal(keyed.keys, public.keys)
        np.testing.assert_array_equal(keyed.degrees, public.degrees)
        assert keyed.degrees.dtype == public.degrees.dtype == np.int64
        np.testing.assert_array_equal(keyed.edges, public.edges)
        assert (keyed.n, keyed.m) == (public.n, public.m) == (n, len(edges))
        for mine, theirs in zip(keyed.csr(), public.csr()):
            np.testing.assert_array_equal(mine, theirs)

    def test_edges_sorted_decoded_and_not_cached(self, shape):
        n, edges = shape
        graph = Graph(n, edges)
        out = graph.edges
        assert out.shape == (graph.m, 2) and out.dtype == np.int64
        assert out.tolist() == sorted(out.tolist())
        assert np.all(out[:, 0] < out[:, 1])
        assert graph.edges is not out
        lo, hi = graph.endpoints()
        np.testing.assert_array_equal(np.column_stack([lo, hi]), out)

    def test_keys_are_read_only(self):
        graph = Graph(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError):
            graph.keys[0] = 2

    def test_csr_against_brute_force(self, shape):
        _assert_csr_brute_force(Graph(*shape))

    @given(graph=SIMPLE_GRAPHS)
    @settings(max_examples=100, deadline=None)
    def test_drawn_csr_against_brute_force(self, graph):
        _assert_csr_brute_force(Graph(*graph))

    def test_generators_hand_over_sorted_keys(self):
        graph = _pareto_configuration()
        assert np.all(graph.keys[1:] > graph.keys[:-1])
        rebuilt = Graph(graph.n, graph.edges)
        np.testing.assert_array_equal(rebuilt.keys, graph.keys)
        np.testing.assert_array_equal(rebuilt.degrees, graph.degrees)


@needs_native
class TestNativeAgainstReference:
    def test_csr_bit_identical(self, shape, monkeypatch):
        """``csr()`` is the same with the library loaded or gated, bit
        for bit, dtype included."""
        loaded = Graph(*shape).csr()
        with monkeypatch.context() as patch:
            patch.setattr(native, "_lib", None)
            gated = Graph(*shape).csr()
        for built, other in zip(loaded, gated):
            assert built.dtype == other.dtype == np.int64
            np.testing.assert_array_equal(built, other)

    def test_oriented_sums_match_reference(self, shape):
        graph = Graph(*shape)
        maps = {c.orientation_key(): c.permutation().labels_for(graph)
                for c in iter_candidates(ALL_METHODS, GRAPH_ORDERINGS)}
        sums = native.oriented_sums(graph.keys, graph.degrees,
                                    np.stack(list(maps.values())))
        for row, labels in zip(sums.tolist(), maps.values()):
            assert row == list(component_ops(
                *oriented_degrees(graph, labels)).values())

    def test_smallest_last_on_native_csr(self, shape):
        """The keys pass peels the rows it lays out in C, in
        ``csr()``'s order: the Python loop on ``csr()`` gives its
        order and degeneracy."""
        graph = Graph(*shape)
        order, k = native.smallest_last(graph.keys, graph.degrees)
        assert graph._csr is None
        ref_order, ref_k = _smallest_last_python(graph)
        np.testing.assert_array_equal(order, ref_order)
        assert k == ref_k


def _malformed(n=6):
    """Bad key arrays for a 6-node graph, each with ``m = 3``."""
    return {
        "unsorted": np.array([1 * n + 2, 0 * n + 1, 3 * n + 4]),
        "duplicate": np.array([0 * n + 1, 0 * n + 1, 3 * n + 4]),
        "negative": np.array([-1, 0 * n + 1, 3 * n + 4]),
        "beyond-n2": np.array([0 * n + 1, 3 * n + 4, n * n]),
        "self-loop": np.array([0 * n + 1, 2 * n + 2, 3 * n + 4]),
        "lower-triangle": np.array([0 * n + 1, 4 * n + 3, 4 * n + 5]),
        # past row 0, key - row base would overflow int64
        "int64-min": np.array([0 * n + 1, 1 * n + 2,
                               np.iinfo(np.int64).min]),
    }


MALFORMED = sorted(_malformed())


class TestMalformedKeys:
    @pytest.mark.parametrize("name", MALFORMED)
    def test_constructor_raises(self, name):
        with pytest.raises(ValueError):
            Graph._from_keys(6, _malformed()[name])

    @needs_native
    @pytest.mark.parametrize("name", MALFORMED)
    def test_native_sums_raise(self, name):
        degrees = np.array([1, 1, 1, 1, 1, 1], dtype=np.int64)
        labels = np.arange(6, dtype=np.int64)[None, :]
        with pytest.raises(ValueError, match="0 <= lo < hi < n"):
            native.oriented_sums(_malformed()[name], degrees, labels)

    @needs_native
    @pytest.mark.parametrize("name", MALFORMED)
    def test_native_oriented_csr_raises(self, name):
        with pytest.raises(ValueError, match="0 <= lo < hi < n"):
            native.oriented_csr(_malformed()[name],
                                np.arange(6, dtype=np.int64))

    @needs_native
    def test_no_keys_on_no_nodes(self):
        degrees = np.empty(0, dtype=np.int64)
        with pytest.raises(ValueError):
            native.oriented_sums(np.array([0]), degrees,
                                 np.empty((1, 0), dtype=np.int64))
        with pytest.raises(ValueError):
            native.oriented_csr(np.array([0]), degrees)

    def test_wrong_dtype_or_shape(self):
        for bad in (np.array([1, 2], dtype=np.int32), [1, 2],
                    np.array([[1, 2]])):
            with pytest.raises(ValueError, match="1-d int64"):
                Graph._from_keys(6, bad)


def _adopted(n, keys, lib):
    """``Graph._from_keys`` with ``native._lib`` set to ``lib``: the
    degrees, or the ValueError message."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(native, "_lib", lib)
        try:
            return Graph._from_keys(n, np.array(keys, dtype=np.int64))
        except ValueError as exc:
            return str(exc)


def _assert_adoption_agrees(n, keys):
    """Native and reference adoption agree; returns the native result."""
    mine, theirs = _adopted(n, keys, native._lib), _adopted(n, keys, None)
    if isinstance(theirs, str):
        assert mine == theirs
        return mine
    assert mine.degrees.dtype == theirs.degrees.dtype == np.int64
    np.testing.assert_array_equal(mine.degrees, theirs.degrees)
    np.testing.assert_array_equal(mine.keys, theirs.keys)
    return mine


#: Key arrays with several faults each, for a 6-node graph: the
#: reference reports the first check that fails, in the order
#: increasing, range, lo < hi.
COMPOUND = {
    "loop-then-decrease": ([2 * 6 + 2, 3 * 6 + 4, 3 * 6 + 1],
                           "strictly increasing"),
    "negative-and-loop": ([-5, 1 * 6 + 1, 3 * 6 + 4],
                          "out of range"),
    "beyond-and-repeat": ([1, 1, 36], "strictly increasing"),
    "loop-and-beyond": ([0 * 6 + 1, 2 * 6 + 2, 40], "out of range"),
    "lower-and-loop": ([0 * 6 + 1, 4 * 6 + 3, 5 * 6 + 5], "self-loops"),
    "above-last-then-decrease": ([1, 100, 5], "strictly increasing"),
}


@needs_native
class TestNativeAdoption:
    def test_shapes_agree(self, shape):
        n, edges = shape
        keys = _reference_keys(n, edges)
        graph = _assert_adoption_agrees(n, keys)
        fault, degrees = native.adopt_keys(keys, n)
        assert fault == 0
        np.testing.assert_array_equal(degrees, graph.degrees)

    @pytest.mark.parametrize("name", MALFORMED)
    def test_malformed_messages_agree(self, name):
        message = _assert_adoption_agrees(6, _malformed()[name])
        assert isinstance(message, str)

    @pytest.mark.parametrize("name", sorted(COMPOUND))
    def test_compound_faults_name_the_first_check(self, name):
        keys, expect = COMPOUND[name]
        message = _assert_adoption_agrees(6, keys)
        assert expect in message

    def test_wrapper_refuses_other_arrays(self):
        for bad in (np.array([1, 2], dtype=np.int32), [1, 2],
                    np.array([[1, 2]])):
            with pytest.raises(ValueError, match="1-d int64"):
                native.adopt_keys(bad, 6)

    def test_strided_keys(self):
        keys = np.repeat(Graph(5, [(0, 1), (1, 2), (3, 4)]).keys, 2)[::2]
        assert not keys.flags.c_contiguous
        graph = Graph._from_keys(5, keys)
        np.testing.assert_array_equal(graph.degrees, [1, 2, 1, 1, 1])
        assert graph.keys is keys

    def test_public_constructor_adopts_natively(self, monkeypatch):
        calls = []
        real = native.adopt_keys
        monkeypatch.setattr(native, "adopt_keys",
                            lambda *a: calls.append(a) or real(*a))
        Graph(4, [(2, 3), (0, 1)])
        assert len(calls) == 1

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_drawn_arrays_agree(self, data):
        n = data.draw(st.integers(min_value=0, max_value=7))
        keys = data.draw(st.lists(
            st.integers(min_value=-3, max_value=n * n + 3), max_size=12))
        if data.draw(st.booleans()):
            keys = sorted(set(keys))
        _assert_adoption_agrees(n, keys)


class TestKeyOverflow:
    N = graph_module.MAX_KEYED_N + 1

    def test_bound_is_the_int64_square_root(self):
        bound = graph_module.MAX_KEYED_N
        assert bound == 3_037_000_499
        assert bound * bound <= 2**63 - 1 < (bound + 1) ** 2

    def test_public_constructor_raises_before_allocating(self):
        with pytest.raises(ValueError, match="overflows"):
            Graph(self.N, [(0, 1)])

    def test_from_keys_raises_before_allocating(self):
        with pytest.raises(ValueError, match="overflows"):
            Graph._from_keys(self.N, np.array([1], dtype=np.int64))
