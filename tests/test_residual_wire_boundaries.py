"""The open-stub pool's draws: C against the reference, and their law.

Both wiring loops draw partners from one pool of open stubs: a uniform
``u`` takes entry ``p = min(floor(u * S), S - 1)`` of the ``S``
drawable entries. The C loop (``repro_residual_wire``) reads its
uniforms from a ``bitgen_t``; here a stub one replays fixed uniforms,
and the Python reference gets the same ones from ``random()``. Both
loops replay hand-picked uniforms where the arithmetic is sharpest:

* ``0.0``, which takes the first entry;
* ``1 - 2**-53``, the top of ``rng.random()``'s range, which takes the
  last entry ``S - 1``;
* uniforms with ``u * S`` exactly an integer ``k`` (a draw landing on
  the slot boundary ``k / S``, which takes entry ``k``), and the next
  float below such a uniform;

on degree sequences whose size sits on both sides of 8, 64 and 512.
The boundary uniforms are chosen in a probe run of the reference,
whose ``random()`` returns a float that learns ``S`` when the loop
multiplies by it, then replayed as one fixed list into both loops.
``u = 1.0``, which no numpy bit generator returns, must clamp to
``S - 1`` in both.

The law: over many seeds a node's partner is drawn in proportion to
its residual degree, and a node is never drawn twice by the same node
(nor by itself). On hub-heavy sequences -- Pareto ``alpha = 1.1``
under linear truncation, a star plus a matching, near-complete
sequences -- the pool's explicit-exclusion switch fires (the drawable
size drops by more than one between two draws), and the loops still
agree.

The C entry point also rejects ``n >= 2**32`` (its pool holds 32-bit
node ids) with a code of its own, which :func:`native.residual_wire`
turns into ``ValueError``.
"""

import ctypes
import math
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from repro import DiscretePareto, sample_degree_sequence
from repro.engine import native
from repro.graphs import generators as gen

needs_native = pytest.mark.skipif(not native.available(),
                                  reason="no C toolchain / native gated")

SIZES = (1, 2, 7, 8, 9, 63, 64, 65, 511, 512, 513)

#: The largest double below 1, the top of ``rng.random()``'s range.
TOP = 1.0 - 2.0 ** -53

#: Draw kinds, cycled in order by a pattern.
PATTERNS = {
    "zero": ("zero",),
    "top": ("top",),
    "prefix": ("prefix",),
    "mixed": ("prefix", "zero", "below", "top"),
}

_U64 = ctypes.CFUNCTYPE(ctypes.c_uint64, ctypes.c_void_p)
_U32 = ctypes.CFUNCTYPE(ctypes.c_uint32, ctypes.c_void_p)
_DOUBLE = ctypes.CFUNCTYPE(ctypes.c_double, ctypes.c_void_p)


class _BitGen(ctypes.Structure):
    """numpy's ``bitgen_t``."""

    _fields_ = [("state", ctypes.c_void_p), ("next_uint64", _U64),
                ("next_uint32", _U32), ("next_double", _DOUBLE),
                ("next_raw", _U64)]


class Replay:
    """A stand-in Generator that hands out fixed uniforms in turn: to
    the reference through ``random()``, to the C loop through a
    ``bitgen_t`` whose ``next_double`` reads the same list."""

    def __init__(self, uniforms):
        self.uniforms = list(uniforms)
        self.used = 0
        self._next_double = _DOUBLE(lambda __: self.random())
        self._struct = _BitGen(None, _U64(), _U32(), self._next_double,
                               _U64())
        self.bit_generator = SimpleNamespace(
            lock=threading.Lock(),
            ctypes=SimpleNamespace(bit_generator=ctypes.cast(
                ctypes.pointer(self._struct), ctypes.c_void_p)))

    def random(self):
        u = self.uniforms[self.used] if self.used < len(self.uniforms) \
            else 0.5
        self.used += 1
        return u


class _Probe:
    """A reference-loop rng whose draws see the pool size.

    ``random()`` returns a float whose product with the drawable size
    ``S`` calls ``pick(S)`` for the uniform actually used; every pick
    and every ``S`` are recorded."""

    def __init__(self, pick):
        self.picks, self.sizes = [], []
        probe = self

        class Draw(float):
            def __mul__(self, size):
                u = pick(size)
                probe.picks.append(u)
                probe.sizes.append(size)
                return u * size

        self._draw = Draw(0.0)

    def random(self):
        return self._draw


def _degrees(n: int, kind: str) -> np.ndarray:
    """An even-sum sequence with every degree below n."""
    if n == 1:
        return np.zeros(1, dtype=np.int64)
    rng = np.random.default_rng(n)
    if kind == "star":
        degrees = np.ones(n, dtype=np.int64)
        degrees[0] = n - 1
    elif kind == "uniform":
        degrees = rng.integers(1, min(n - 1, 12) + 1, n)
    else:  # heavy-tailed, capped at n - 1
        degrees = np.floor(2 * (1 - rng.random(n)) ** (-1 / 1.3))
        degrees = np.minimum(degrees, n - 1).astype(np.int64)
    degrees = np.asarray(degrees, dtype=np.int64)
    if degrees.sum() % 2:
        degrees[np.argmax(degrees)] -= 1
    return degrees


def _exact_uniform(k: int, size: int):
    """A u in [0, 1) with ``u * size == k`` exactly, or None."""
    u = k / size
    for __ in range(4):
        if u * size == k and u < 1.0:
            return u
        u = math.nextafter(u, 0.0 if u * size > k else 1.0)
    return None


def _uniforms(degrees, order, kinds):
    """The uniforms of a probe run for ``kinds``, cycled per draw, and
    how many of them put ``u * S`` exactly on a boundary ``k > 0``."""
    pick_rng = np.random.default_rng(int(degrees.size))
    hits = 0

    def pick(size):
        nonlocal hits
        kind = kinds[len(probe.picks) % len(kinds)]
        if kind in ("prefix", "below") and size > 1:
            k = int(pick_rng.integers(1, size))
            exact = _exact_uniform(k, size)
            if exact is not None:
                if kind == "prefix":
                    hits += 1
                    return exact
                return math.nextafter(exact, 0.0)
        return TOP if kind == "top" else 0.0

    probe = _Probe(pick)
    gen._wire_python(degrees, order, probe)
    return probe.picks, hits


def _both(degrees, order, uniforms):
    """Both loops on one list of uniforms: keys, residuals, draws."""
    ref = Replay(uniforms)
    ref_keys, ref_residual = gen._wire_python(degrees, order, ref)
    replay = Replay(uniforms)
    residual = degrees.copy()
    keys = native.residual_wire(order, residual, replay)
    np.testing.assert_array_equal(keys, ref_keys)
    np.testing.assert_array_equal(residual, ref_residual)
    assert replay.used == ref.used <= len(uniforms)
    return keys


@needs_native
@pytest.mark.parametrize("pattern", sorted(PATTERNS))
@pytest.mark.parametrize("kind", ["star", "uniform", "heavy"])
@pytest.mark.parametrize("n", SIZES)
def test_boundary_draws_match_the_reference(n, kind, pattern):
    degrees = _degrees(n, kind)
    order = np.argsort(degrees)[::-1]
    u, hits = _uniforms(degrees, order, PATTERNS[pattern])
    if "prefix" in PATTERNS[pattern] and n >= 8:
        assert hits > 0  # the probe really landed draws on k / S
    _both(degrees, order, u)


class TestSlot:
    """Where a single draw lands, on a pool of known layout."""

    # node 0 (degree 1) goes first and takes one partner; the pool is
    # [0, 1, 2, 2, 3, 3, 3, 4, 4, 4, 4], so slot p holds node SLOT[p]
    DEGREES = np.array([1, 1, 2, 3, 4], dtype=np.int64)
    ORDER = np.array([0, 4, 3, 2, 1])
    SLOT = [0, 1, 2, 2, 3, 3, 3, 4, 4, 4, 4]

    def _first_partner(self, u):
        keys, __ = gen._wire_python(self.DEGREES, self.ORDER,
                                    Replay([u] + [0.0] * 20))
        return int(keys[0]) % 5

    @pytest.mark.parametrize("p", range(1, 11))
    def test_a_draw_on_k_over_s_takes_slot_k(self, p):
        u = _exact_uniform(p, 11)
        assert self._first_partner(u) == self.SLOT[p]
        if p > 1:  # just below k / S takes slot k - 1
            below = math.nextafter(u, 0.0)
            assert self._first_partner(below) == self.SLOT[p - 1]

    def test_extremes(self):
        # slot 0 holds node 0 itself: dropped, and the redraw at slot 0
        # finds the entry that filled it, the last one (node 4)
        assert self._first_partner(0.0) == 4
        assert self._first_partner(TOP) == 4
        assert self._first_partner(1.0) == 4  # clamped to S - 1

    @needs_native
    @pytest.mark.parametrize("u", [0.0, TOP, 1.0])
    def test_extremes_match_the_reference(self, u):
        degrees = _degrees(65, "heavy")
        order = np.argsort(degrees)[::-1]
        keys = _both(degrees, order, [u] * int(degrees.sum()) * 4)
        assert keys.size > 0


def _loops():
    loops = [("python", gen._wire_python)]
    if native.available():
        loops.append(("native", gen._wire_native))
    return loops


@pytest.mark.parametrize("name, wire", _loops())
def test_partners_are_drawn_in_proportion_to_residual_degree(name, wire):
    """Node 0 goes first and picks two partners among nodes 1-6
    (weights 1, 2, 3, 4, 5, 1): the first in proportion to weight, the
    second never equal to the first."""
    degrees = np.array([2, 1, 2, 3, 4, 5, 1], dtype=np.int64)
    order = np.array([0, 5, 4, 3, 2, 1, 6])
    seeds = 3000
    first = np.zeros(7, dtype=np.int64)
    for seed in range(seeds):
        keys, __ = wire(degrees, order, np.random.default_rng(seed))
        a, b = (int(k) % 7 for k in keys[:2])
        assert 0 not in (a, b) and a != b  # i and its neighbours excluded
        assert np.unique(keys).size == keys.size
        first[a] += 1
    weights = degrees.astype(float)
    weights[0] = 0.0
    expected = seeds * weights / weights.sum()
    assert first[0] == 0
    assert all(first[j] < first[j + 1] for j in range(1, 5))
    sd = np.sqrt(expected * (1 - expected / seeds))
    assert np.all(np.abs(first - expected) <= 5 * sd + 1e-9)


def _hub_heavy():
    dist = DiscretePareto(1.1, 1.5).truncate(599)
    pareto = sample_degree_sequence(dist, 600, np.random.default_rng(11),
                                    ensure_graphical=True)
    star = np.array([39] + [3] * 39)
    near_complete = np.full(16, 14)
    near_complete[:2] = 15
    return {"pareto-1.1-linear": pareto, "star-plus-matching": star,
            "near-complete": near_complete}


@pytest.mark.parametrize("name", sorted(_hub_heavy()))
def test_hub_heavy_sequences_fire_the_switch(name):
    degrees = _hub_heavy()[name]
    assert degrees.sum() % 2 == 0
    order = np.argsort(degrees)[::-1]
    rng = np.random.default_rng(5)
    probe = _Probe(lambda size: rng.random())
    gen._wire_python(degrees, order, probe)
    # a swap-removal shrinks the pool by one per draw; only the switch
    # drops it by more between two draws
    assert any(b < a - 1 for a, b in zip(probe.sizes, probe.sizes[1:]))
    if native.available():
        _both(degrees, order, probe.picks)
    graph = gen.residual_degree_model(degrees, np.random.default_rng(5))
    np.testing.assert_array_equal(graph.degrees, degrees)


@needs_native
class TestIndexWidth:
    def _call(self, n, residual):
        one = np.zeros(1, dtype=np.int64)
        keys = np.full(1, -7, dtype=np.int64)
        code = native._lib.residual_wire(
            n, one.ctypes.data_as(native._I64P),
            residual.ctypes.data_as(native._I64P), None,
            keys.ctypes.data_as(native._I64P), 0, None, None, None)
        return code, keys

    def test_c_entry_rejects_n_at_2_32_before_reading(self):
        residual = np.ones(1, dtype=np.int64)
        code, keys = self._call(2 ** 32, residual)
        assert code == -3  # not -1 (allocation)
        assert residual.tolist() == [1] and keys.tolist() == [-7]

    def test_c_entry_rejects_a_degree_past_32_bits(self):
        code, __ = self._call(1, np.array([2 ** 32], dtype=np.int64))
        assert code == -3

    def test_wrapper_raises_value_error(self, monkeypatch):
        class Stub:
            @staticmethod
            def residual_wire(*args):
                return -3

        monkeypatch.setattr(native, "_lib", Stub())
        with pytest.raises(ValueError, match="below 2"):
            native.residual_wire(np.arange(2), np.ones(2, dtype=np.int64),
                                 np.random.default_rng(0))
