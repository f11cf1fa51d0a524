"""Native residual wiring against the reference loop on boundary draws.

The C loop (``repro_residual_wire``) draws partners from an 8-ary
integer tree; the Python reference from ``FenwickTree``'s float64
binary descent. They agree because every weight and prefix sum is an
integer below ``2**53``: both return the ``j`` with ``prefix(j) <=
u * total < prefix(j + 1)``, and that ``j`` is the same for the floor
of ``u * total``. Here both loops replay hand-picked uniforms where
that argument is sharpest:

* ``0.0``, which takes the first positive weight;
* ``1 - 2**-53``, which takes the last;
* uniforms whose ``u * total`` is exactly an integer prefix sum, and
  the next float below such a uniform;

on degree sequences whose size sits on both sides of each tree-level
boundary (8, 64 and 512 leaves). The uniforms that hit prefix sums are
chosen from the reference loop's live tree in a probe run, then
replayed as one fixed array into both loops.

The C entry point also rejects ``n >= 2**32`` (its node scratch is
32-bit) with a code of its own, which :func:`native.residual_wire`
turns into ``ValueError``.
"""

import math

import numpy as np
import pytest

from repro.engine import native
from repro.graphs import generators as gen
from repro.graphs.fenwick import FenwickTree

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


class _Replay:
    """A stand-in rng whose ``random()`` returns fixed uniforms in turn."""

    def __init__(self, uniforms):
        self._next = iter(uniforms.tolist())

    def random(self):
        return next(self._next)


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


def _exact_uniform(target: int, total: float):
    """A u in [0, 1) with ``u * total == target`` exactly, or None."""
    u = target / total
    for __ in range(4):
        if u * total == target and u < 1.0:
            return u
        u = math.nextafter(u, 0.0 if u * total > target else 1.0)
    return None


def _uniforms(degrees, order, kinds):
    """``sum(degrees) // 2`` uniforms for ``kinds``, cycled per draw.

    ``prefix`` and ``below`` draws read the reference loop's live tree
    in a probe run; returns the uniforms and how many of them put
    ``u * total`` exactly on a positive prefix sum.
    """
    half = int(degrees.sum()) // 2
    if set(kinds) <= {"zero", "top"}:
        cycle = [0.0 if k == "zero" else TOP for k in kinds]
        return np.resize(np.array(cycle), half), 0
    trees, picks = [], []
    hits = 0
    pick_rng = np.random.default_rng(int(degrees.size))

    class Recording(FenwickTree):
        def __init__(self, weights):
            super().__init__(weights)
            trees.append(self)

    class Probe:
        def random(self):
            nonlocal hits
            tree, kind = trees[-1], kinds[len(picks) % len(kinds)]
            u = 0.0 if kind == "zero" else TOP
            if kind in ("prefix", "below") and tree.n > 1:
                # prefix(j): the weight strictly below node j
                j = int(pick_rng.integers(1, tree.n))
                target = int(tree.prefix_sum(j - 1))
                exact = _exact_uniform(target, tree.total)
                if target > 0 and exact is not None:
                    if kind == "prefix":
                        u = exact
                        hits += 1
                    else:
                        u = math.nextafter(exact, 0.0)
            picks.append(u)
            return u

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gen, "FenwickTree", Recording)
        gen._wire_python(degrees, order, Probe())
    return np.array(picks + [0.0] * (half - len(picks))), hits


@needs_native
@pytest.mark.parametrize("pattern", sorted(PATTERNS))
@pytest.mark.parametrize("kind", ["star", "uniform", "heavy"])
@pytest.mark.parametrize("n", SIZES)
def test_boundary_draws_match_the_reference(n, kind, pattern):
    degrees = _degrees(n, kind)
    order = np.argsort(degrees)[::-1]
    u, hits = _uniforms(degrees, order, PATTERNS[pattern])
    if "prefix" in PATTERNS[pattern] and n >= 8:
        assert hits > 0  # the probe really landed draws on prefix sums
    ref_edges, ref_residual, __ = gen._wire_python(degrees, order,
                                                   _Replay(u))
    residual = degrees.copy()
    edges = native.residual_wire(order, residual, u)
    assert edges.tolist() == [list(e) for e in ref_edges]
    np.testing.assert_array_equal(residual, ref_residual)


@needs_native
class TestIndexWidth:
    def _call(self, n, residual):
        one = np.zeros(1, dtype=np.int64)
        edges = np.full(2, -7, dtype=np.int64)
        code = native._lib.residual_wire(
            n, one.ctypes.data_as(native._I64P),
            residual.ctypes.data_as(native._I64P),
            np.zeros(1).ctypes.data_as(native._F64P), 1,
            edges.ctypes.data_as(native._I64P))
        return code, edges

    def test_c_entry_rejects_n_at_2_32_before_reading(self):
        residual = np.ones(1, dtype=np.int64)
        code, edges = self._call(2 ** 32, residual)
        assert code == -3  # not -1 (allocation) or -2 (descent)
        assert residual.tolist() == [1] and edges.tolist() == [-7, -7]

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
                                 np.zeros(1))
