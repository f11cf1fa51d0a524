"""``repro.engine`` -- NumPy-vectorized triangle-listing kernels.

The pure-Python listers in :mod:`repro.listing` are the instrumented
ground truth: per-candidate loops whose ``ops``/``comparisons``
counters define the paper's cost metric. This package re-implements
all 18 search patterns as batched NumPy kernels over the
``OrientedGraph`` CSR arrays -- ``searchsorted`` window bounds,
grouped-arange candidate expansion, and sorted-key membership probes
-- delivering order-of-magnitude speedups at ``n >= 10^5`` while
returning bit-identical triangle sets, counts, and ``ops`` (computed
in closed form from the oriented degrees, eqs. (7)-(9)).

When a C toolchain is present, :mod:`repro.engine.native` compiles a
small pthreads kernel library at first use (one mark-array forward
intersection, counting *and* triangle emission, deterministic
multi-thread block driver). Both read the graph's own uint32 CSR; no
engine keeps a copy of it.

Select an engine per call: ``list_triangles(..., engine="numpy")``
runs the pure-NumPy kernels, ``engine="native"`` requires the compiled
kernels, and the default ``"auto"`` takes the compiled kernels when
they are available (``REPRO_NATIVE=0`` or a failed compile leaves the
NumPy kernels, with identical results); see docs/PERFORMANCE.md for
the design and measured speedups.
"""

from repro.engine import native
from repro.engine.kernels import (
    CHUNK_CANDIDATES,
    NUMPY_METHODS,
    run_method_kernel,
    run_numpy,
)
from repro.engine.native import list_triangles_array, stream_triangles

__all__ = [
    "CHUNK_CANDIDATES",
    "NUMPY_METHODS",
    "list_triangles_array",
    "native",
    "run_method_kernel",
    "run_numpy",
    "stream_triangles",
]
