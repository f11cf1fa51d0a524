"""``repro.engine`` -- the compiled triangle-listing kernel.

The pure-Python listers in :mod:`repro.listing` are the instrumented
ground truth: per-candidate loops whose ``ops``/``comparisons``
counters define the paper's cost metric. All 18 methods list the same
triangle set, and eqs. (7)-(9) give their cost in closed form from the
oriented degrees, so one fast kernel serves every method: when a C
toolchain is present, :mod:`repro.engine.native` compiles a small
pthreads library at first use (one mark-array forward intersection: a
threaded count pass, bit-identical at any thread count, and one
resumable triangle stream) that reads the graph's own uint32 CSR without copying it, and
:func:`run_numpy` prices the requested method in closed form beside
it.

Select an engine per call: ``list_triangles(..., engine="python")``
runs the reference loops, ``engine="native"`` requires the compiled
kernel, and the default ``"auto"`` takes the compiled kernel when it
is available (``REPRO_NATIVE=0`` or a failed compile leaves the Python
reference, with identical results); see docs/PERFORMANCE.md for the
design and measured speedups.
"""

from repro.engine import native
from repro.engine.kernels import run_numpy
from repro.engine.native import stream_triangles

__all__ = [
    "native",
    "run_numpy",
    "stream_triangles",
]
