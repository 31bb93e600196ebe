"""Finite-section laboratory for Toeplitz and Hankel operators on the
Hardy and Bergman spaces of a concentric annulus.

Callers import from the submodules (``annulab.hardy``,
``annulab.reduction``, ...).  The namespace keeps ``PolyProfile`` only
because the benchmark's own tests read it as ``annulab.PolyProfile``."""

import os as _os

# one BLAS thread unless the caller chose: blocked LAPACK sums split by thread,
# so bytes would follow the thread count; a numpy loaded earlier keeps its own
_os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
_os.environ.setdefault("OMP_NUM_THREADS", "1")

from .symbols import PolyProfile  # noqa: E402,F401
