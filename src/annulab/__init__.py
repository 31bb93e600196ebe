"""Finite-section laboratory for Toeplitz and Hankel operators on the
Hardy and Bergman spaces of a concentric annulus.

Callers import from the submodules (``annulab.hardy``,
``annulab.reduction``, ...).  The namespace keeps ``PolyProfile`` only
because the benchmark's own tests read it as ``annulab.PolyProfile``."""

from .symbols import PolyProfile  # noqa: F401
