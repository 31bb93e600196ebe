"""Radial moment transform on [R, 1]: closed forms, zeros, reconstruction.

For a profile ``phi`` on the radial interval the transform is
``phi_hat(z) = integral_R^1 phi(r) r^(z-1) dr``.  For polynomial profiles
each monomial ``r^m`` contributes ``(1 - R^(z+m)) / (z+m)``, an entire
function of ``z`` whose value at ``z + m = 0`` is ``log(1/R)``.
"""

from __future__ import annotations

import numpy as np

from .errors import FloatRangeError, IllConditionedError, ZeroProfileError
from .geometry import AnnulusGeometry
from .symbols import PolyProfile

#: largest coefficient error of a reconstruction, and the round-trip row's tolerance
RECONSTRUCT_TOLERANCE = 1e-8
#: scan step and bisection tolerance of :func:`mellin_zero_locate`
ZERO_SCAN_STEP = 0.25
ZERO_BISECT_TOL = 1e-10
#: natural log of the largest float, past which ``exp`` and ``expm1`` overflow
LOG_FLOAT_MAX = float(np.log(np.finfo(float).max))


def monomial_moment(s, R: float):
    """Entire continuation of ``(1 - R^s) / s`` with value ``-log(R)`` at 0.

    Accepts scalars or arrays, real or complex; ``expm1`` keeps the
    value accurate near 0 for both.
    """
    L = np.log(R)
    s = np.asarray(s)
    out = np.where(s == 0, -L, -np.expm1(s * L) / np.where(s == 0, 1, s))
    return out if out.ndim else out[()]


def check_moment_range(s_max: float, R: float) -> None:
    """Refuse, with :class:`FloatRangeError`, moments at ``|s| <= s_max``
    that would leave the float range.

    A moment is ``-expm1(x) / s`` at ``x = s log R``, finite while ``R^s =
    e^x`` is, that is while ``x <= log(float max)``.  Over ``|s| <= s_max``
    the largest ``|x|`` is ``s_max |log R|``, so the rule ``s_max |log R| <=
    log(float max)`` keeps every exponent of either sign in range.
    """
    x = s_max * abs(np.log(R))
    if not x <= LOG_FLOAT_MAX:
        raise FloatRangeError(
            f"moments at |s| <= {s_max:g} leave the float range at R={R:g}: "
            f"|s log R| reaches {x:.6g} > log(float max) = {LOG_FLOAT_MAX:.6g}"
        )


def mellin_transform(profile: PolyProfile, z, R: float):
    """Transform value(s) at ``z`` by the closed form per monomial, from one
    :func:`monomial_moment` call summed over the table in its own order."""
    z = np.asarray(z)
    moments = monomial_moment(np.add.outer(list(profile.coeffs), z), R)
    out = np.zeros(z.shape, dtype=complex)
    for c, moment in zip(profile.coeffs.values(), moments):
        out += c * moment
    return out if out.ndim else complex(out[()])


def mellin_quadrature(profile: PolyProfile, z, geo: AnnulusGeometry):
    """Gauss-grid evaluation of the transform, used as an independent oracle,
    on the log-radial nodes of :meth:`AnnulusGeometry.radial_nodes`.
    ``np.float_power`` rounds each element as C ``pow`` does, so an array
    ``z`` gives each scalar call's bits (``**`` takes a vector loop that
    rounds otherwise)."""
    r, w = geo.radial_nodes()
    z = np.asarray(z)
    zz = z.reshape(z.shape + (1,))
    vals = np.sum(w * profile.eval(r) * np.float_power(r, zz - 1.0), axis=-1)
    return vals if vals.ndim else complex(vals[()])


def _bisect(fn, a: float, b: float) -> float:
    fa = fn(a)
    for _ in range(200):
        mid = 0.5 * (a + b)
        if b - a <= ZERO_BISECT_TOL:
            return mid
        fm = fn(mid)
        if fm == 0.0:
            return mid
        if (fa < 0) != (fm < 0):
            b = mid
        else:
            a, fa = mid, fm
    return 0.5 * (a + b)


def _sign_certified(profile: PolyProfile) -> bool:
    """The sign certificate of :func:`mellin_zero_locate`: True when the
    profile has no real zero by it."""
    c = np.array(list(profile.coeffs.values()), dtype=complex)
    return bool(np.isfinite(c).all()) and any(
        p.any() and (p.min() >= 0.0 or p.max() <= 0.0) for p in (c.real, c.imag)
    )


def mellin_zero_locate(profile: PolyProfile, lo: float, hi: float, R: float) -> list[float]:
    """Real zeros of the transform on ``[lo, hi]``.

    A sign certificate answers first: every monomial moment ``(1 - R^s) /
    s`` is strictly positive for real ``s``, so if the real parts of the
    (finite) coefficients, or their imaginary parts, are all ``>= 0`` or
    all ``<= 0`` and not all zero, that part of the transform has one
    strict sign on the whole real line and there is no real zero: ``[]``,
    before any moment is taken.  Otherwise it scans a grid of step
    ``ZERO_SCAN_STEP`` for sign changes and refines each by bisection to
    ``ZERO_BISECT_TOL``.  Complex coefficient tables are handled by
    scanning the real and imaginary parts separately and keeping locations
    where the full value vanishes.  Zeros without a sign change are
    outside the contract.
    """
    if profile.is_zero():
        raise ZeroProfileError("zero profile has no located zeros")
    if _sign_certified(profile):
        return []
    grid = np.arange(lo, hi + 0.5 * ZERO_SCAN_STEP, ZERO_SCAN_STEP)
    vals = np.asarray(mellin_transform(profile, grid, R))
    scale = float(np.max(np.abs(vals)))
    if scale == 0.0:
        raise ZeroProfileError("transform vanished identically on the scan grid")
    roots: list[float] = []

    def add(root: float) -> None:
        if abs(complex(mellin_transform(profile, root, R))) <= 1e-8 * scale and not any(
            abs(root - r) <= 10 * ZERO_BISECT_TOL for r in roots
        ):
            roots.append(root)

    for part in (np.real, np.imag):
        p = part(vals)
        if np.all(p == 0.0):
            continue
        fn = lambda x: float(part(np.asarray(mellin_transform(profile, x, R))))
        # grid point i is an exact zero, or brackets a sign change with i + 1
        zero = p == 0.0
        marks = zero.copy()
        marks[:-1] |= (p[:-1] < 0) != (p[1:] < 0)
        for i in np.flatnonzero(marks):
            if zero[i]:
                add(float(grid[i]))
            else:
                add(_bisect(fn, float(grid[i]), float(grid[i + 1])))
    return sorted(roots)


def mellin_poly_reconstruct(values, z_start: float, z_step: float, R: float) -> PolyProfile:
    """Recover a degree ``d`` polynomial profile from ``d + 1`` transform values.

    ``values[j]`` must be the transform at ``z_j = z_start + z_step * j``.
    Solves the row-scaled square moment system ``A c = v``.  To first
    order, a backward-stable solve of data rounded to relative ``eps`` has
    relative error up to about ``kappa(A) eps``, so :class:`IllConditionedError`
    (condition attached) refuses ``kappa(A) eps > RECONSTRUCT_TOLERANCE``,
    and moments past the float range.  The estimate is an upper one: it
    can refuse a system whose actual error would have passed.
    """
    values = np.asarray(values, dtype=complex)
    d = len(values) - 1
    zs = z_start + z_step * np.arange(d + 1)
    # complex: a real matrix would be scaled and solved with other roundings
    A = monomial_moment(np.add.outer(zs, np.arange(d + 1)), R).astype(complex)
    if not np.all(np.isfinite(A)):
        # moments past the float range (tiny R) leave nothing to condition
        raise IllConditionedError("moment system is not finite", float("inf"))
    # rows where R^z dominates are huge in norm without being any less
    # informative, so both the guard and the solve use the row-scaled system
    row = np.max(np.abs(A), axis=1)
    A = A / row[:, None]
    cond = float(np.linalg.cond(A))
    if not cond * np.finfo(float).eps <= RECONSTRUCT_TOLERANCE:  # NaN refuses
        raise IllConditionedError(
            f"moment system condition {cond:.3e} times eps exceeds the "
            f"reconstruction tolerance {RECONSTRUCT_TOLERANCE:.0e}",
            cond,
        )
    coeffs = np.linalg.solve(A, values / row)
    return PolyProfile({m: complex(c) for m, c in enumerate(coeffs)})
