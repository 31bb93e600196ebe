"""Toeplitz sections on the annulus Bergman space.

The monomials z^n, n >= -1, form an orthogonal basis; a symbol that is a
finite sum of quasi-homogeneous bands (angular frequency times a radial
profile) acts band by band, sending each monomial to weighted monomials
whose weights are radial Mellin moments.  Sections are assembled from
these moments in the orthonormal basis; the quadrature cross-checks
read only grid samples.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import WindowTooSmallError
from .geometry import AnnulusGeometry, bergman_norm_const
from .hardy import UNCONSTRAINED, ZeroProductReport, _probe
from .mellin import mellin_transform, mellin_zero_locate, monomial_moment
from .symbols import PolarSymbol, PolyProfile, _analyze


# quasi_homogeneous_apply and apply_polar_to_monomial: no harness reads them;
# the benchmark's per-layer metric list still names both (ROADMAP item 9)


def quasi_homogeneous_apply(
    p: int, f1: PolyProfile, n: int, R: float
) -> tuple[complex, int]:
    """Image coefficient of the n-th monomial under one band.

    A band with angular frequency ``p`` and radial profile ``f1`` sends
    ``z**n`` to ``coeff * z**(p+n)`` where the coefficient is the squared
    reciprocal monomial norm at ``p+n`` times the Mellin moment of the
    profile at ``p + 2n + 2``.  Output indices below -1 are annihilated by
    the projection and return a zero coefficient.
    """
    if n < -1:
        raise ValueError("domain index must be at least -1")
    out = p + n
    if out < -1:
        return 0.0 + 0.0j, out
    if f1.is_zero():
        return 0.0 + 0.0j, out
    t = bergman_norm_const(out, R)
    return complex(t * t * mellin_transform(f1, p + 2 * n + 2, R)), out


def _clamp_window(window: tuple[int, int]) -> tuple[int, int]:
    lo, hi = int(window[0]), int(window[1])
    if hi < -1:
        raise WindowTooSmallError("window must reach index -1 or above")
    return max(lo, -1), hi


def apply_polar_to_monomial(f: PolarSymbol, n: int, R: float) -> dict[int, complex]:
    """Exact image of ``z**n`` as a coefficient table over monomial degrees."""
    out: dict[int, complex] = {}
    for k in f.live_bands:
        coeff, deg = quasi_homogeneous_apply(k, f.bands[k], n, R)
        if coeff != 0.0:
            out[deg] = out.get(deg, 0.0 + 0.0j) + coeff
    return out


@functools.lru_cache(maxsize=32)
def _norm_consts(lo: int, hi: int, R: float) -> np.ndarray:
    """Read-only reciprocal monomial norms ``t`` over the degrees ``lo..hi``."""
    t = np.array([bergman_norm_const(n, R) for n in range(lo, hi + 1)])
    t.flags.writeable = False
    return t


def build_bergman_toeplitz(
    f: PolarSymbol, window: tuple[int, int], R: float
) -> np.ndarray:
    """Section of the symbol's action over the window's monomial degrees.

    Entries are taken in the orthonormal basis (unit monomial multiples),
    so sections compose as matrices: the entry at (row m, column n) is the
    monomial-action coefficient rescaled by ``t_n / t_m``.  Band ``k``
    sends ``z^n`` to ``c z^(n+k)`` with ``c = t_(n+k)^2`` times the Mellin
    moment of its profile at ``k + 2n + 2``, ``t`` the reciprocal monomial
    norms of :func:`bergman_norm_const`.  The lower edge
    is clamped to -1, the smallest degree in the basis, so the section
    over ``[lo, hi]`` has side ``hi - max(lo, -1) + 1``.  A radial symbol
    (single band at offset zero) gives a diagonal section; a single
    positive band gives a weighted shift.

    Operation order: every moment the section reads comes from one
    :func:`monomial_moment` call over a ``[band, degree, column]`` array of
    arguments, each band's profile is summed over its table in the table's
    own order, and each entry is formed as in the per-entry loop
    ``t_m^2 M_k(k + 2n + 2) t_n / t_m``, so the section matches that loop
    bit for bit whatever the order of the bands and degrees.
    """
    lo, hi = _clamp_window(window)
    t = _norm_consts(lo, hi, R)
    tables = [f.bands[k].coeffs for k in f.live_bands]
    width = max(map(len, tables), default=0)
    degree = [list(d) + [0] * (width - len(d)) for d in tables]
    band, n = np.array(f.live_bands, dtype=int)[:, None], np.arange(lo, hi + 1)
    # band k sends column n to row n + k; one sent outside reads argument 0
    inside = (n + band >= lo) & (n + band <= hi)
    arg = (band + 2 * n + 2)[:, None] + np.array(degree, dtype=int)[..., None]
    moments = monomial_moment(np.where(inside[:, None], arg, 0), R)
    profile = np.zeros(inside.shape, dtype=complex)
    for p, table, moment in zip(profile, tables, moments):
        for c, mom in zip(table.values(), moment):
            p += c * mom
    rows = np.where(inside, n - lo + band, 0)
    coeff = (t[rows] * t[rows]) * profile
    val = coeff * t
    # numpy divides complex by real through a reciprocal; divide each part
    val.real /= t[rows]
    val.imag /= t[rows]
    ent = np.zeros((len(n), len(n)), dtype=complex)
    ent[rows[inside], np.nonzero(inside)[1]] += val[inside]
    if not np.any(coeff[inside] != 0.0) and not f.is_zero():
        raise WindowTooSmallError(
            f"window [{lo},{hi}] holds no image of any band of the symbol"
        )
    return ent


# ---------------------------------------------------------------------------
# quadrature oracle on the two-dimensional grid


def polar_symbol_grid(f: PolarSymbol, geo: AnnulusGeometry) -> np.ndarray:
    """Evaluate the banded symbol on the (radial, angular) grid."""
    t = geo.angles()
    r, _ = geo.radial_nodes()
    vals = np.zeros((geo.m_radial, geo.m_circle), dtype=complex)
    for k in f.live_bands:
        vals += np.outer(f.bands[k].eval(r), np.exp(1j * k * t))
    return vals


def build_bergman_section_quadrature(
    f: PolarSymbol, window: tuple[int, int], geo: AnnulusGeometry
) -> np.ndarray:
    """Independent assembly of the section entries from the area pairing.

    Entry (m, n) pairs the symbol times ``t_n z^n`` with ``t_m z^m``: at
    each radial node the angular trapezoid sum of the symbol's grid samples
    at index ``m - n`` (one FFT per node and a gather), then the Gauss sum
    with weight ``r^(1 + n + m)``.  Only grid samples are read.
    """
    lo, hi = _clamp_window(window)
    r, w = geo.radial_nodes()
    ns = np.arange(lo, hi + 1)
    angular = _analyze(polar_symbol_grid(f, geo), np.subtract.outer(ns, ns))
    radial = w[:, None, None] * r[:, None, None] ** (1 + np.add.outer(ns, ns))
    t = np.array([bergman_norm_const(n, geo.R) for n in ns])
    return np.outer(t, t) * np.sum(radial * angular, axis=0)


# ---------------------------------------------------------------------------
# locating the first unobstructed column


def find_n0_bergman(
    gN: PolyProfile, N: int, R: float, n_range: tuple[int, int] = (-32, 32)
) -> int | str:
    """Smallest n beyond every real Mellin zero of the top-band profile.

    The top band weights column n with the profile's Mellin moment at
    ``2n + N + 2``; this scans that argument range for real zeros and
    returns one past the floor of the largest zero mapped back to n, or
    ``"unconstrained"`` when the scan finds none (monomial profiles always
    land here since their moments never vanish on the real line).
    """
    z_lo = 2 * n_range[0] + N + 2
    z_hi = 2 * n_range[1] + N + 2
    roots = mellin_zero_locate(gN, float(z_lo), float(z_hi), R)
    if not roots:
        return UNCONSTRAINED
    n_star = (max(roots) - N - 2.0) / 2.0
    return math.floor(n_star + 1e-9) + 1


# ---------------------------------------------------------------------------
# the zero-product probe


def zero_product_experiment_bergman(
    f: PolarSymbol,
    g: PolarSymbol,
    window: tuple[int, int],
    R: float,
    ladder_length: int = 8,
    zero_divisor_floor: float = 1e-6,
) -> ZeroProductReport:
    """Probe a banded pair for the zero-product mechanism.

    The protocol of :func:`annulab.hardy._probe` on the Bergman sections,
    with the ladder read in the domain of ``T_g``: each basis vector of
    degree n0+N+l is spanned by the images of the first l+1 ladder vectors
    under the second symbol together with all lower-degree basis vectors.
    A window clamped to the basis floor -1 truncates no image there.
    """
    lo, hi = _clamp_window(window)
    return _probe(
        f, g, lo, hi, R, ladder_length, zero_divisor_floor,
        build=build_bergman_toeplitz, first_rung=lo, through_f=False,
        n0_of=lambda N: find_n0_bergman(g.bands[N], N, R, n_range=(lo, hi)),
        edge_free=lo == -1,
    )
