"""Toeplitz sections on the annulus Bergman space.

Every monomial z^n, n in Z, lies in the Bergman space of the annulus.
The sections here compress to the span of z^n, n >= -1, a proper
subspace (ROADMAP item 1 lifts that clamp).  A symbol that is a finite
sum of quasi-homogeneous bands (angular frequency times a radial
profile) acts band by band, sending each monomial to weighted monomials
whose weights are radial Mellin moments.  Sections are assembled from
these moments in the orthonormal basis; the quadrature cross-checks
read only grid samples.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

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
    profile at ``p + 2n + 2``.  Output indices below -1 lie outside the
    span of the sections (degrees >= -1) and return a zero coefficient.
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


def build_bergman_toeplitz(
    f: PolarSymbol | Sequence[PolarSymbol], window: tuple[int, int], R: float
) -> np.ndarray:
    """Section of the symbol's action over the window's monomial degrees.

    Entries are taken in the orthonormal basis (unit monomial multiples),
    so sections compose as matrices: the entry at (row m, column n) is the
    monomial-action coefficient rescaled by ``t_n / t_m``.  Band ``k``
    sends ``z^n`` to ``c z^(n+k)`` with ``c = t_(n+k)^2`` times the Mellin
    moment of its profile at ``k + 2n + 2``, ``t`` the reciprocal monomial
    norms of :func:`bergman_norm_const`.  The lower edge is clamped to
    -1, so the section compresses to the proper subspace of degrees >= -1,
    with side ``hi - max(lo, -1) + 1`` over ``[lo, hi]``.  A radial symbol
    (single band at offset zero) gives a diagonal section; a single
    positive band gives a weighted shift.  A sequence of symbols gives
    their sections stacked along a leading axis.

    Operation order: every moment the sections read comes from one
    :func:`monomial_moment` call over a ``[band, degree, column]`` array of
    arguments, the bands of every symbol in turn; each band's profile is
    summed over its table in the table's own order, all bands at once, and
    each entry is formed as in the per-entry loop
    ``t_m^2 M_k(k + 2n + 2) t_n / t_m``, so each section matches that loop
    bit for bit whatever the order of the bands and degrees.
    """
    single = isinstance(f, PolarSymbol)
    fs = [f] if single else list(f)
    lo, hi = _clamp_window(window)
    t = bergman_norm_const(np.arange(lo, hi + 1), R)
    # one row per live band of each symbol: the symbol's index and the band
    live = [(i, k) for i, sym in enumerate(fs) for k in sym.live_bands]
    owner = np.array([i for i, _ in live], dtype=int)
    band, n = np.array([k for _, k in live], dtype=int)[:, None], np.arange(lo, hi + 1)
    tables = [fs[i].bands[k].coeffs for i, k in live]
    width = max(map(len, tables), default=0)
    pad = [[0] * (width - len(d)) for d in tables]
    degree = np.array([[*d, *z] for d, z in zip(tables, pad)], dtype=int)
    degree = degree.reshape(len(tables), width)  # also when there is no band
    coeffs = np.array([[*d.values(), *z] for d, z in zip(tables, pad)], dtype=complex)
    # band k sends column n to row n + k; one sent outside reads argument 0
    inside = (n + band >= lo) & (n + band <= hi)
    arg = (band + 2 * n + 2)[:, None] + degree[..., None]
    moments = monomial_moment(np.where(inside[:, None], arg, 0), R)
    profile = np.zeros(inside.shape, dtype=complex)
    lengths = np.array([len(d) for d in tables], dtype=int)
    for j in range(width):
        r = np.flatnonzero(lengths > j)  # the bands with a j-th coefficient
        profile[r] += coeffs[r, j, None] * moments[r, j]
    rows = np.where(inside, n - lo + band, 0)
    coeff = (t[rows] * t[rows]) * profile
    val = coeff * t
    # numpy divides complex by real through a reciprocal; divide each part
    val.real /= t[rows]
    val.imag /= t[rows]
    b, col = np.nonzero(inside)
    ent = np.zeros((len(fs), len(n), len(n)), dtype=complex)
    ent[owner[b], rows[b, col], col] += val[b, col]
    hit = set(owner[b][coeff[b, col] != 0.0].tolist())
    for i, sym in enumerate(fs):
        if i not in hit and not sym.is_zero():
            raise WindowTooSmallError(
                f"window [{lo},{hi}] holds no image of any band of the symbol"
            )
    return ent[0] if single else ent


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
    t = bergman_norm_const(ns, geo.R)
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
    pairs: Sequence[tuple[PolarSymbol, PolarSymbol]],
    window: tuple[int, int],
    R: float,
) -> list[ZeroProductReport]:
    """Probe each banded pair ``(f, g)`` for the zero-product mechanism;
    one report per pair, in order.

    The protocol of :func:`annulab.hardy._probe` on the Bergman sections,
    with the ladder read in the domain of ``T_g``: each basis vector of
    degree n0+N+l is spanned by the images of the first l+1 ladder vectors
    under the second symbol together with all lower-degree basis vectors.
    A negative top band ``N`` starts the ladder ``-N`` above the window
    floor, so that base never starts below the window.  Sections compress
    to degrees >= -1: a window clamped there reads no lower-edge margin,
    though ``T_g`` sends images below it (ROADMAP item 1).
    """
    lo, hi = _clamp_window(window)
    return _probe(
        pairs, lo, hi, R, build=build_bergman_toeplitz,
        first_rung=lambda g: lo + max(0, -g.top_degree()), through_f=False,
        n0_of=lambda g, N: find_n0_bergman(g.bands[N], N, R, n_range=(lo, hi)),
        edge_free=lo == -1,
    )
