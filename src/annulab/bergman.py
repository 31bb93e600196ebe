"""Toeplitz sections on the annulus Bergman space.

The monomials z^n, n >= -1, form an orthogonal basis; a symbol that is a
finite sum of quasi-homogeneous bands (angular frequency times a radial
profile) acts band by band, sending each monomial to weighted monomials
whose weights are radial Mellin moments.  Everything here is exact in
coefficient space except the quadrature cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import WindowTooSmallError
from .geometry import AnnulusGeometry, bergman_norm_const
from .hardy import (
    CONSISTENT,
    UNCONSTRAINED,
    VIOLATION,
    TruncatedOperator,
    _coeff_vector,
    _column_norms,
    _span_residual,
    _zero_factor_norms,
)
from .mellin import mellin_transform, mellin_zero_locate
from .symbols import PolarSymbol, PolyProfile, _analyze


@dataclass(frozen=True)
class BergmanOperatorSection(TruncatedOperator):
    """Finite section together with the set of band offsets it carries."""

    band_offsets: frozenset = frozenset()


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
        raise ValueError("window must reach index -1 or above")
    return max(lo, -1), hi


def apply_polar_to_monomial(f: PolarSymbol, n: int, R: float) -> dict[int, complex]:
    """Exact image of ``z**n`` as a coefficient table over monomial degrees."""
    out: dict[int, complex] = {}
    for k in f.live_bands():
        coeff, deg = quasi_homogeneous_apply(k, f.bands[k], n, R)
        if coeff != 0.0:
            out[deg] = out.get(deg, 0.0 + 0.0j) + coeff
    return out


def build_bergman_toeplitz(
    f: PolarSymbol, window: tuple[int, int], R: float
) -> BergmanOperatorSection:
    """Section of the symbol's action over the window's monomial degrees.

    Entries are taken in the orthonormal basis (unit monomial multiples),
    so sections compose as matrices: the entry at (row m, column n) is the
    monomial-action coefficient rescaled by ``t_n / t_m``.  The lower edge
    is clamped to -1, the smallest degree in the basis.  A radial symbol
    (single band at offset zero) gives a diagonal section; a single
    positive band gives a weighted shift.
    """
    lo, hi = _clamp_window(window)
    size = hi - lo + 1
    t = np.array([bergman_norm_const(n, R) for n in range(lo, hi + 1)])
    ent = np.zeros((size, size), dtype=complex)
    placed = False
    for k in f.live_bands():
        # band k fills diagonal k (column b meets row b + k) with the
        # operations of quasi_homogeneous_apply and the t_n / t_m rescaling
        # in their order, so the entries match them bit for bit
        cols = np.arange(max(0, -k), min(size, size - k))
        rows = cols + k
        coeff = (t[rows] * t[rows]) * mellin_transform(
            f.bands[k], k + 2 * (lo + cols) + 2, R
        )
        placed = placed or bool(np.any(coeff != 0.0))
        val = coeff * t[cols]
        # numpy divides complex by real through a reciprocal; divide each part
        val.real /= t[rows]
        val.imag /= t[rows]
        ent[rows, cols] += val
    if not placed and not f.is_zero():
        raise WindowTooSmallError(
            f"window [{lo},{hi}] holds no image of any band of the symbol"
        )
    return BergmanOperatorSection(
        ent, (lo, hi), (lo, hi), "bergman", "bergman", frozenset(f.live_bands())
    )


# ---------------------------------------------------------------------------
# quadrature oracle on the two-dimensional grid


def polar_symbol_grid(f: PolarSymbol, geo: AnnulusGeometry) -> np.ndarray:
    """Evaluate the banded symbol on the (radial, angular) grid."""
    t = geo.angles()
    r, _ = geo.radial_nodes()
    vals = np.zeros((geo.m_radial, geo.m_circle), dtype=complex)
    for k in f.live_bands():
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


@dataclass
class BergmanZeroProductReport:
    """Ladder and product-section diagnostics for one pair."""

    n0: int | str
    n0_effective: int
    n0_negative: bool
    top_band_f: int
    top_band_g: int
    ladder_residuals: list[float] = field(default_factory=list)
    product_column_norms: list[float] = field(default_factory=list)
    min_product_column_norm: float = float("nan")
    verdict: str = CONSISTENT


def zero_product_experiment_bergman(
    f: PolarSymbol,
    g: PolarSymbol,
    window: tuple[int, int],
    R: float,
    ladder_length: int = 8,
    zero_divisor_floor: float = 1e-6,
) -> BergmanZeroProductReport:
    """Probe a banded pair for the zero-product mechanism.

    The ladder checks that each monomial of degree n0+N+l is spanned by the
    images of the first l+1 ladder monomials under the second symbol
    together with all lower-degree monomials, and the product section
    supplies interior column norms.  Verdict semantics match the two-circle
    harness: a violation needs every interior product column below the
    floor while the ladder stays tight.
    """
    lo, hi = _clamp_window(window)
    norms = _zero_factor_norms(build_bergman_toeplitz, f, g, (lo, hi), R)
    if norms is not None:
        return BergmanZeroProductReport(
            n0=UNCONSTRAINED,
            n0_effective=lo,
            n0_negative=False,
            top_band_f=None if f.is_zero() else f.top_band(),
            top_band_g=None if g.is_zero() else g.top_band(),
            product_column_norms=norms,
            min_product_column_norm=min(norms),
        )
    N = g.top_band()
    L = int(ladder_length)
    n0 = find_n0_bergman(g.bands[N], N, R, n_range=(lo, hi))
    if isinstance(n0, str):
        n0_eff = lo
        negative = False
    else:
        n0_eff = max(n0, lo)
        negative = n0 < 0
    if n0_eff + N + L > hi:
        raise WindowTooSmallError(
            f"ladder top {n0_eff + N + L} exceeds window top {hi}"
        )
    report = BergmanZeroProductReport(
        n0=n0,
        n0_effective=n0_eff,
        n0_negative=negative,
        top_band_f=f.top_band(),
        top_band_g=N,
    )

    win = (lo, hi)
    image_cols = [
        _coeff_vector(apply_polar_to_monomial(g, n0_eff + lp, R), win) for lp in range(L + 1)
    ]
    base_cols = [_coeff_vector({m: 1.0 + 0.0j}, win) for m in range(lo, n0_eff + N)]
    for l in range(L + 1):
        target = _coeff_vector({n0_eff + N + l: 1.0 + 0.0j}, win)
        report.ladder_residuals.append(
            _span_residual(target, base_cols + image_cols[: l + 1])
        )

    prod = (
        build_bergman_toeplitz(f, (lo, hi), R).entries
        @ build_bergman_toeplitz(g, (lo, hi), R).entries
    )
    margin = f.bandwidth() + g.bandwidth()
    size = hi - lo + 1
    bottom = 0 if lo == -1 else margin
    if bottom >= size - margin:
        raise WindowTooSmallError(
            f"window [{lo},{hi}] has no interior columns at margin {margin}"
        )
    norms = _column_norms(prod, range(bottom, size - margin))
    report.product_column_norms = norms
    report.min_product_column_norm = min(norms)

    if max(norms) < zero_divisor_floor:
        report.verdict = VIOLATION
    return report
