"""Toeplitz sections on the annulus Bergman space.

Every monomial z^n, n in Z, lies in the Bergman space of the annulus,
and a section covers its window's degrees as given.  A symbol that is a
finite sum of quasi-homogeneous bands (angular frequency times a radial
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
from .hardy import (UNCONSTRAINED, ZeroProductReport, _band_entries, _band_zeros, _check_window,
                    _probe, _put)
from .mellin import check_moment_range, mellin_transform, mellin_zero_locate, monomial_moment
from .symbols import PolarSymbol, PolyProfile, _analyze


# quasi_homogeneous_apply and apply_polar_to_monomial: no harness reads them;
# the benchmark's per-layer metric list still names both (ROADMAP item 9)


def quasi_homogeneous_apply(p: int, f1: PolyProfile, n: int, R: float) -> tuple[complex, int]:
    """Image coefficient of the n-th monomial under one band.

    A band with angular frequency ``p`` and radial profile ``f1`` sends
    ``z**n`` to ``coeff * z**(p+n)`` where the coefficient is the squared
    reciprocal monomial norm at ``p+n`` times the Mellin moment of the
    profile at ``p + 2n + 2``.
    """
    t = bergman_norm_const(p + n, R)
    return complex(t * t * mellin_transform(f1, p + 2 * n + 2, R)), p + n


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
    """Section of the symbol's action over the window's monomial degrees,
    in the band layout of :func:`annulab.hardy._band_sections` at
    ``f.bandwidth()``.

    Entries are taken in the orthonormal basis (unit monomial multiples),
    so sections compose as matrices: band ``k`` sends ``z^n`` to ``t_m^2
    M_k(k + 2n + 2) z^m``, ``m = n + k``, and entry (m, n) is that
    coefficient times ``t_n / t_m``, i.e. ``t_m t_n sum_d c_d M(s)`` over the
    band's profile ``sum_d c_d r^d``, with ``s = m + n + 2 + d``, ``t`` the
    norm constants of :func:`bergman_norm_const` and ``M`` =
    :func:`monomial_moment`.  A radial symbol gives a diagonal section, a
    single positive band a weighted shift, and a sequence of symbols their
    sections stacked along a leading axis, at their largest bandwidth.

    Bounded form: with ``a = n + 1`` and ``b = m + 1``, ``t_n = R^(e_n)
    tau_n`` for ``e_n = max(0, -a)`` and ``tau_n = bergman_norm_const(|a| -
    1)`` (the log limit at ``a = 0`` included), and ``M(s) = R^min(0, s)
    M(|s|)``.  So the entry is ``tau_m tau_n sum_d c_d R^E M(|s|)`` with
    ``E = e_m + e_n + min(0, s)`` and ``s = a + b + d``:

    - ``m, n >= -1``: ``E = min(0, s)``, which is 0 for ``d >= 0``;
    - only ``m < -1``: ``E = -b + min(0, s) = min(-b, a + d)``, and
      likewise ``min(-a, b + d)`` when only ``n < -1``;
    - ``m, n < -1``: ``E = -a - b + min(0, s) = min(-a - b, d)``.

    So ``E >= min(0, d)``: for degrees ``d >= 0`` every ``R^E`` lies in
    [0, 1], ``M(|s|)`` in (0, -log R] and ``tau`` is finite, so no window
    leaves the float range.  A negative degree, which only an API caller
    can pass, can make ``E < 0``: :func:`check_moment_range` refuses the
    smallest ``E`` when ``R^E`` would overflow.  The cases also bound ``E``
    above, by ``max(0, d)`` or by ``|b|`` (``|a|``) where the window holds
    degree -1 and ``|b| <= hi - lo``, and every ``s`` lies in ``2 lo + 2 +
    [min(0, d), 2 (hi - lo) + max(0, d)]``: both tables grow with the
    window's width, not its magnitude.

    Operation order: the entries are those of
    :func:`annulab.hardy._band_entries` over the live bands of every symbol
    in turn, so ``s``, ``E`` and ``tau`` are taken at the window's images
    only; ``R^E`` from one ``np.float_power`` call and ``M(|s|)`` from one
    :func:`monomial_moment` call, each over the range of its integers at
    those entries and gathered over an ``[entry, degree]`` array; each
    entry's terms ``c_d (R^E M(|s|))`` summed over its band's table in the
    table's own order, all entries at once; each entry ``(tau_m tau_n)``
    times that sum.  So each section matches the per-entry loop in that
    order bit for bit whatever the order of bands and degrees.
    """
    single = isinstance(f, PolarSymbol)
    fs = [f] if single else list(f)
    lo, hi = _check_window(window)
    # one row per live band of each symbol: the symbol's index and the band
    live = [(i, k) for i, sym in enumerate(fs) for k in sym.live_bands]
    owner = np.array([i for i, _ in live], dtype=int)
    tables = [fs[i].bands[k].coeffs for i, k in live]
    width = max(map(len, tables), default=0)
    pad = [[0] * (width - len(d)) for d in tables]
    degree = np.array([[*d, *z] for d, z in zip(tables, pad)], dtype=int)
    coeffs = np.array([[*d.values(), *z] for d, z in zip(tables, pad)], dtype=complex)
    # band k sends column n to row n + k: one entry per image inside the window
    n = np.arange(lo, hi + 1)
    band, row, col = _band_entries(np.array([k for _, k in live], dtype=int), len(n))
    e = np.maximum(0, -(n + 1))
    s = (n[row] + n[col] + 2)[:, None] + degree[band]
    E = (e[row] + e[col])[:, None] + np.minimum(0, s)
    low = E.min(initial=0)
    check_moment_range(-low, R)
    # R^E and M(|s|), each taken once per integer of its range and gathered
    a = np.abs(s)
    top = a.max(initial=0)
    a0 = a.min(initial=top)
    term = (np.float_power(R, np.arange(low, E.max(initial=0) + 1))[E - low]
            * monomial_moment(np.arange(a0, top + 1), R)[a - a0])
    # every band adds all width columns, and a padded add keeps the bits: its
    # coefficient is 0 and its term R^E M(|s|) finite (degree 0 gives E >= 0),
    # so it adds a zero of either sign, and x + 0 is x for every x but -0,
    # which a sum that starts at +0 never holds
    profile = np.zeros(len(band), dtype=complex)
    for j in range(width):
        profile += coeffs[band, j] * term[:, j]
    tau = bergman_norm_const(np.abs(n + 1) - 1, R)
    ent = _band_zeros((len(fs),), max((sym.bandwidth() for sym in fs), default=0), len(n))
    _put(ent, row, col, (tau[row] * tau[col]) * profile, owner[band])
    for sec, sym in zip(ent, fs):
        if not sym.is_zero() and not sec.any():
            raise WindowTooSmallError(
                f"window [{lo},{hi}] holds no image of any band of the symbol"
            )
    return ent[0] if single else ent


# ---------------------------------------------------------------------------
# quadrature oracle on the two-dimensional grid


def polar_symbol_grid(f: PolarSymbol, geo: AnnulusGeometry) -> np.ndarray:
    """Evaluate the banded symbol on the (radial, angular) grid.

    A profile term ``r^d`` on ``[R, 1]`` reaches ``R^-|d|``: like a moment
    at ``|s| = |d|``, :func:`check_moment_range` refuses a degree past the
    float range, before any sample is taken."""
    reach = max((abs(d) for k in f.live_bands for d in f.bands[k].coeffs), default=0)
    check_moment_range(reach, geo.R)
    r, _ = geo.radial_nodes()
    vals = np.zeros((len(r), geo.m_circle), dtype=complex)
    for k, e in zip(f.live_bands, geo.phases(np.array(f.live_bands, dtype=int))):
        vals += np.outer(f.bands[k].eval(r), e)
    return vals


def build_bergman_section_quadrature(
    f: PolarSymbol, window: tuple[int, int], geo: AnnulusGeometry
) -> np.ndarray:
    """Independent assembly of the section entries from the area pairing.

    Entry (m, n) pairs the symbol times ``t_n z^n`` with ``t_m z^m``: at
    each radial node the angular trapezoid sum of the symbol's grid samples
    at index ``m - n`` (one FFT per node and a gather), then the Gauss sum
    with weight ``r^(1 + m + n) t_m t_n``, taken as ``tau_m rho_m tau_n rho_n
    / r`` with ``tau`` of :func:`build_bergman_toeplitz` and ``rho_n = (R /
    r)^|n+1|`` below degree -1, ``r^(n+1)`` otherwise, both in [0, 1]: no
    window leaves the float range.  Only grid samples are read.

    Resolution: with ``a = n + 1``, ``b = m + 1`` and ``dr = r ds``, a
    profile term ``r^d`` makes the entry's radial integrand ``r^(a + b + d)
    ds``, the exponential ``e^(lambda s)`` in ``s = log r`` at ``|lambda| <=
    |a| + |b| + |d|`` (below degree -1 the factor ``(R / r)^|a|`` is ``r^a``
    times the constant ``R^|a|``).  :func:`check_moment_range` keeps each
    part within ``log(float max) / log(1/R)``: here the window's reach ``2
    max |a|``, before any sample is read, and in :func:`polar_symbol_grid`
    the profile's ``max |d|``.  So ``|lambda| log(1/R) <= 2 log(float max)``,
    where the nodes' relative error bound is 4.2e-17
    (:meth:`AnnulusGeometry.radial_nodes`).
    """
    lo, hi = _check_window(window)
    check_moment_range(2 * max(abs(lo + 1), abs(hi + 1)), geo.R)
    r, w = geo.radial_nodes()
    ns = np.arange(lo, hi + 1)
    angular = _analyze(polar_symbol_grid(f, geo), np.subtract.outer(ns, ns))
    a = ns + 1
    rho = np.float_power(np.where(a < 0, geo.R / r[:, None], r[:, None]), np.abs(a))
    u = bergman_norm_const(np.abs(a) - 1, geo.R) * rho
    radial = (w / r)[:, None, None] * u[:, :, None] * u[:, None, :]
    return np.sum(radial * angular, axis=0)


# ---------------------------------------------------------------------------
# locating the first unobstructed column


def find_n0_bergman(gN: PolyProfile, N: int, R: float, n_range: tuple[int, int]) -> int | str:
    """Smallest n beyond every real Mellin zero of the top-band profile.

    The top band weights column n with the profile's Mellin moment at
    ``2n + N + 2``; this scans that argument over the degrees ``n_range``
    (the probe's window) for real zeros and returns one past the floor of
    the largest zero mapped back to n, or ``"unconstrained"`` when there is
    none.  A profile whose real or imaginary coefficient parts share one
    strict sign (a monomial top band among them) lands there by
    :func:`mellin_zero_locate`'s sign certificate, with no scan.  Its
    plain moments read ``R^(z + d)``, so :func:`check_moment_range`
    refuses, ahead of the certificate, a window whose lowest exponent
    ``2 lo + N + 2 + d`` (``d`` the lowest profile degree, or 0) would
    overflow.
    """
    z_lo, z_hi = (2 * n + N + 2 for n in n_range)
    check_moment_range(max(0, -(z_lo + min([0, *gN.coeffs]))), R)
    roots = mellin_zero_locate(gN, float(z_lo), float(z_hi), R)
    if not roots:
        return UNCONSTRAINED
    n_star = (max(roots) - N - 2.0) / 2.0
    return math.floor(n_star + 1e-9) + 1


# ---------------------------------------------------------------------------
# the zero-product probe


def zero_product_experiment_bergman(
    pairs: Sequence[tuple[PolarSymbol, PolarSymbol]], window: tuple[int, int], R: float
) -> list[ZeroProductReport]:
    """Probe each banded pair ``(f, g)`` for the zero-product mechanism;
    one report per pair, in order.

    The protocol of :func:`annulab.hardy._probe` on the Bergman sections,
    with the ladder read in the domain of ``T_g``: each basis vector of
    degree n0+N+l is spanned by the images of the first l+1 ladder vectors
    under the second symbol together with all lower-degree basis vectors.
    """
    # looked up at each call, as in ``hardy.zero_product_experiment_hardy``
    return _probe(pairs, window, lambda fs, w: build_bergman_toeplitz(fs, w, R),
                  lambda g, N, w: find_n0_bergman(g.bands[N], N, R, w), through_f=False)
