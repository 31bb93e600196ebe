from pathlib import Path

import numpy as np
import pytest

from annulab.geometry import AnnulusGeometry, basis_weights
from annulab.mellin import monomial_moment
from annulab.symbols import PolarSymbol, PolyProfile


@pytest.fixture(scope="session")
def geo():
    return AnnulusGeometry()


@pytest.fixture(scope="session")
def small_geo():
    # big enough for bandwidth-10 symbols, cheap enough for per-test loops
    return AnnulusGeometry(m_circle=256)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # verdict lines recorded by the acceptance tests; emitted here so they
    # survive output capture in a plain `pytest -v` run
    lines = getattr(config, "_acceptance_lines", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


def read_decay_csv(path):
    """Inverse of ``report.write_decay_csv``: list of (size, [sigma blocks])
    in file order."""
    lines = Path(path).read_text(encoding="ascii").strip().split("\n")
    if lines[0] != "size,index,sigma":
        raise ValueError("not a decay table")
    out: dict[int, list[list[float]]] = {}
    order: list[int] = []
    for line in lines[1:]:
        s_str, i_str, sig_str = line.split(",")
        s, i, sig = int(s_str), int(i_str), float(sig_str)
        if s not in out:
            out[s] = []
            order.append(s)
        if i == 0:
            out[s].append([])
        out[s][-1].append(sig)
    return [(s, out[s]) for s in order]


def column_zero_recover(
    section: np.ndarray, lo: int, r: int, s: int, R: float
) -> dict[int, tuple[complex, complex]]:
    """Recover coefficient pairs of the symbol from two section columns.

    ``section`` is a square section of :func:`build_toeplitz_hardy` over the
    window ``[lo, lo + size - 1]``; a column outside it raises
    :class:`IndexError`.  For each offset ``n`` with both rows ``r + n``
    and ``s + n`` inside the window, entry ``(c + n, c)`` of column ``c`` is
    ``b fhat_C(n) + a fhat_C0(n)`` with the bounded weights
    ``b = B_(c+n) B_c`` and ``a = A_(c+n) A_c`` of
    :func:`build_toeplitz_hardy`, and ``a / b = R^(2c+n)``.  Each row is
    divided by its larger weight and each unknown by its larger
    coefficient, which leaves a 2x2 system with determinant
    ``1 - R^(2|s-r|)`` at every offset: it is nonsingular whenever
    ``r != s``, and no weight is inverted, so nothing overflows.  Columns
    that are identically zero recover the zero pair at every offset where
    both coefficients are determined.

    Accuracy: with ``r < s``, ``fhat_C0`` enters both rows at most
    ``R^(2r+n)`` times as strongly as ``fhat_C`` and is recovered only to
    about ``eps * R^-(2r+n)`` when that exponent is positive; ``fhat_C``
    is recovered only to about ``eps * R^(2s+n)`` when ``2s + n`` is
    negative.  A coefficient whose weight falls below ``eps`` leaves no
    digit in the section and comes back as ``nan``: at R = 0.1, columns
    -150 and -149 of a +-160 window give ``fhat_C0`` to rounding at every
    offset and ``fhat_C`` as ``nan`` at every offset below 283.  Prefer
    columns of modest index.
    """
    if r == s:
        raise ValueError("need two distinct columns")
    r, s = sorted((r, s))
    hi = lo + section.shape[0] - 1
    ns = np.arange(lo - r, hi - s + 1)
    rows = []
    for c in (r, s):
        if not lo <= c <= hi:
            raise IndexError(f"column {c} outside window [{lo}, {hi}]")
        Bm, Am = basis_weights(c + ns, R)
        Bc, Ac = basis_weights(c, R)
        vals = section[c + ns - lo, c - lo]
        rows.append(vals / np.maximum(Bm * Bc, Am * Ac))
    x1, x2 = 2 * r + ns, 2 * s + ns
    # the scaled system is [[R^e1, 1], [1, R^e2]] with e1 + e2 = 2 (s - r)
    e1 = np.maximum(-x1, 0) - np.maximum(-x2, 0)
    e2 = np.maximum(x2, 0) - np.maximum(x1, 0)
    det = 1.0 - R ** (2 * (s - r))
    yC = (rows[1] - R**e2 * rows[0]) / det
    y0 = (rows[0] - R**e1 * rows[1]) / det
    # undo each unknown's largest weight; below eps it left no digit
    eps = np.finfo(float).eps
    pair = [
        np.where(scale > eps, y / np.maximum(scale, eps), np.nan)
        for y, scale in ((yC, R ** np.maximum(-x2, 0)), (y0, R ** np.maximum(x1, 0)))
    ]
    return {int(n): (complex(c), complex(c0)) for n, c, c0 in zip(ns, *pair)}


def prescribed_zero_profile(degree: int, zeros, R: float) -> PolyProfile:
    """Radial profile of ``degree`` whose Mellin transform vanishes at
    ``2n + 2`` for each ``n`` of ``zeros``, so the radial Bergman Toeplitz
    operator with this profile annihilates each ``z^n``.

    The coefficients are the null vector of the row-scaled moment matrix
    ``monomial_moment(2n + 2 + m)``, ``n`` over ``zeros`` and ``m = 0 ..
    degree``, scaled to sup norm 1 on 4097 equispaced points of [R, 1].
    """
    z = 2 * np.asarray(zeros) + 2
    A = monomial_moment(np.add.outer(z, np.arange(degree + 1)), R)
    A = A / np.max(np.abs(A), axis=1)[:, None]
    c = np.linalg.svd(A)[2][-1]
    r = np.linspace(R, 1.0, 4097)
    c = c / np.max(np.abs(np.polynomial.polynomial.polyval(r, c)))
    return PolyProfile({m: complex(x) for m, x in enumerate(c)})


def adversarial_radial_pair(R: float) -> tuple[PolarSymbol, PolarSymbol]:
    """ROADMAP item 13's pair ``(f, g)`` of radial symbols: ``g`` has degree
    7 and annihilates ``z^-1 .. z^5``, ``f`` has degree 9 and annihilates
    ``z^6 .. z^14``.  ``T_f T_g`` is diagonal and vanishes on degrees -1 ..
    14, yet no such pair is a zero divisor on the whole Bergman space: a
    nonzero bounded analytic function in a half-plane cannot vanish at
    points ``2n + 2`` whose reciprocals diverge (the Blaschke condition)."""
    psi = prescribed_zero_profile(7, range(-1, 6), R)
    phi = prescribed_zero_profile(9, range(6, 15), R)
    return PolarSymbol({0: phi}), PolarSymbol({0: psi})
