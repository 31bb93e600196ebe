"""Finite sections of multiplication-compress operators on the annulus.

Sections are assembled from the coefficient pairs of a boundary symbol.
Rows and columns refer to the orthonormal families of
:mod:`annulab.geometry`: the power family spans the holomorphic subspace,
the complement family spans its orthogonal complement in boundary L2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AliasingError, WindowTooSmallError
from .geometry import (
    AnnulusGeometry,
    basis_weights,
    complement_basis_eval,
    hardy_basis_eval,
)
from .symbols import (
    ExactSymbol,
    conjugate_symbol,
    fourier_pair,
    multiply_symbols,
    sample_symbol,
)

CONSISTENT = "ConsistentWithTheorem"
VIOLATION = "Violation"
INCONCLUSIVE = "Inconclusive"
UNCONSTRAINED = "unconstrained"


def _check_window(window: tuple[int, int]) -> tuple[int, int]:
    lo, hi = int(window[0]), int(window[1])
    if hi < lo:
        raise ValueError(f"empty window [{lo}, {hi}]")
    return lo, hi


def _gather(values: np.ndarray, hankel: bool = False) -> np.ndarray:
    """Square Toeplitz or Hankel layout of ``2 size - 1`` coefficients.

    The Toeplitz layout is ``M[a, b] = values[size - 1 - a + b]``, so with
    ``values[i]`` the coefficient of offset ``size - 1 - i`` the entry
    carries offset ``a - b``; the Hankel layout is ``M[a, b] = values[a + b]``.
    The layout is a strided copy of a sliding window, so no index array is
    formed.
    """
    size, step = (len(values) + 1) // 2, values.strides[0]
    win = np.lib.stride_tricks.as_strided(values, (size, size), (step, step))
    return (win if hankel else win[::-1]).copy()


def _bounded_pairs(f: ExactSymbol, window: tuple[int, int], R: float):
    """Weights ``B`` and ``A`` of :func:`basis_weights` over the window, and
    the :func:`_gather` layouts of both circles' coefficients at the offsets
    ``hi - lo`` down to ``lo - hi``: fresh arrays, weighted and summed in place."""
    lo, hi = _check_window(window)
    B, A = basis_weights(np.arange(lo, hi + 1), R)
    TC, TC0 = map(_gather, fourier_pair(f, np.arange(hi - lo, lo - hi - 1, -1)))
    return B, A, TC, TC0


def build_toeplitz_hardy(
    f: ExactSymbol, window: tuple[int, int], R: float
) -> np.ndarray:
    """Section of the compression of multiplication by ``f`` to the power family.

    The entry is ``(fhat_C(j-k) + R^(j+k) fhat_C0(j-k)) / (norm_j norm_k)``
    with ``norm_j = sqrt(1 + R^(2j))``.  It is formed as
    ``T = B Toep(fhat_C) B + A Toep(fhat_C0) A`` with the diagonal weights
    ``B = 1/norm_j`` and ``A = R^j/norm_j`` of :func:`basis_weights`,
    each in [0, 1].  Raising ``R^(j+k)`` and ``norm_j``
    directly overflows once ``R^|j|`` leaves the float range (R = 0.1 at
    window +-160), and the entries turn into ``nan`` or collapse to zero.
    """
    B, A, T, TC0 = _bounded_pairs(f, window, R)
    T *= np.outer(B, B)
    TC0 *= np.outer(A, A)
    return np.add(T, TC0, out=T)


def build_hankel_annulus(
    f: ExactSymbol, window: tuple[int, int], R: float
) -> np.ndarray:
    """Section of the complement-side compression of multiplication by ``f``.

    Row ``j`` lives in the complement family, column ``k`` in the power
    family; the entry is
    ``(R^j fhat_C(j-k) - R^k fhat_C0(j-k)) / (norm_j norm_k)``, formed as
    ``H = A Toep(fhat_C) B - B Toep(fhat_C0) A`` with the bounded weights
    of :func:`build_toeplitz_hardy`, which keep it finite for the same
    reason.  Symbols that are traces of a single Laurent polynomial give
    the zero matrix.
    """
    B, A, H, TC0 = _bounded_pairs(f, window, R)
    H *= np.outer(A, B)
    TC0 *= np.outer(B, A)
    return np.subtract(H, TC0, out=H)


# ---------------------------------------------------------------------------
# quadrature-assembled sections (independent oracle route)


def build_section_quadrature(
    f: ExactSymbol,
    window: tuple[int, int],
    geo: AnnulusGeometry,
    row_family: str = "hardy",
) -> np.ndarray:
    """Assemble a section entirely from boundary-grid inner products.

    Row family "hardy" reproduces :func:`build_toeplitz_hardy`; row family
    "complement" reproduces :func:`build_hankel_annulus`.  Used as the
    independent check of the closed-form entries.  Refused with
    :class:`AliasingError` when the frequencies an entry sums, up to
    ``(hi - lo)`` plus the symbol's reach, would fold on the grid.
    """
    lo, hi = _check_window(window)
    reach = f.bandwidth()
    if (hi - lo) + reach >= geo.m_circle:
        raise AliasingError(
            f"window [{lo}, {hi}] with band reach {reach} is not resolved by "
            f"m_circle={geo.m_circle}"
        )
    fv = sample_symbol(f, geo)
    ns, t = np.arange(lo, hi + 1), geo.angles()

    def circle(comp: str, values: np.ndarray) -> np.ndarray:
        cols = hardy_basis_eval(ns, comp, t, geo.R)
        rows = cols if row_family == "hardy" else complement_basis_eval(ns, comp, t, geo.R)
        return (rows.conj() * values) @ cols.T / geo.m_circle

    return circle("C", fv.on_C) + circle("C0", fv.on_C0)


# ---------------------------------------------------------------------------
# exact coefficient-space action: no harness reads it; the benchmark's
# per-layer metric list still names both functions (ROADMAP item 5)


def apply_multiplier_coeffs(f: ExactSymbol, n: int, R: float) -> dict[int, complex]:
    """Coefficients of the compressed product of ``f`` with the monomial ``z^n``.

    Returns the finitely supported map ``n + k -> coefficient`` given by
    ``(fhat_C(k) + R^(2n+k) fhat_C0(k)) / (1 + R^(2(n+k)))``.  This is the
    exact action in monomial coordinates; no window is involved.  When
    ``n + k < 0`` both parts are multiplied by ``R^(-2(n+k)) <= 1``, so the
    quotient is formed without raising ``R^(2(n+k))`` past the float range.
    """
    out: dict[int, complex] = {}
    for k in f.support:
        fC, fC0 = f.pair(k)
        if n + k >= 0:
            c = (fC + R ** (2 * n + k) * fC0) / (1.0 + R ** (2 * (n + k)))
        else:
            w = R ** (-2 * (n + k))
            c = (w * fC + R ** (-k) * fC0) / (w + 1.0)
        if c != 0.0:
            out[n + k] = out.get(n + k, 0.0) + c
    return out


def apply_multiplier_to_coeffs(
    f: ExactSymbol, vec: dict[int, complex], R: float
) -> dict[int, complex]:
    out: dict[int, complex] = {}
    for n, c in vec.items():
        if c == 0.0:
            continue
        for m, a in apply_multiplier_coeffs(f, n, R).items():
            out[m] = out.get(m, 0.0) + c * a
    return out


# ---------------------------------------------------------------------------
# recovery from two columns


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


# ---------------------------------------------------------------------------
# top-coefficient threshold for the band-limited falsification harness


def find_n0_hardy(g: ExactSymbol, N: int, R: float):
    """Smallest index from which the top-offset combination never vanishes.

    The combination is ``ghat_C(N) + R^(2n+N) ghat_C0(N)``; as a function
    of ``n`` it vanishes for at most one real ``n*``.  Returns
    ``floor(n*) + 1`` when that real solution exists and the string
    ``"unconstrained"`` otherwise (callers substitute their window's lower
    bound).  Raises ``ValueError`` if both top coefficients vanish.
    """
    gC, gC0 = g.pair(N)
    if gC == 0.0 and gC0 == 0.0:
        raise ValueError(f"degree {N} is not the top degree of the symbol")
    if gC0 == 0.0:
        return UNCONSTRAINED
    x = -gC / gC0
    if abs(x.imag) > 1e-12 * abs(x) or x.real <= 0.0:
        return UNCONSTRAINED
    n_star = (np.log(x.real) / np.log(R) - N) / 2.0
    return int(np.floor(n_star)) + 1


# ---------------------------------------------------------------------------
# semicommutator identity on the annulus


def semicommutator_residual_annulus(
    phi: ExactSymbol, psi: ExactSymbol, window: tuple[int, int], R: float
) -> tuple[float, int]:
    """Interior max deviation of the product identity with Hankel correction.

    Checks, entry by entry inside the safe margin, that the section of the
    product symbol equals the product of sections plus the adjoint-Hankel
    times Hankel correction.  Returns ``(residual, margin)``.
    """
    lo, hi = _check_window(window)
    margin = phi.bandwidth() + psi.bandwidth()
    if hi - lo + 1 <= 2 * margin:
        raise WindowTooSmallError(
            f"window [{lo}, {hi}] cannot hold interior margin {margin}; "
            f"need more than {2 * margin + 1} columns"
        )
    t_prod = build_toeplitz_hardy(multiply_symbols(phi, psi), window, R)
    t_phi = build_toeplitz_hardy(phi, window, R)
    t_psi = build_toeplitz_hardy(psi, window, R)
    h_phibar = build_hankel_annulus(conjugate_symbol(phi), window, R)
    h_psi = build_hankel_annulus(psi, window, R)
    prod = t_phi @ t_psi
    delta = t_prod - (prod + h_phibar.conj().T @ h_psi)
    sl = slice(margin, hi - lo + 1 - margin)
    return float(np.max(np.abs(delta[sl, sl]))), margin


# ---------------------------------------------------------------------------
# zero-product falsification harness


@dataclass(frozen=True)
class ZeroProductReport:
    """Outcome of one zero-product probe on a pair of symbols, Hardy or
    Bergman.

    ``top_degree`` is the top degree of ``g`` (its top band on the
    Bergman side), ``None`` for a zero ``g``.  ``ladder_residuals`` are the
    span-inclusion residuals of :func:`_ladder`, whose smallest relative
    pivot is ``min_relative_pivot`` and whose band leak is
    ``ladder_band_leak``; a zero factor has no ladder.  The verdict is
    ``Violation`` only when every interior product column norm falls below
    the probe's floor, and ``Inconclusive`` when one of them is not finite.
    """

    n0: int | str
    n0_effective: int
    top_degree: int | None
    product_column_norms: list[float]
    ladder_residuals: list[float] = field(default_factory=list)
    min_relative_pivot: float = float("nan")
    ladder_band_leak: float = float("nan")
    verdict: str = CONSISTENT

    @property
    def min_product_column_norm(self) -> float:
        return float(np.min(self.product_column_norms))


def _ladder(
    S: np.ndarray, P: np.ndarray, G: np.ndarray, first: int, N: int, L: int
) -> tuple[list[float], float, float]:
    """Residuals, smallest relative pivot and band leak of the proof
    ladder, read from the columns of square sections over one window.

    ``first`` is the column position of the ladder's first rung and ``N``
    the top degree of ``G``.  Rung ``l`` measures how far the target
    ``t = S[:, first+N+l]`` lies from the span of the nonzero columns among
    the base ``S[:, :first+N]`` and the rung columns ``P[:, first:first+l+1]``.
    Each rung's set is the previous one's plus one column, so one
    Householder QR ``A = Q Rf`` of the last rung's normalized nonzero
    columns serves every rung: rung ``l`` reads the leading ``k`` columns,
    ``k`` the nonzero ones among its set.  The misfit is the part of ``t``
    outside ``range(Q[:, :k])``, formed without the certificate
    ``coef = Rf[:k, :k]^-1 (Q^H t)[:k]``: a ladder's columns grow
    ill-conditioned (1e15 at rung 8 of a Bergman ladder), where a
    least-squares misfit loses a true inclusion and the projection keeps
    it to rounding.  The misfit is scaled by the size of the representation,
    ``norm(t) + norm(A[:, :k]) * norm(coef)``, so a value near machine
    epsilon certifies the inclusion for data this size even when the
    certificate needs large coefficients; a target far outside the span
    stays O(1).  A zero target reads 0, one with nothing to span it 1.

    The pivot of rung ``l`` is ``|G[c+N, c]| / norm(G[:, c])`` at its
    column ``c = first + l``: the top-degree entry of the rung's image
    under ``G``, which the harness's ``n0`` keeps away from zero, over the
    image's norm.  The band leak is the largest ``|G[c+N+1:, c]|`` over
    the rung columns, or ``inf`` when a pivot is exactly zero.  A leak of
    exactly 0 means every rung column has a nonzero top entry and nothing
    below it, so with ``P = S G`` back-substitution writes each target in
    its span: the inclusion holds exactly, not only to a tolerance.
    Rungs ``l = 0 .. L`` are read.

    The columns stand for the operators' exact images only while those
    images stay inside the window.  When ``P`` is a product ``S G`` of
    sections, its rung columns equal the truncated exact images of the
    product when every ``G`` column ``first .. first+L`` has its whole
    support in the window: ``first`` at least the reach of ``G`` below the
    diagonal, and ``first + N + L`` at most the last position.
    """
    top = first + N
    cols = np.hstack((S[:, :top], P[:, first : first + L + 1]))
    norms = np.linalg.norm(cols, axis=0)
    live = norms != 0.0  # a NaN column stays, so its NaN reaches the rows
    k = np.cumsum(live)[top:]
    A = cols[:, live] / norms[live]
    Q, Rf = np.linalg.qr(A)
    T = S[:, top : top + L + 1]
    # rung l keeps the first k[l] coordinates of Q^H t; as Rf is upper
    # triangular, one solve gives every rung's leading-block certificate
    qt = np.where(np.arange(A.shape[1])[:, None] < k, Q.conj().T @ T, 0.0)
    misfit = np.linalg.norm(T - Q @ qt, axis=0)
    coef = np.linalg.norm(np.linalg.solve(Rf, qt), axis=0)
    # the columns of A are unit vectors, so norm(A[:, :k]) is sqrt(k)
    scale = np.linalg.norm(T, axis=0) + np.sqrt(k) * coef
    ladder = misfit / np.where(scale == 0.0, 1.0, scale)  # a zero target: 0 / 1
    rungs = np.arange(first, first + L + 1)
    piv = G[rungs + N, rungs]
    pivots = np.abs(piv) / np.linalg.norm(G[:, rungs], axis=0)
    below = np.arange(G.shape[0])[:, None] > rungs + N
    leak = float(np.max(np.where(below, np.abs(G[:, rungs]), 0.0), initial=0.0))
    return ladder.tolist(), float(np.min(pivots)), np.inf if np.any(piv == 0) else leak


def _probe(
    f, g, lo: int, hi: int, R: float, ladder_length: int, floor: float,
    *, build, n0_of, first_rung: int, through_f: bool, edge_free: bool,
) -> ZeroProductReport:
    """The zero-product protocol of both harnesses over the window ``[lo, hi]``.

    A zero factor satisfies the dichotomy outright, and no ladder exists
    because the nonvanishing hypothesis has no top degree to anchor to, so
    only the column norms of the product of the ``build`` sections are
    reported.  Otherwise the ladder (:func:`_ladder`) starts at the larger
    of ``n0_of(N)``, for the top degree ``N`` of ``g``, and ``first_rung``,
    the lowest column whose image under ``T_g`` stays inside the window.
    It is read through ``T_f`` (``S = T_f``, ``P = T_f T_g``) when
    ``through_f``, else in the domain of ``T_g`` (``S = I``, ``P = T_g``).
    The interior product columns keep the margin ``f.bandwidth() +
    g.bandwidth()`` from each window edge but an ``edge_free`` lower one.
    The verdict is ``Inconclusive`` when an interior column norm is not
    finite, else ``Violation`` only when every one falls below ``floor``.
    """
    if f.is_zero() or g.is_zero():
        prod = build(f, (lo, hi), R) @ build(g, (lo, hi), R)
        N = None if g.is_zero() else g.top_degree()
        norms = np.linalg.norm(prod, axis=0).tolist()
        return ZeroProductReport(UNCONSTRAINED, lo, N, norms)
    N, L = g.top_degree(), int(ladder_length)
    n0 = n0_of(N)
    n0_eff = first_rung if n0 == UNCONSTRAINED else max(int(n0), first_rung)
    if n0_eff + N + L > hi:
        raise WindowTooSmallError(
            f"window top {hi} below ladder top {n0_eff + N + L}; "
            f"raise the window or shorten the ladder"
        )
    size, margin = hi - lo + 1, f.bandwidth() + g.bandwidth()
    bottom = 0 if edge_free else margin
    if bottom >= size - margin:
        raise WindowTooSmallError(
            f"window [{lo}, {hi}] has no interior columns at margin {margin}"
        )

    tf = build(f, (lo, hi), R)
    tg = build(g, (lo, hi), R)
    prod = tf @ tg
    S, P = (tf, prod) if through_f else (np.eye(size), tg)
    ladder, pivot, leak = _ladder(S, P, tg, n0_eff - lo, N, L)
    norms = np.linalg.norm(prod[:, bottom : size - margin], axis=0).tolist()
    if not np.all(np.isfinite(norms)):
        verdict = INCONCLUSIVE
    else:
        verdict = VIOLATION if np.max(norms) < floor else CONSISTENT
    return ZeroProductReport(n0, n0_eff, N, norms, ladder, pivot, leak, verdict)


def zero_product_experiment_hardy(
    f: ExactSymbol,
    g: ExactSymbol,
    window: tuple[int, int],
    R: float,
    ladder_length: int = 8,
    zero_divisor_floor: float = 1e-6,
) -> ZeroProductReport:
    """Probe a symbol pair for a finite-window zero-divisor signature.

    The protocol of :func:`_probe` with the ladder read through ``T_f``.
    Rung ``l`` holds for every admissible pair: the image of basis vector
    ``n0+N+l`` under ``T_f`` lies in the span of the images of the lower
    basis vectors and the product images of ``n0 .. n0+l``; under a
    genuinely zero product the latter drop out, leaving the inclusion the
    proof iterates.  The ladder starts ``g.neg_reach()`` above the window
    floor, so the image of every rung under ``T_g`` stays in the window.
    """
    lo, hi = _check_window(window)
    return _probe(
        f, g, lo, hi, R, ladder_length, zero_divisor_floor,
        build=build_toeplitz_hardy, n0_of=lambda N: find_n0_hardy(g, N, R),
        first_rung=lo + g.neg_reach(), through_f=True, edge_free=False,
    )
