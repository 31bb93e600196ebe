"""Finite sections of multiplication-compress operators on the annulus.

Sections are assembled from the coefficient pairs of a boundary symbol.
Rows and columns refer to the orthonormal families of
:mod:`annulab.geometry`: the power family spans the holomorphic subspace,
the complement family spans its orthogonal complement in boundary L2.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .errors import FloatRangeError, WindowTooSmallError
from .geometry import AnnulusGeometry, _pair_on_grid, basis_weights
from .symbols import (
    ExactSymbol,
    _read,
    conjugate_symbol,
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


#: the narrower half-width at or below which :func:`band_product` works on
#: diagonals rather than in dense blocks
_DIAGONAL_REACH = 8


def band_product(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``A @ B`` for sections, or stacks of sections, in band layout
    (:func:`_band_sections`), as the band of the product: of half-width
    ``a + b`` for ``A`` of half-width ``a`` and ``B`` of ``b``, its
    diagonals past ``n - 1``, if any, holding only zeros.

    While ``min(a, b) <= _DIAGONAL_REACH`` it works on diagonals: entry
    ``(j + d, j)`` of the product is the sum over ``B``'s diagonals ``q =
    -b .. b`` of ``A[j + d, j + q] B[j + q, j]``, so diagonal ``q`` of
    ``B`` scales the ``2a + 1`` entries of ``A``'s column ``j + q``, which
    land on the product's diagonals ``q - a .. q + a``: ``2b + 1``
    elementwise multiply-adds, ``O(n a b)``.  Past it the product goes in
    blocks of ``2 (a + b) + 1`` columns, its band's width: each block is
    one matmul of only the rows and columns the two bands reach, formed
    dense (:func:`dense`) and written back onto the band
    (:func:`_write_block`); a window that one block covers runs ``dense(A)
    @ dense(B)`` itself.  The loop's cost grows as ``a b``, the blocks' as
    ``(a + b)^2`` but at BLAS's rate, and the crossover moves with the
    stack (one BLAS thread, medians of 15-41 calls): one matrix of side 257
    or 801 runs faster on the loop up to ``a = b = 16`` and on the blocks
    from 24; a stack of 20 at side 49 runs within a quarter either way at
    ``a = b`` = 6 to 10, and 1.5 times faster on the blocks from 12 on.
    At ``a = b = 100`` over side 801 the blocks are 3.5 times faster.
    Either way the result is ``A @ B`` to rounding, not bit for bit, and
    each matrix of a stack has the bits of its lone product.  A product
    whose entries could leave the float range is refused first
    (:func:`_refuse_past_float_range`).
    """
    _refuse_past_float_range(A, B)
    a, b, n = A.shape[-2] // 2, B.shape[-2] // 2, A.shape[-1]
    c = a + b
    out = np.zeros((*np.broadcast_shapes(A.shape[:-2], B.shape[:-2]), 2 * c + 1, n),
                   dtype=np.result_type(A, B))
    if min(a, b) <= _DIAGONAL_REACH:
        for q in range(-b, b + 1):
            j0, j1 = max(0, -q), min(n, n - q)  # the columns j whose j + q is in the section
            out[..., q + b : q + b + 2 * a + 1, j0:j1] += (A[..., j0 + q : j1 + q]
                                                           * B[..., q + b, None, j0:j1])
        return out
    for j in range(0, n, 2 * c + 1):
        cols = range(j, min(j + 2 * c + 1, n))
        inner = range(max(j - b, 0), min(cols.stop + b, n))
        rows = range(max(inner.start - a, 0), min(inner.stop + a, n))
        _write_block(out, dense(A, rows, inner) @ dense(B, inner, cols), rows, cols)
    return out


def _refuse_past_float_range(A: np.ndarray, B: np.ndarray, norms: bool = False) -> None:
    """Refuse, with :class:`FloatRangeError`, band-layout sections ``A``
    and ``B`` (:func:`_band_sections`, half-widths ``a`` and ``b``) whose
    product ``A @ B`` could form a value past float max, or, with
    ``norms``, whose column norms or the product's could.  The bound is
    read off the bands in hand, ``x = max |A|`` and ``y = max |B|``.  Entry
    ``(j, k)`` of the product sums the ``2b + 1`` terms ``A[j, i] B[i, k]``
    of ``B``'s band, each at most ``x y`` in modulus, and so is the sum of
    the two real products behind each part of a complex term (``|p r| + |q
    s| <= |p + q i| |r + s i|``).  So every value the product forms, partial
    sums included, is at most ``e = (2b + 1) x y``.  A column norm sums the
    unscaled squares of the column's entries: at most ``2 (a + b) + 1`` of
    the product's, so at most ``(2 (a + b) + 1) e^2``, and ``2a + 1`` of
    ``A``'s (a ``T_f`` column) or ``2b + 1`` of ``B``'s, at most ``(2a + 1)
    x^2`` and ``(2b + 1) y^2``.  The bounds are formed in Python floats,
    which reach ``inf`` without a warning.  A NaN entry is not refused: the
    harnesses report it (an ``Inconclusive`` verdict, a FAIL row).  Drawn
    trials, whose coefficients are at most ``sqrt(2)`` in modulus, stay
    hundreds of orders of magnitude below the bound."""
    a, b = A.shape[-2] // 2, B.shape[-2] // 2
    x, y = (float(np.max(np.abs(M), initial=0.0)) for M in (A, B))
    e = (2 * b + 1) * x * y
    e = max(e, (2 * (a + b) + 1) * e * e, (2 * a + 1) * x * x, (2 * b + 1) * y * y) if norms else e
    if e > np.finfo(float).max:
        raise FloatRangeError(f"section entries {x:.3g} and {y:.3g} leave the float range in a product")


def _band_entries(bands: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every position of a ``size x size`` section that the integer
    ``bands`` reach, as index arrays ``(band, row, col)``: band ``bands[i]``
    sends column ``c`` to row ``c + bands[i]``, and its entries, one per
    column that keeps the row inside the section, carry ``band = i``.  They
    are listed in the order of ``bands``, then by column; a band of ``|k| >=
    size`` has none.
    """
    count = np.maximum(size - np.abs(bands), 0)
    band = np.repeat(np.arange(len(bands)), count)
    # an entry's column: its place past its band's first entry, plus that band's first column
    col = np.arange(len(band)) - np.repeat(np.cumsum(count) - count - np.maximum(-bands, 0), count)
    return band, col + bands[band], col


def _band_sections(tables, weights, size: int, bandwidth: int, combine=np.add) -> np.ndarray:
    """Stacked ``size x size`` sections that are zero more than
    ``bandwidth`` off the diagonal, in band layout: with ``w = min(bandwidth,
    size - 1)``, a ``(stack, 2w + 1, size)`` array whose entry ``[i, c]``
    is the section's entry ``(c + i - w, c)``, zero where that row leaves
    the section (LAPACK's layout, Golub–Van Loan ch. 4; :func:`dense`
    forms the square section).  ``tables`` holds one list of coefficient
    tables (one per section) per term, and ``weights`` one pair ``(u, v)``
    of row and column weights per term, or ``None`` for bare ones.  Entry
    ``(a, b)`` of a term is ``t(a - b) * (u[a] * v[b])``, in that order:
    the bits of ``t * np.outer(u, v)``, signed zeros included.  Terms are
    joined by ``combine``.  One :func:`_read` takes every table at the
    band's offsets, and each term is formed on the whole band at once: row
    ``i`` of ``u``'s sliding windows over ``w`` zeros each side is
    ``u[c + i - w]``, so no index array is built.  The slots past the
    section are then set to ``+0``.
    """
    w = min(bandwidth, size - 1)
    k = np.arange(-w, w + 1)
    hats = _read([t for term in tables for t in term], k)
    hats = hats.reshape(len(tables), len(tables[0]), 2 * w + 1, 1)
    windows = np.lib.stride_tricks.sliding_window_view
    terms = [t if uv is None else t * (windows(np.pad(uv[0], w), size) * uv[1])
             for t, uv in zip(hats, weights)]
    row = k[:, None] + np.arange(size)
    return np.where((0 <= row) & (row < size), reduce(combine, terms), 0)


def _band_zeros(lead: tuple[int, ...], bandwidth: int, n: int) -> np.ndarray:
    """Complex zero sections of side ``n``, stacked by the leading shape
    ``lead``, in the band layout of :func:`_band_sections` at ``bandwidth``,
    for :func:`_put` or :func:`_write_block` to fill."""
    w = min(bandwidth, n - 1)
    return np.zeros((*lead, 2 * w + 1, n), dtype=complex)


def dense(band: np.ndarray, rows: range | None = None, cols: range | None = None) -> np.ndarray:
    """The square sections of a band-layout array or stack
    (:func:`_band_sections`), or only their block of rows ``rows`` and
    columns ``cols``; every entry past the band is ``+0``.  Slot ``i`` of
    column ``c`` holds row ``c + i - w``, which in the block's own indices
    is the band ``i - w + cols.start - rows.start`` of
    :func:`_band_entries`."""
    w, n = band.shape[-2] // 2, band.shape[-1]
    rows, cols = range(n) if rows is None else rows, range(n) if cols is None else cols
    bands = np.arange(-w, w + 1) + (cols.start - rows.start)
    slot, row, col = _band_entries(bands, max(len(rows), len(cols)))
    keep = (row < len(rows)) & (col < len(cols))
    out = np.zeros((*band.shape[:-2], len(rows), len(cols)), dtype=band.dtype)
    out[..., row[keep], col[keep]] = band[..., slot[keep], cols.start + col[keep]]
    return out


def _put(band: np.ndarray, row, col, values, *stack) -> None:
    """Set the entries ``(row, col)`` of the band-layout sections ``band``
    to ``values``: entry ``(r, c)`` is slot ``[r - c + w, c]``.  ``stack``,
    if given, indexes the leading axis; else every matrix takes them."""
    band[(*stack, ..., row - col + band.shape[-2] // 2, col)] = values


def _write_block(band: np.ndarray, block: np.ndarray, rows: range, cols: range) -> None:
    """Write onto the band-layout sections ``band`` every entry of the
    dense ``block``, of rows ``rows`` and columns ``cols``, that lies in
    their band.  Band slot ``i`` holds the diagonal ``d = i - w``, whose
    entries in the block, one per column ``c`` with ``c + d`` among
    ``rows``, lie ``len(cols) + 1`` apart in the block's flat order: one
    strided slice per slot."""
    w, width = band.shape[-2] // 2, len(cols)
    flat = block.reshape(*block.shape[:-2], -1)
    for i in range(2 * w + 1):
        c0, c1 = max(cols.start, rows.start + w - i), min(cols.stop, rows.stop + w - i)
        if c0 < c1:
            at = (c0 + i - w - rows.start) * width + c0 - cols.start
            band[..., i, c0:c1] = flat[..., at : at + (c1 - c0 - 1) * (width + 1) + 1 : width + 1]


def _adjoint(band: np.ndarray) -> np.ndarray:
    """The conjugate transpose of a band-layout section, in band layout:
    entry ``(r, c)`` of ``A^H``, band ``k`` at column ``c``, is
    ``conj(A[c, r])``, which the input holds in band ``2w - k`` at column
    ``r``; the slots past the section stay ``+0``."""
    w = band.shape[-2] // 2
    k, row, col = _band_entries(np.arange(-w, w + 1), band.shape[-1])
    out = np.zeros_like(band)
    out[..., k, col] = band[..., 2 * w - k, row].conj()
    return out


def build_toeplitz_hardy(
    f: ExactSymbol | Sequence[ExactSymbol], window: tuple[int, int], R: float
) -> np.ndarray:
    """Section of the compression of multiplication by ``f`` to the power
    family, in the band layout of :func:`_band_sections` at ``f.bandwidth()``.

    A sequence of symbols gives their sections stacked along a leading
    axis, at their largest bandwidth; every entry has the bits of the
    one-symbol section.

    The entry is ``(fhat_C(j-k) + R^(j+k) fhat_C0(j-k)) / (norm_j norm_k)``
    with ``norm_j = sqrt(1 + R^(2j))``.  It is formed as
    ``T = B Toep(fhat_C) B + A Toep(fhat_C0) A`` with the diagonal weights
    ``B = 1/norm_j`` and ``A = R^j/norm_j`` of :func:`basis_weights`,
    each in [0, 1].  Raising ``R^(j+k)`` and ``norm_j``
    directly overflows once ``R^|j|`` leaves the float range (R = 0.1 at
    window +-160), and the entries turn into ``nan`` or collapse to zero.
    """
    single = isinstance(f, ExactSymbol)
    fs = [f] if single else f
    lo, hi = _check_window(window)
    B, A = basis_weights(np.arange(lo, hi + 1), R)
    T = _band_sections(
        [[s.coeffs_C for s in fs], [s.coeffs_C0 for s in fs]], [(B, B), (A, A)],
        hi - lo + 1, max((s.bandwidth() for s in fs), default=0),
    )
    return T[0] if single else T


def build_hankel_annulus(
    f: ExactSymbol, window: tuple[int, int], R: float
) -> np.ndarray:
    """Section of the complement-side compression of multiplication by
    ``f``, in the band layout of :func:`_band_sections` at ``f.bandwidth()``.

    Row ``j`` lives in the complement family, column ``k`` in the power
    family; the entry is
    ``(R^j fhat_C(j-k) - R^k fhat_C0(j-k)) / (norm_j norm_k)``, formed as
    ``H = A Toep(fhat_C) B - B Toep(fhat_C0) A`` with the bounded weights
    of :func:`build_toeplitz_hardy`, which keep it finite for the same
    reason.  Symbols that are traces of a single Laurent polynomial give
    the zero matrix.
    """
    lo, hi = _check_window(window)
    B, A = basis_weights(np.arange(lo, hi + 1), R)
    return _band_sections([[f.coeffs_C], [f.coeffs_C0]], [(A, B), (B, A)],
                          hi - lo + 1, f.bandwidth(), np.subtract)[0]


# ---------------------------------------------------------------------------
# quadrature-assembled sections (independent oracle route)


def build_section_quadrature(
    f: ExactSymbol, window: tuple[int, int], geo: AnnulusGeometry
) -> tuple[np.ndarray, np.ndarray]:
    """Assemble both sections entirely from boundary-grid inner products.

    Returns the square ``(toeplitz, hankel)``: the hardy rows reproduce
    :func:`build_toeplitz_hardy`, the complement rows
    :func:`build_hankel_annulus`, each through :func:`dense`.  Used as the
    independent check of the closed-form entries.  Both come from one call
    of the pairing kernel :func:`geometry._pair_on_grid` on the symbol's
    grid samples, which evaluates the hardy columns once per circle and
    refuses, with :class:`AliasingError`, a window whose products would
    fold on the grid: ``(hi - lo)`` plus the symbol's reach must stay below
    ``m_circle``.
    """
    lo, hi = _check_window(window)
    P = _pair_on_grid(geo, np.arange(lo, hi + 1), sample_symbol(f, geo), f.bandwidth())
    return P[: hi - lo + 1], P[hi - lo + 1 :]


# ---------------------------------------------------------------------------
# exact coefficient-space action: no harness reads it; the benchmark's
# per-layer metric list still names both functions (ROADMAP item 9)


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
        fC, fC0 = complex(f.coeffs_C.get(k, 0.0)), complex(f.coeffs_C0.get(k, 0.0))
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
# top-coefficient threshold for the band-limited falsification harness


def find_n0_hardy(g: ExactSymbol, N: int, R: float):
    """Smallest index from which the top-offset combination never vanishes.

    The combination is ``ghat_C(N) + R^(2n+N) ghat_C0(N)``; as a function
    of ``n`` it vanishes for at most one real ``n*``.  Returns
    ``floor(n*) + 1`` when that real solution exists and the string
    ``"unconstrained"`` otherwise (callers substitute their window's lower
    bound).  Raises ``ValueError`` if both top coefficients vanish.
    """
    gC, gC0 = complex(g.coeffs_C.get(N, 0.0)), complex(g.coeffs_C0.get(N, 0.0))
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


def _semicommutator_residual(
    phi, psi, toeplitz: Callable, hankel: Callable, side: int, both_edges: bool
) -> tuple[float, int]:
    """Interior max deviation of the product identity with Hankel correction
    over the side-``side`` sections ``toeplitz`` and ``hankel`` build, in
    band layout at their symbols' bandwidths: the section of the product
    symbol against ``T_phi T_psi + H*_phibar H_psi``.  Both products are
    :func:`band_product` calls, the adjoint is :func:`_adjoint`, and the
    deviation is taken on the wider of the two bands, every entry past the
    narrower one being zero on its side: the product's band holds the
    product symbol's in exact arithmetic, so a product symbol reaching past
    it counts its extra diagonals as deviation.  The interior keeps the
    margin ``phi.bandwidth() + psi.bandwidth()`` from the last row and
    column, and from the first ones too when ``both_edges``.  Returns
    ``(residual, margin)``.
    """
    margin = phi.bandwidth() + psi.bandwidth()
    first = margin if both_edges else 0
    if side - margin <= first:
        raise WindowTooSmallError(
            f"a section of side {side} has no interior at margin {margin}"
        )
    prod = band_product(toeplitz(phi), toeplitz(psi))
    prod += band_product(_adjoint(hankel(conjugate_symbol(phi))), hankel(psi))
    exact = toeplitz(multiply_symbols(phi, psi))
    w, v = prod.shape[-2] // 2, exact.shape[-2] // 2
    if v > w:
        prod, w = np.pad(prod, ((v - w, v - w), (0, 0))), v
    prod[w - v : w + v + 1] -= exact  # rounding is symmetric: |prod - exact| = |exact - prod|
    end = side - margin
    row = np.arange(first, end) + np.arange(-w, w + 1)[:, None]  # of each interior column
    delta = np.abs(prod[:, first:end])
    return float(np.max(delta, where=(first <= row) & (row < end), initial=0.0)), margin


def semicommutator_residual_annulus(
    phi: ExactSymbol, psi: ExactSymbol, window: tuple[int, int], R: float
) -> tuple[float, int]:
    """Interior max deviation of the product identity on the annulus window,
    by :func:`_semicommutator_residual` over :func:`build_toeplitz_hardy`
    and :func:`build_hankel_annulus`, the margin kept from both edges."""
    lo, hi = _check_window(window)
    return _semicommutator_residual(
        phi, psi, lambda s: build_toeplitz_hardy(s, window, R),
        lambda s: build_hankel_annulus(s, window, R), hi - lo + 1, both_edges=True,
    )


# ---------------------------------------------------------------------------
# zero-product falsification harness


@dataclass(frozen=True)
class ZeroProductReport:
    """Outcome of one zero-product probe on a pair of symbols of either space.

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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Residuals, smallest relative pivot and band leak of the proof
    ladder of each trial of a stack, read from the columns of its sections
    over one window.

    ``S``, ``P`` and ``G`` stack the trials' sections along a leading axis;
    only their columns below ``first + max(N, 0) + L + 1`` are read, so a
    stack may hold just those.  ``first`` is the column position of the ladder's
    first rung and ``N`` the top degree of ``G``, shared by the stack.
    Returns, per trial, the ``L + 1`` residuals, the smallest pivot and the
    leak.  Rung ``l`` measures how far the target ``t = S[:, first+N+l]``
    lies from the span of the nonzero columns among the base
    ``S[:, :first+N]`` and the rung columns ``P[:, first:first+l+1]``.
    Each rung's set is the previous one's plus one column, so one
    Householder QR ``A = Q Rf`` of the last rung's normalized nonzero
    columns serves every rung: rung ``l`` reads the leading ``k`` columns,
    ``k`` the nonzero ones among its set.  Trials whose nonzero columns sit
    at the same positions share one stacked QR and one stacked solve, which
    make the LAPACK call of a lone matrix per matrix, so a trial's values
    do not depend on the rest of its stack.  The misfit is the part of ``t``
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
    cols = np.concatenate((S[..., :top], P[..., first : first + L + 1]), axis=-1)
    norms = np.linalg.norm(cols, axis=-2)
    live = norms != 0.0  # a NaN column stays, so its NaN reaches the rows
    ladder = np.empty((len(cols), L + 1))
    patterns, which = np.unique(live, axis=0, return_inverse=True)
    for i, pattern in enumerate(patterns):
        t = np.flatnonzero(which.ravel() == i)
        k = np.cumsum(pattern)[top:]
        A = cols[t][..., pattern] / norms[t][:, None, pattern]
        Q, Rf = np.linalg.qr(A)
        T = S[t, :, top : top + L + 1]
        # rung l keeps the first k[l] coordinates of Q^H t; as Rf is upper
        # triangular, one solve gives every rung's leading-block certificate
        qt = np.where(np.arange(A.shape[-1])[:, None] < k, Q.conj().mT @ T, 0.0)
        misfit = np.linalg.norm(T - Q @ qt, axis=-2)
        # a certificate past sqrt(float max) reads inf, and its misfit 0
        with np.errstate(over="ignore", invalid="ignore"):
            coef = np.linalg.norm(np.linalg.solve(Rf, qt), axis=-2)
        # the columns of A are unit vectors, so norm(A[:, :k]) is sqrt(k)
        scale = np.linalg.norm(T, axis=-2) + np.sqrt(k) * coef
        # a zero target reads 0 / 1
        ladder[t] = misfit / np.where(scale == 0.0, 1.0, scale)
    rungs = np.arange(first, first + L + 1)
    piv, image = G[:, rungs + N, rungs], G[..., rungs]
    pivots = np.abs(piv) / np.linalg.norm(image, axis=-2)
    below = np.arange(G.shape[-2])[:, None] > rungs + N
    leak = np.max(np.where(below, np.abs(image), 0.0), axis=(-2, -1), initial=0.0)
    leak = np.where(np.any(piv == 0, axis=-1), np.inf, leak)
    return ladder, np.min(pivots, axis=-1), leak


#: bytes of one stack of sections: a probe builds its trials' sections in
#: chunks of at most this size, or of one section when a section is larger
_STACK_BYTES = 1 << 20
#: both probes' fixed protocol, read by :func:`_probe` at each call: the
#: rungs past the first, and the column norm below which a product is zero
LADDER_LENGTH = 8
ZERO_DIVISOR_FLOOR = 1e-6


def _probe(
    pairs, window: tuple[int, int], build: Callable, n0: Callable, through_f: bool
) -> list[ZeroProductReport]:
    """The zero-product protocol of both harnesses over the window
    ``[lo, hi]``, one report per pair ``(f, g)`` of ``pairs``.  ``build``
    takes a list of symbols and the window and returns their sections
    stacked; ``n0(g, N, window)`` is the first column the top degree ``N``
    of ``g`` leaves unobstructed.

    A zero factor satisfies the dichotomy outright: ``T_f T_g`` is exactly
    zero, so its report reads a zero norm for every column, and no section
    is built for it.  No ladder exists either, because the nonvanishing
    hypothesis has no top degree to anchor to.
    Otherwise the ladder (:func:`_ladder`) starts at the larger of
    ``n0`` and ``lo + g.neg_reach()``, the lowest column whose image
    under ``T_g`` stays inside the window, and is read through ``T_f``
    (``through_f``: ``S = T_f``, ``P = T_f T_g``) or in the domain of
    ``T_g`` (``S = I``, ``P = T_g``).  The interior product columns keep
    the margin ``f.bandwidth() + g.bandwidth()`` from both window edges.
    The verdict is ``Inconclusive`` when an interior column norm is not finite, else
    ``Violation`` only when every one falls below ``ZERO_DIVISOR_FLOOR``.
    A chunk whose sections could carry the product, or a column norm that
    the probe or its ladder takes, past the float range is refused before
    the product is formed (:func:`_refuse_past_float_range`).

    Every pair's window checks run first, in order, so a refusal names the
    first pair the window cannot serve.  They also put each nonzero pair
    into a stack keyed by its bandwidth pair ``(f.bandwidth(),
    g.bandwidth())``, the ladder's first rung and ``N``.  The sections are
    built in band layout, and a stack runs in chunks of as many trials as
    fit ``_STACK_BYTES`` (at least one), a trial counting its product's
    ``2 (a + b) + 1`` diagonals or the block of ``cut`` columns the ladder
    reads, whichever is more.  Per chunk, :func:`band_product` forms
    ``T_f T_g`` on its diagonals, the column norms are taken on them, and
    only the ladder's columns are formed dense (:func:`dense`); the
    ladders take one stacked call.  A stacked call applies per matrix what
    a one-pair call applies to its matrix, so each report has the bits of
    the one-pair call.
    """
    lo, hi = _check_window(window)
    L, size = LADDER_LENGTH, hi - lo + 1
    reports: list = [None] * len(pairs)
    stacks: dict[tuple[int, int, int, int], list[tuple[int, int | str]]] = {}
    for i, (f, g) in enumerate(pairs):
        if f.is_zero() or g.is_zero():
            N = None if g.is_zero() else g.top_degree()
            reports[i] = ZeroProductReport(UNCONSTRAINED, lo, N, [0.0] * size)
            continue
        N, first = g.top_degree(), lo + g.neg_reach()
        n0_g = n0(g, N, (lo, hi))
        n0_eff = first if n0_g == UNCONSTRAINED else max(int(n0_g), first)
        if n0_eff + N + L > hi:
            raise WindowTooSmallError(
                f"window top {hi} below ladder top {n0_eff + N + L}; "
                f"raise the window or shorten the ladder"
            )
        margin = f.bandwidth() + g.bandwidth()
        if margin >= size - margin:
            raise WindowTooSmallError(
                f"window [{lo}, {hi}] has no interior columns at margin {margin}"
            )
        stacks.setdefault((f.bandwidth(), g.bandwidth(), n0_eff - lo, N), []).append((i, n0_g))

    for (a, b, first, N), members in stacks.items():
        cut = first + max(N, 0) + L + 1  # the columns _ladder reads
        interior = slice(a + b, size - a - b)
        rows = min(size, cut + a + b)  # the rows those columns reach
        # a trial holds its product's band, or rows x cut dense entries per input
        held = max((2 * (a + b) + 1) * size, rows * cut)
        step = max(1, _STACK_BYTES // (16 * held))
        for at in range(0, len(members), step):
            idx, n0s = zip(*members[at : at + step])
            tf = build([pairs[i][0] for i in idx], (lo, hi))
            tg = build([pairs[i][1] for i in idx], (lo, hi))
            _refuse_past_float_range(tf, tg, norms=True)
            prod = band_product(tf, tg)
            G = dense(tg, range(rows), range(cut))
            S, P = ((dense(tf, range(rows), range(cut)), dense(prod, range(rows), range(cut)))
                    if through_f else (np.broadcast_to(np.eye(rows, cut), G.shape), G))
            ladders = zip(*_ladder(S, P, G, first, N, L))
            norms = np.linalg.norm(prod, axis=-2)
            for i, n0_g, col, (ladder, pivot, leak) in zip(idx, n0s, norms, ladders):
                col = col[interior].tolist()
                if not np.all(np.isfinite(col)):
                    verdict = INCONCLUSIVE
                else:
                    verdict = VIOLATION if np.max(col) < ZERO_DIVISOR_FLOOR else CONSISTENT
                reports[i] = ZeroProductReport(
                    n0_g, lo + first, N, col, ladder.tolist(), float(pivot), float(leak), verdict
                )
    return reports


def zero_product_experiment_hardy(
    pairs: Sequence[tuple[ExactSymbol, ExactSymbol]], window: tuple[int, int], R: float
) -> list[ZeroProductReport]:
    """Probe each symbol pair ``(f, g)`` for a finite-window zero-divisor
    signature; one report per pair, in order.

    The protocol of :func:`_probe` with the ladder read through ``T_f``.
    Rung ``l`` holds for every admissible pair: the image of basis vector
    ``n0+N+l`` under ``T_f`` lies in the span of the images of the lower
    basis vectors and the product images of ``n0 .. n0+l``; under a
    genuinely zero product the latter drop out, leaving the inclusion the
    proof iterates.
    """
    # the lambdas look the builder and the n0 rule up at each call, so a
    # module attribute rebound by a tracer or a test is the one called
    return _probe(pairs, window, lambda fs, w: build_toeplitz_hardy(fs, w, R),
                  lambda g, N, w: find_n0_hardy(g, N, R), through_f=True)
