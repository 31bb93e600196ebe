"""Finite sections of multiplication-compress operators on the annulus.

Sections are assembled from the coefficient pairs of a boundary symbol.
Rows and columns refer to the orthonormal families of
:mod:`annulab.geometry`: the power family spans the holomorphic subspace,
the complement family spans its orthogonal complement in boundary L2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import WindowTooSmallError
from .geometry import (
    AnnulusGeometry,
    complement_basis_eval,
    hardy_basis_eval,
)
from .symbols import (
    BoundarySymbol,
    ExactSymbol,
    conjugate_symbol,
    fourier_pair,
    multiply_symbols,
    sample_symbol,
)

CONSISTENT = "ConsistentWithTheorem"
VIOLATION = "Violation"
UNCONSTRAINED = "unconstrained"


@dataclass(frozen=True)
class TruncatedOperator:
    """A dense finite section with explicit index windows.

    ``entries[a, b]`` couples row basis index ``row_window[0] + a`` to
    column basis index ``col_window[0] + b``.  ``row_basis``/``col_basis``
    name the orthonormal family ("hardy", "complement", "disc-hardy",
    "disc-complement", "bergman").
    """

    entries: np.ndarray
    row_window: tuple[int, int]
    col_window: tuple[int, int]
    row_basis: str = "hardy"
    col_basis: str = "hardy"

    def row_index(self, j: int) -> int:
        lo, hi = self.row_window
        if not lo <= j <= hi:
            raise IndexError(f"row {j} outside window [{lo}, {hi}]")
        return j - lo

    def col_index(self, k: int) -> int:
        lo, hi = self.col_window
        if not lo <= k <= hi:
            raise IndexError(f"column {k} outside window [{lo}, {hi}]")
        return k - lo

    def at(self, j: int, k: int) -> complex:
        return complex(self.entries[self.row_index(j), self.col_index(k)])


def compose(a: TruncatedOperator, b: TruncatedOperator) -> TruncatedOperator:
    """Matrix product of two sections sharing the middle window."""
    if a.col_window != b.row_window or a.col_basis != b.row_basis:
        raise ValueError("sections are not composable: middle windows differ")
    return TruncatedOperator(
        a.entries @ b.entries, a.row_window, b.col_window, a.row_basis, b.col_basis
    )


def adjoint(a: TruncatedOperator) -> TruncatedOperator:
    return TruncatedOperator(
        a.entries.conj().T, a.col_window, a.row_window, a.col_basis, a.row_basis
    )


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
    size = (len(values) + 1) // 2
    win = np.lib.stride_tricks.sliding_window_view(values, size)
    return (win if hankel else win[::-1]).copy()


def _bounded_weights(idx, R: float):
    """Weights ``B = 1/norm_j`` and ``A = R^j/norm_j`` at the indices ``idx``."""
    idx = np.asarray(idx)
    # only R^|j| is raised, so both weights stay in [0, 1]
    p = R ** np.abs(idx).astype(float)
    s = np.sqrt(1.0 + p * p)
    return np.where(idx < 0, p, 1.0) / s, np.where(idx < 0, 1.0, p) / s


def _bounded_pairs(f: BoundarySymbol, window: tuple[int, int], R: float):
    """Window, weights ``B`` and ``A`` of :func:`_bounded_weights`, and both
    circles' coefficients, one ``fourier_pair`` call per offset from
    ``hi - lo`` down to ``lo - hi`` (columns: unit circle, inner circle)."""
    lo, hi = _check_window(window)
    B, A = _bounded_weights(np.arange(lo, hi + 1), R)
    pairs = [fourier_pair(f, off) for off in range(hi - lo, lo - hi - 1, -1)]
    return (lo, hi), B, A, np.array(pairs, dtype=complex)


def build_toeplitz_hardy(
    f: BoundarySymbol, window: tuple[int, int], R: float
) -> TruncatedOperator:
    """Section of the compression of multiplication by ``f`` to the power family.

    The entry is ``(fhat_C(j-k) + R^(j+k) fhat_C0(j-k)) / (norm_j norm_k)``
    with ``norm_j = sqrt(1 + R^(2j))``.  It is formed as
    ``T = B Toep(fhat_C) B + A Toep(fhat_C0) A`` with the diagonal weights
    ``B = 1/norm_j`` and ``A = R^j/norm_j``: for ``j >= 0`` these are
    ``b_j`` and ``a_j``, for ``j < 0`` they are ``a_|j|`` and ``b_|j|``,
    where ``a_j = R^j / sqrt(1 + R^(2j))`` and ``b_j = 1 / sqrt(1 + R^(2j))``.
    Each weight lies in [0, 1].  Raising ``R^(j+k)`` and ``norm_j``
    directly overflows once ``R^|j|`` leaves the float range (R = 0.1 at
    window +-160), and the entries turn into ``nan`` or collapse to zero.
    """
    win, B, A, pairs = _bounded_pairs(f, window, R)
    ent = _gather(pairs[:, 0]) * np.outer(B, B)
    ent += _gather(pairs[:, 1]) * np.outer(A, A)
    return TruncatedOperator(ent, win, win, "hardy", "hardy")


def build_hankel_annulus(
    f: BoundarySymbol, window: tuple[int, int], R: float
) -> TruncatedOperator:
    """Section of the complement-side compression of multiplication by ``f``.

    Row ``j`` lives in the complement family, column ``k`` in the power
    family; the entry is
    ``(R^j fhat_C(j-k) - R^k fhat_C0(j-k)) / (norm_j norm_k)``, formed as
    ``H = A Toep(fhat_C) B - B Toep(fhat_C0) A`` with the bounded weights
    of :func:`build_toeplitz_hardy`, which keep it finite for the same
    reason.  Symbols that are traces of a single Laurent polynomial give
    the zero matrix.
    """
    win, B, A, pairs = _bounded_pairs(f, window, R)
    ent = _gather(pairs[:, 0]) * np.outer(A, B)
    ent -= _gather(pairs[:, 1]) * np.outer(B, A)
    return TruncatedOperator(ent, win, win, "complement", "hardy")


# ---------------------------------------------------------------------------
# quadrature-assembled sections (independent oracle route)


def _basis_matrices(geo: AnnulusGeometry, window: tuple[int, int], family: str):
    lo, hi = window
    t = geo.angles()
    ev = hardy_basis_eval if family == "hardy" else complement_basis_eval
    E_C = np.asarray([ev(n, "C", t, geo.R) for n in range(lo, hi + 1)])
    E_C0 = np.asarray([ev(n, "C0", t, geo.R) for n in range(lo, hi + 1)])
    return E_C, E_C0


def build_section_quadrature(
    f: BoundarySymbol,
    window: tuple[int, int],
    geo: AnnulusGeometry,
    row_family: str = "hardy",
) -> TruncatedOperator:
    """Assemble a section entirely from boundary-grid inner products.

    Row family "hardy" reproduces :func:`build_toeplitz_hardy`; row family
    "complement" reproduces :func:`build_hankel_annulus`.  Used as the
    independent check of the closed-form entries.
    """
    lo, hi = _check_window(window)
    fv = sample_symbol(f, geo)
    E_C, E_C0 = _basis_matrices(geo, window, "hardy")
    R_C, R_C0 = _basis_matrices(geo, window, row_family)
    top = (R_C.conj() * fv.on_C) @ E_C.T / geo.m_circle
    bot = (R_C0.conj() * fv.on_C0) @ E_C0.T / geo.m_circle
    return TruncatedOperator(top + bot, (lo, hi), (lo, hi), row_family, "hardy")


# ---------------------------------------------------------------------------
# exact coefficient-space action


def apply_multiplier_coeffs(f: ExactSymbol, n: int, R: float) -> dict[int, complex]:
    """Coefficients of the compressed product of ``f`` with the monomial ``z^n``.

    Returns the finitely supported map ``n + k -> coefficient`` given by
    ``(fhat_C(k) + R^(2n+k) fhat_C0(k)) / (1 + R^(2(n+k)))``.  This is the
    exact action in monomial coordinates; no window is involved.
    """
    out: dict[int, complex] = {}
    for k in f.support():
        fC, fC0 = f.pair(k)
        c = (fC + R ** (2 * n + k) * fC0) / (1.0 + R ** (2 * (n + k)))
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
    section: TruncatedOperator, r: int, s: int, R: float
) -> dict[int, tuple[complex, complex]]:
    """Recover coefficient pairs of the symbol from two section columns.

    For each offset ``n`` with both rows ``r + n`` and ``s + n`` inside the
    window, entry ``(c + n, c)`` of column ``c`` is
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
    lo, hi = section.row_window
    ns = np.arange(lo - r, hi - s + 1)
    rows = []
    for c in (r, s):
        Bm, Am = _bounded_weights(c + ns, R)
        Bc, Ac = _bounded_weights(c, R)
        vals = section.entries[c + ns - lo, section.col_index(c)]
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
    combined = t_phi.entries @ t_psi.entries + h_phibar.entries.conj().T @ h_psi.entries
    delta = t_prod.entries - combined
    sl = slice(margin, hi - lo + 1 - margin)
    return float(np.max(np.abs(delta[sl, sl]))), margin


# ---------------------------------------------------------------------------
# zero-product falsification harness


@dataclass
class HardyZeroProductReport:
    """Outcome of one falsification run on a pair of band-limited symbols.

    ``ladder_residuals`` are the span-inclusion residuals that hold for
    every admissible pair: the compressed image of ``z^(n0+N+l)`` is
    projected onto the compressed images of the lower powers together with
    the product-operator images of ``z^(n0+l')``; under a genuinely zero
    product the latter drop out and the inclusion reduces to the one the
    proof iterates.  ``restricted_ladder_residuals`` omit the product
    columns (they are predicted small only when the product vanishes, so
    for a nonzero product they stay O(1); this is diagnostic output).
    """

    n0: object
    n0_effective: int
    n0_negative: bool
    ladder_residuals: list[float] = field(default_factory=list)
    restricted_ladder_residuals: list[float] = field(default_factory=list)
    product_column_norms: list[float] = field(default_factory=list)
    min_product_column_norm: float = float("nan")
    verdict: str = CONSISTENT
    k0: int | None = None
    top_degree_f: int = 0
    top_degree_g: int = 0


def _coeff_vector(vec: dict[int, complex], window: tuple[int, int]) -> np.ndarray:
    lo, hi = window
    out = np.zeros(hi - lo + 1, dtype=complex)
    for n, c in vec.items():
        if lo <= n <= hi:
            out[n - lo] = c
    return out


def _span_residual(target: np.ndarray, columns: list[np.ndarray]) -> float:
    """Backward-relative distance from ``target`` to the span of ``columns``.

    The least-squares misfit is scaled by the size of the representation
    actually used (``norm(target) + norm(A) * norm(coef)``), so a value
    near machine epsilon certifies the inclusion for data this size even
    when the spanning certificate needs large coefficients; a target far
    outside the span stays O(1).
    """
    tn = float(np.linalg.norm(target))
    if tn == 0.0:
        return 0.0
    cols = [c for c in columns if np.linalg.norm(c) > 0.0]
    if not cols:
        return 1.0
    A = np.stack(cols, axis=1)
    A = A / np.linalg.norm(A, axis=0, keepdims=True)
    coef, *_ = np.linalg.lstsq(A, target, rcond=None)
    misfit = float(np.linalg.norm(target - A @ coef))
    scale = tn + float(np.linalg.norm(A)) * float(np.linalg.norm(coef))
    return misfit / scale


def zero_product_experiment_hardy(
    f: ExactSymbol,
    g: ExactSymbol,
    window: tuple[int, int],
    R: float,
    ladder_length: int = 8,
    zero_divisor_floor: float = 1e-6,
) -> HardyZeroProductReport:
    """Probe a symbol pair for a finite-window zero-divisor signature.

    Builds the proof ladder of span inclusions in exact monomial
    coordinates and the interior column norms of the composed sections.
    The verdict is ``Violation`` only when both symbols are nonzero yet
    every safe-interior product column norm falls below
    ``zero_divisor_floor``.
    """
    lo, hi = _check_window(window)
    if f.is_zero() or g.is_zero():
        # a zero factor satisfies the dichotomy outright; no ladder exists
        # because the nonvanishing hypothesis has no top degree to anchor to
        t_f = build_toeplitz_hardy(f, window, R)
        t_g = build_toeplitz_hardy(g, window, R)
        prod = t_f.entries @ t_g.entries
        norms = [float(np.linalg.norm(prod[:, b])) for b in range(prod.shape[1])]
        return HardyZeroProductReport(
            n0=UNCONSTRAINED,
            n0_effective=lo,
            n0_negative=False,
            product_column_norms=norms,
            min_product_column_norm=min(norms),
            top_degree_f=None if f.is_zero() else f.top_degree(),
            top_degree_g=None if g.is_zero() else g.top_degree(),
        )
    N = g.top_degree()
    n0 = find_n0_hardy(g, N, R)
    # the ladder must start far enough above the window floor that every
    # monomial its columns touch has its image column present in the span
    floor_n = lo + g.neg_reach()
    n0_eff = floor_n if n0 == UNCONSTRAINED else max(int(n0), floor_n)
    L = ladder_length
    if n0_eff + N + L > hi:
        raise WindowTooSmallError(
            f"window top {hi} below ladder top {n0_eff + N + L}; "
            f"raise the window or shorten the ladder"
        )

    win = (lo, hi)
    tf_monomial = {m: apply_multiplier_coeffs(f, m, R) for m in range(lo, n0_eff + N + L + 1)}
    base_cols = [
        _coeff_vector(tf_monomial[m], win) for m in range(lo, n0_eff + N)
    ]
    product_cols: list[np.ndarray] = []
    ladder, restricted = [], []
    for l in range(L + 1):
        product_cols.append(
            _coeff_vector(
                apply_multiplier_to_coeffs(
                    f, apply_multiplier_coeffs(g, n0_eff + l, R), R
                ),
                win,
            )
        )
        target = _coeff_vector(tf_monomial[n0_eff + N + l], win)
        ladder.append(_span_residual(target, base_cols + product_cols))
        restricted.append(_span_residual(target, base_cols))

    t_f = build_toeplitz_hardy(f, win, R)
    t_g = build_toeplitz_hardy(g, win, R)
    margin = f.bandwidth() + g.bandwidth()
    if hi - lo + 1 <= 2 * margin:
        raise WindowTooSmallError(
            f"window [{lo}, {hi}] cannot hold interior margin {margin}"
        )
    prod = t_f.entries @ t_g.entries
    norms = [
        float(np.linalg.norm(prod[:, b]))
        for b in range(margin, hi - lo + 1 - margin)
    ]

    sup_f = f.support()
    report = HardyZeroProductReport(
        n0=n0,
        n0_effective=n0_eff,
        n0_negative=(n0 != UNCONSTRAINED and int(n0) < 0),
        ladder_residuals=ladder,
        restricted_ladder_residuals=restricted,
        product_column_norms=norms,
        min_product_column_norm=min(norms),
        k0=sup_f[0] if sup_f else None,
        top_degree_f=f.top_degree(),
        top_degree_g=N,
    )
    if max(norms) < zero_divisor_floor:
        report.verdict = VIOLATION
    return report
