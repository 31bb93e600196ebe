"""Finite sections of multiplication-compress operators on the annulus.

Sections are assembled from the coefficient pairs of a boundary symbol.
Rows and columns refer to the orthonormal families of
:mod:`annulab.geometry`: the power family spans the holomorphic subspace,
the complement family spans its orthogonal complement in boundary L2.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import WindowTooSmallError
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


def _layout(values: np.ndarray, hankel: bool = False) -> np.ndarray:
    """Square Toeplitz or Hankel layout of ``2 size - 1`` coefficients on
    the last axis, one layout per index of the leading axes.

    The Toeplitz layout is ``M[a, b] = values[size - 1 - a + b]``, so with
    ``values[i]`` the coefficient of offset ``size - 1 - i`` the entry
    carries offset ``a - b``; the Hankel layout is ``M[a, b] = values[a + b]``.
    The layout is a read-only strided view of ``values``: no index array
    is formed, and the entries that read one coefficient are one memory
    location.  Callers that write or multiply take a ``.copy()``.
    """
    size, step = (values.shape[-1] + 1) // 2, values.strides[-1]
    win = np.lib.stride_tricks.as_strided(
        values, (*values.shape[:-1], size, size), (*values.strides[:-1], step, step),
        writeable=False,
    )
    return win if hankel else win[..., ::-1, :]


def band_product(A: np.ndarray, B: np.ndarray, a: int, b: int) -> np.ndarray:
    """``A @ B`` for sections, or stacks of sections, whose entries are
    zero more than ``a`` (for ``A``) or ``b`` (for ``B``) off the diagonal.

    Column ``j`` of the product reads only the rows ``k`` of ``B`` within
    ``b`` of ``j``, and those columns of ``A`` hold nothing more than ``a``
    from ``k``.  So the product is formed in blocks of ``2 (a + b) + 1``
    columns, the width of its own band: each block is one matmul of only
    the rows and columns the two bands reach, written into a zero-filled
    result.  When that width covers the window the loop runs a single,
    dense block.  The bands are the symbols' ``bandwidth()``, never read
    off the entries.  The result is ``A @ B`` to rounding, not bit for bit:
    BLAS may group a shorter sum differently.  A stacked block makes the
    matmul of a lone block per matrix, so each matrix of a stack has the
    bits of its lone product.
    """
    m, n, p = A.shape[-2], A.shape[-1], B.shape[-1]
    out = np.zeros((*np.broadcast_shapes(A.shape[:-2], B.shape[:-2]), m, p),
                   dtype=np.result_type(A, B))
    width = 2 * (a + b) + 1
    for j in range(0, p, width):
        k0, k1 = max(j - b, 0), min(j + width + b, n)
        i0, i1 = max(k0 - a, 0), min(k1 + a, m)
        np.matmul(A[..., i0:i1, k0:k1], B[..., k0:k1, j : j + width],
                  out=out[..., i0:i1, j : j + width])
    return out


def _bounded_pairs(fs, window: tuple[int, int], R: float):
    """Weights ``B`` and ``A`` of :func:`basis_weights` over the window, and
    the stacked :func:`_layout` copies of both circles' coefficients of
    each symbol of ``fs`` at the offsets ``hi - lo`` down to ``lo - hi``:
    fresh arrays, weighted and summed in place."""
    lo, hi = _check_window(window)
    B, A = basis_weights(np.arange(lo, hi + 1), R)
    offsets = np.arange(hi - lo, lo - hi - 1, -1)
    C = _read([f.coeffs_C for f in fs], offsets)
    C0 = _read([f.coeffs_C0 for f in fs], offsets)
    return B, A, _layout(C).copy(), _layout(C0).copy()


def build_toeplitz_hardy(
    f: ExactSymbol | Sequence[ExactSymbol], window: tuple[int, int], R: float
) -> np.ndarray:
    """Section of the compression of multiplication by ``f`` to the power family.

    A sequence of symbols gives their sections stacked along a leading
    axis; every entry has the bits of the one-symbol section.

    The entry is ``(fhat_C(j-k) + R^(j+k) fhat_C0(j-k)) / (norm_j norm_k)``
    with ``norm_j = sqrt(1 + R^(2j))``.  It is formed as
    ``T = B Toep(fhat_C) B + A Toep(fhat_C0) A`` with the diagonal weights
    ``B = 1/norm_j`` and ``A = R^j/norm_j`` of :func:`basis_weights`,
    each in [0, 1].  Raising ``R^(j+k)`` and ``norm_j``
    directly overflows once ``R^|j|`` leaves the float range (R = 0.1 at
    window +-160), and the entries turn into ``nan`` or collapse to zero.
    """
    single = isinstance(f, ExactSymbol)
    B, A, T, TC0 = _bounded_pairs([f] if single else f, window, R)
    T *= np.outer(B, B)
    TC0 *= np.outer(A, A)
    np.add(T, TC0, out=T)
    return T[0] if single else T


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
    B, A, H, TC0 = _bounded_pairs([f], window, R)
    H *= np.outer(A, B)
    TC0 *= np.outer(B, A)
    return np.subtract(H[0], TC0[0], out=H[0])


# ---------------------------------------------------------------------------
# quadrature-assembled sections (independent oracle route)


def build_section_quadrature(
    f: ExactSymbol, window: tuple[int, int], geo: AnnulusGeometry
) -> tuple[np.ndarray, np.ndarray]:
    """Assemble both sections entirely from boundary-grid inner products.

    Returns ``(toeplitz, hankel)``: the hardy rows reproduce
    :func:`build_toeplitz_hardy`, the complement rows
    :func:`build_hankel_annulus`.  Used as the independent check of the
    closed-form entries.  Both come from one call of the pairing kernel
    :func:`geometry._pair_on_grid` on the symbol's grid samples, which
    evaluates the hardy columns once per circle and refuses, with
    :class:`AliasingError`, a window whose products would fold on the grid:
    ``(hi - lo)`` plus the symbol's reach must stay below ``m_circle``.
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
    over the side-``side`` sections ``toeplitz`` and ``hankel`` build: the
    section of the product symbol against ``T_phi T_psi + H*_phibar H_psi``.
    Each section is zero more than its symbol's bandwidth off the diagonal,
    so both products are :func:`band_product` calls with the bands
    ``phi.bandwidth()`` and ``psi.bandwidth()``.  The interior keeps their
    sum, the margin, from the last row and column, and from the first ones
    too when ``both_edges``.  Returns ``(residual, margin)``.
    """
    a, b = phi.bandwidth(), psi.bandwidth()
    margin, first = a + b, (a + b if both_edges else 0)
    if side - margin <= first:
        raise WindowTooSmallError(
            f"a section of side {side} has no interior at margin {margin}"
        )
    prod = band_product(toeplitz(phi), toeplitz(psi), a, b)
    prod += band_product(hankel(conjugate_symbol(phi)).conj().T, hankel(psi), a, b)
    delta = np.abs(toeplitz(multiply_symbols(phi, psi)) - prod)
    return float(np.max(delta[first : side - margin, first : side - margin])), margin


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


@dataclass(frozen=True)
class Space:
    """What :func:`_probe` reads of one space: its stacked section builder,
    ``n0(g, N, R, window)``, the first column the top degree ``N`` of ``g``
    leaves unobstructed, and whether the ladder is read through ``T_f``."""

    build: Callable
    n0: Callable
    through_f: bool


def _probe(pairs, window: tuple[int, int], R: float, space: Space) -> list[ZeroProductReport]:
    """The zero-product protocol of both harnesses, in ``space`` over the
    window ``[lo, hi]``, one report per pair ``(f, g)`` of ``pairs``.

    A zero factor satisfies the dichotomy outright, and no ladder exists
    because the nonvanishing hypothesis has no top degree to anchor to, so
    only the column norms of the product of the sections are reported.
    Otherwise the ladder (:func:`_ladder`) starts at the larger of
    ``space.n0`` and ``lo + g.neg_reach()``, the lowest column whose image
    under ``T_g`` stays inside the window, and is read through ``T_f``
    (``S = T_f``, ``P = T_f T_g``) or in the domain of ``T_g`` (``S = I``,
    ``P = T_g``).  The interior product columns keep the margin
    ``f.bandwidth() + g.bandwidth()`` from both window edges.  The verdict
    is ``Inconclusive`` when an interior column norm is not finite, else
    ``Violation`` only when every one falls below ``ZERO_DIVISOR_FLOOR``.

    Every pair's window checks run first, in order, so a refusal names the
    first pair the window cannot serve.  The trials then run as stacks of
    one bandwidth pair ``(f.bandwidth(), g.bandwidth())``: ``space.build``
    takes a list of symbols and returns their sections stacked, and a stack
    holds as many trials as one stacked section fits in ``_STACK_BYTES``
    (at least one).  Per stack, :func:`band_product` forms ``T_f T_g`` in
    column blocks, each one stacked matmul of only the rows and columns
    the two bands reach, and the column norms and each ladder group of one
    ``(first, N)`` take one stacked call.  A stacked call, or block,
    applies per matrix what a one-pair call applies to its matrix, and a
    pair's own bands fix its blocks, so each report has the bits of the
    one-pair call.
    """
    lo, hi = _check_window(window)
    L, size = LADDER_LENGTH, hi - lo + 1
    plans = []
    for f, g in pairs:
        if f.is_zero() or g.is_zero():
            plans.append(None)
            continue
        N, first = g.top_degree(), lo + g.neg_reach()
        n0 = space.n0(g, N, R, (lo, hi))
        n0_eff = first if n0 == UNCONSTRAINED else max(int(n0), first)
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
        plans.append((n0, n0_eff, N, slice(margin, size - margin)))

    # a stack holds pairs of one bandwidth pair, so band_product splits
    # each of its products into the blocks of the pair's own call
    by_bands: dict[tuple[int, int], list[int]] = {}
    for i, (f, g) in enumerate(pairs):
        by_bands.setdefault((f.bandwidth(), g.bandwidth()), []).append(i)
    step = max(1, _STACK_BYTES // (16 * size * size))
    stacks = [(bands, members[at : at + step])
              for bands, members in by_bands.items() for at in range(0, len(members), step)]
    reports: list = [None] * len(pairs)
    for bands, idx in stacks:
        chunk, plan = [pairs[i] for i in idx], [plans[i] for i in idx]
        tf = space.build([f for f, _ in chunk], (lo, hi), R)
        tg = space.build([g for _, g in chunk], (lo, hi), R)
        prod = band_product(tf, tg, *bands)
        groups: dict[tuple[int, int], list[int]] = {}
        for i, p in enumerate(plan):
            if p is not None:
                groups.setdefault((p[1] - lo, p[2]), []).append(i)
        ladders = {}
        for (first, N), t in groups.items():
            cut = first + max(N, 0) + L + 1  # the columns _ladder reads
            S = (tf[t, :, :cut] if space.through_f
                 else np.broadcast_to(np.eye(size)[:, :cut], (len(t), size, cut)))
            P = (prod if space.through_f else tg)[t, :, :cut]
            residuals, pivots, leaks = _ladder(S, P, tg[t, :, :cut], first, N, L)
            ladders.update(zip(t, zip(residuals, pivots, leaks)))
        # the norms take two temporaries the size of prod: free the factors
        # first, and prod before the next chunk's builds
        del tf, tg
        norms = np.linalg.norm(prod, axis=-2)
        del prod
        for i, ((f, g), p) in enumerate(zip(chunk, plan)):
            if p is None:
                N = None if g.is_zero() else g.top_degree()
                reports[idx[i]] = ZeroProductReport(UNCONSTRAINED, lo, N, norms[i].tolist())
                continue
            n0, n0_eff, N, interior = p
            col = norms[i, interior].tolist()
            if not np.all(np.isfinite(col)):
                verdict = INCONCLUSIVE
            else:
                verdict = VIOLATION if np.max(col) < ZERO_DIVISOR_FLOOR else CONSISTENT
            ladder, pivot, leak = ladders[i]
            reports[idx[i]] = ZeroProductReport(
                n0, n0_eff, N, col, ladder.tolist(), float(pivot), float(leak), verdict
            )
    return reports


#: looked up at each call, so a module attribute rebound by a tracer is called
HARDY = Space(lambda fs, w, R: build_toeplitz_hardy(fs, w, R),
              lambda g, N, R, w: find_n0_hardy(g, N, R), through_f=True)


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
    return _probe(pairs, window, R, HARDY)
