"""Reduction of annulus complement-side sections to disc sections.

The inner-circle restriction of a boundary symbol, transplanted to the
unit circle by negating the angle, drives a classical disc Hankel matrix.
This module assembles both sides of that correspondence from independent
routes, exposes the conjugate-basis coefficients and the compact diagonal
transfer they induce, and turns singular-value tails of disc sections
into a decay verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import AnnulusGeometry, basis_weights, complement_basis_eval, hardy_basis_eval
from .hardy import INCONCLUSIVE, _layout, _semicommutator_residual
from .symbols import (
    ExactCircle,
    ExactSymbol,
    _analyze,
    _flip,
    fourier_pair,
    pullback_symbols,
    sample_symbol,
)

DECAY_OBSERVED = "DecayObserved"
NO_DECAY = "NoDecay"

#: singular values above this threshold count toward the tail index
TAIL_EPSILON = 0.5
#: tail growth by this factor across the size sweep signals no decay
NO_DECAY_GROWTH = 2.0
#: a growing tail must reach at least this count before it signals no decay
NO_DECAY_MIN_TAIL = 4


# ---------------------------------------------------------------------------
# disc-space sections


def build_disc_toeplitz(phi: ExactCircle, size: int) -> np.ndarray:
    """Size-by-size section with entries ``phihat(j - k)`` on the disc basis."""
    if size < 1:
        raise ValueError("section size must be positive")
    return _layout(phi.hat(np.arange(size - 1, -size, -1))).copy()


def disc_hankel_window(phi: ExactCircle, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The coefficients ``phihat(-1), ..., phihat(-(2 size - 1))`` and the
    size-by-size Hankel section over them, entry ``(j, k)`` being
    ``phihat(-(j+1) - k)``: a read-only strided view, so the entries of one
    antidiagonal are one memory location.  The one table read of
    :func:`build_disc_hankel` and of :func:`decay_profile_for`."""
    if size < 1:
        raise ValueError("section size must be positive")
    hats = phi.hat(np.arange(-1, -2 * size, -1))
    return hats, _layout(hats, hankel=True)


def build_disc_hankel(phi: ExactCircle, size: int) -> np.ndarray:
    """Section with entries ``phihat(-(j+1) - k)``; row ``j`` is the
    coefficient on ``z^-(j+1)``.  A contiguous copy of
    :func:`disc_hankel_window`, for callers that multiply it."""
    return disc_hankel_window(phi, size)[1].copy()


def semicommutator_residual_disc(
    phi: ExactCircle, psi: ExactCircle, size: int
) -> tuple[float, int]:
    """Interior deviation of the disc product identity with Hankel correction,
    by :func:`~annulab.hardy._semicommutator_residual` over disc sections of
    side ``size``: degree 0 is a true edge of the disc, so the interior
    keeps the margin from the last row and column only."""
    return _semicommutator_residual(
        phi, psi, lambda s: build_disc_toeplitz(s, size),
        lambda s: build_disc_hankel(s, size), size, both_edges=False,
    )


# ---------------------------------------------------------------------------
# conjugate-basis bridge and the diagonal transfer


def conjugate_basis_coeffs(n, R: float):
    """Coefficients expanding the conjugated power basis function, at the
    integer ``n`` (scalar or array).

    The conjugate of the n-th power basis function equals
    ``alpha * e_(-n) + beta * f_(-n)`` with
    ``alpha = 2 R^n / (1 + R^(2n))`` and
    ``beta = (1 - R^(2n)) / (1 + R^(2n))``; the pair satisfies
    ``alpha^2 + beta^2 = 1`` identically.  Both are written through
    ``R^|n|`` so large negative indices stay finite: alpha is even, beta
    odd.  ``np.float_power`` calls the C ``pow`` per element, the bits of
    Python's scalar ``**``; ``np.power``'s vector loop, or squaring
    ``R^|n|``, can round one ulp away.
    """
    p, w = np.float_power(R, np.abs(n)), np.float_power(R, 2 * np.abs(n))
    return 2.0 * p / (1.0 + w), np.sign(n) * ((1.0 - w) / (1.0 + w))


def t_diag(n, R: float):
    """Diagonal transfer weight ``2 R^n / (1 - R^(2n))``, odd in the integer
    ``n`` (scalar or array) and zero at ``n = 0``.

    Maps the complement function of index ``-n`` to the power function of
    index ``-n`` with this weight; the value decays like ``2 R^|n|`` in
    both directions, so the diagonal operator is compact.  The ``n = 0``
    weight is set to zero: the transfer is only ever applied to components
    whose ``n = 0`` coordinate vanishes (the beta coefficient above is
    zero there), so the removable case never contributes.
    """
    p, w = np.float_power(R, np.abs(n)), np.float_power(R, 2 * np.abs(n))
    return np.sign(n) * 2.0 * p / np.where(n == 0, 1.0, 1.0 - w)


def conjugate_reflection_residual(n: int, geo: AnnulusGeometry) -> float:
    """Pointwise deviation of the conjugate-basis expansion on both circles."""
    t = geo.angles()
    alpha, beta = conjugate_basis_coeffs(n, geo.R)
    dev = []
    for comp in ("C", "C0"):
        lhs = np.conj(hardy_basis_eval(n, comp, t, geo.R))
        rhs = alpha * hardy_basis_eval(-n, comp, t, geo.R) + beta * complement_basis_eval(
            -n, comp, t, geo.R
        )
        dev.append(np.abs(lhs - rhs))
    # one np.max over both circles keeps a NaN, which the built-in max drops
    return float(np.max(dev))


# ---------------------------------------------------------------------------
# the transfer diagram, assembled from quadrature on both legs


def assemble_transfer_unitaries(size: int, geo: AnnulusGeometry):
    """Grid-quadrature matrices of the two relabeling unitaries.

    Both maps act by composing with the angle-negating transplant between
    the inner circle and the unit circle; on the chosen orthonormal bases
    they are numerically identity matrices, and the quadrature assembly
    certifies that.  Returns ``(U0, P0)`` where ``U0`` couples the
    complement-side families and ``P0`` the holomorphic-side families.
    Each entry is the trapezoid sum of the transplanted column's grid
    samples against the row, computed with one FFT per column and a
    gather at the row indices; only grid samples are read.
    """
    ks = np.arange(size)
    # columns exp(-i k t) = conj(e[k]) meet rows exp(-i j t); e[k+1] meet exp(i (j+1) t)
    e = np.exp(1j * np.multiply.outer(np.arange(size + 1), geo.angles()))
    P0 = _analyze(_flip(e[:size].conj()), ks).T
    U0 = _analyze(_flip(e[1:]), -(ks + 1)).T
    return U0, P0


def inner_hankel_quadrature(
    phi: ExactSymbol, size: int, geo: AnnulusGeometry
) -> np.ndarray:
    """Inner-circle Hankel compression assembled on the inner angular grid.

    Column ``k`` holds the coefficients of the product of the symbol with
    the k-th inner holomorphic basis function against the inner
    anti-holomorphic family.  Entry ``(j, k)`` is the trapezoid sum of the
    symbol's inner-circle grid samples (the only values read) at index
    ``j + 1 + k``, computed with one FFT and a gather.
    """
    vals = sample_symbol(phi, geo).on_C0
    ks = np.arange(size)
    return _analyze(vals, np.add.outer(ks + 1, ks))


def diagram_residual(phi: ExactSymbol, geo: AnnulusGeometry, U0, P0) -> float:
    """Max deviation between the transplanted inner Hankel and its disc form.

    The left route assembles the inner-circle Hankel compression by grid
    quadrature and conjugates it with the relabeling unitaries ``U0, P0`` of
    :func:`assemble_transfer_unitaries`; the right route builds the disc
    Hankel of the transplanted inner restriction from exact coefficients.
    The deviation certifies the unitary equivalence at their size.
    """
    size = len(P0)
    H = inner_hankel_quadrature(phi, size, geo)
    left = U0 @ H @ np.linalg.inv(P0)
    _, phi_inner = pullback_symbols(phi)
    right = build_disc_hankel(phi_inner, size)
    return float(np.max(np.abs(left - right)))


def split_relation_residual(
    phi: ExactSymbol, size: int, geo: AnnulusGeometry
) -> tuple[float, float]:
    """Deviations of the two split identities for the inner-circle compression.

    For each inner holomorphic basis column the symbol product is formed on
    the inner grid and its anti-holomorphic part is extracted.  The first
    deviation compares the complement-family coordinates of that part
    (quadrature route) against the closed-form complement-side entries of
    multiplication (coefficient route); the comparison lives on the
    complement rows the anti-holomorphic family reaches.  The second
    deviation checks that the holomorphic-family coordinates obtained
    through the conjugate-basis expansion equal the diagonal transfer
    applied to the complement-family coordinates from the same expansion.
    Both projections are trapezoid sums over grid samples (of the symbol at
    index ``k + j``, then of the resynthesized part), each computed with
    one FFT and a gather, and the part is resynthesized by one inverse FFT
    per row, so no array outgrows ``size x m_circle``; only grid samples of
    the symbol are read, and :func:`_analyze` refuses an index ``k + j`` at
    or past ``m_circle / 2``.
    """
    R = geo.R
    vals = sample_symbol(phi, geo).on_C0
    js = np.arange(1, size + ExactCircle(phi.coeffs_C0).bandwidth() + 1)
    offsets = np.add.outer(np.arange(size), js)
    spectrum = np.zeros((size, geo.m_circle), dtype=complex)
    spectrum[:, js] = _analyze(vals, offsets)
    y2 = np.fft.ifft(spectrum) * geo.m_circle
    # complement-family coordinates of the anti-holomorphic part, quadrature route
    proj = _analyze(y2, js)
    B, _ = basis_weights(js, R)
    lhs = -proj * B
    rhs = -fourier_pair(phi, offsets)[1] * B
    res1 = float(np.max(np.abs(lhs - rhs)))
    # conjugate-basis expansion: holomorphic side vs transfer of complement side
    alpha, beta = conjugate_basis_coeffs(-js, R)
    gamma = B * proj
    res2 = float(np.max(np.abs(gamma * alpha - t_diag(-js, R) * (gamma * beta))))
    return res1, res2


# ---------------------------------------------------------------------------
# singular-value decay bookkeeping


@dataclass
class DecayProfile:
    """Singular values of one pullback's disc Hankel sections across sizes,
    with the two size-independent bounds on their tail indices: the live
    reach ``rank_bound`` (Kronecker) and the l1 tail index ``l1_tail_k``,
    and the count ``certified_tail`` that the tail indices may not exceed
    once rounding is allowed for (see :func:`l1_tail_certificate`)."""

    pullback: str
    sizes: list[int]
    epsilon: float
    singular_values: dict[int, list[float]] = field(default_factory=dict)
    tail_indices: dict[int, int] = field(default_factory=dict)
    rank_bound: int = 0
    l1_tail_k: int = 0
    certified_tail: int = 0

    def tail_fraction(self, size: int) -> float:
        return self.tail_indices[size] / size


def tail_index(sigmas, epsilon: float) -> int:
    return int(np.sum(np.asarray(sigmas) > epsilon))


def l1_tail_certificate(
    hats: np.ndarray, epsilon: float, reach: int
) -> tuple[int, int]:
    """``(k*, certified)`` for the Hankel sections read from ``hats``, where
    ``hats[i]`` is ``phihat(-(i+1))`` and ``reach`` is the live reach.

    With ``T_k = sum_{n>k} |phihat(-n)|`` over the ``N`` coefficients read,
    ``k* = min{k : T_k <= epsilon}``.  Every section ``H_s`` that reads no
    more than these coefficients is ``sum_n phihat(-n) J_n`` with ``J_n``
    the 0/1 antidiagonal ``j + k + 1 = n``, of norm at most 1.  The terms
    ``n <= k`` live in the leading ``k x k`` block (rank at most ``k``), so
    by Weyl ``sigma_(k+1)(H_s) <= T_k``: in exact arithmetic no size's tail
    index exceeds ``k*``.

    The rounding slack is ``delta = 2 N eps T_0`` (``eps`` the machine
    epsilon, ``2u``).  Summing ``N`` nonnegative moduli, each within ``2u``
    of exact, leaves ``T_k`` within ``(N + 1) u T_0``.  The decomposition
    is backward stable: the computed singular values (or eigenvalue
    moduli, a 1-Lipschitz map after sorting) are exact for ``H + E`` with
    ``||E|| <= p(L) u ||H||``, and ``||H|| <= T_0`` by the sum above; the
    remaining ``(3N - 1) u T_0`` covers ``p(L)`` up to ``6L - 4`` for the
    ``L x L`` live block (``N >= 2L - 1``), above the linear growth of a
    Householder reduction.  So a computed tail index exceeds no ``k`` with
    computed ``T_k + delta <= epsilon``, and ``certified`` is the least such
    ``k``.  Where none qualifies it is ``reach``: only the live block is
    decomposed, so a tail index never exceeds it.
    """
    tails = np.append(np.cumsum(np.abs(hats)[::-1])[::-1], 0.0)
    k_star = int(np.argmax(tails <= epsilon))
    slack = 2 * hats.size * np.finfo(float).eps * tails[0]
    ok = np.flatnonzero(tails + slack <= epsilon)
    return k_star, int(ok[0]) if ok.size else reach


def hankel_singular_values(block: np.ndarray) -> np.ndarray:
    """Descending singular values of a square disc Hankel block.

    A complex block takes the SVD.  A real block is real symmetric, since
    entries ``(j, k)`` and ``(k, j)`` of the :func:`disc_hankel_window`
    view are one memory location, ``phihat(-(j+1) - k)``; its singular
    values are the moduli of its eigenvalues, which ``eigvalsh`` computes
    from one triangle by a real tridiagonal reduction, several times faster
    than the SVD.  Both copy the block into their own LAPACK buffer, so a
    strided view gives the bits of its contiguous copy.
    """
    if np.isrealobj(block):
        return np.sort(np.abs(np.linalg.eigvalsh(block)))[::-1]
    return np.linalg.svd(block, compute_uv=False)


def decay_profile_for(phi_circle: ExactCircle, sizes, pullback: str) -> DecayProfile:
    """Singular values of the disc Hankel sections of ``phi_circle``, one
    set per size, each decomposed only on its live corner.

    The entry ``(j, k)`` is ``phihat(-(j+1) - k)``, so it depends only on
    ``j + k``.  Let the live reach ``r`` be one plus the position of the
    last nonzero among ``phihat(-1), ..., phihat(-(2 max(sizes) - 1))``,
    the coefficients the largest section reads.  Every entry with
    ``j + k >= r`` is then exactly zero, and the size-``s`` section is
    ``[[B, 0], [0, 0]]`` with ``B`` its leading ``L x L`` block,
    ``L = min(s, r)``.  Its singular values are those of ``B`` followed by
    ``s - L`` zeros, so only ``B`` is decomposed and the zeros are exact;
    an empty table (``L = 0``) is not decomposed at all.  Since an entry
    depends only on ``j + k``, the blocks of all sizes are the leading
    blocks of the one read-only :func:`disc_hankel_window` view over the
    coefficients read, so the sweep builds no section of its own: its
    largest dense array is LAPACK's copy of the live corner.

    When no coefficient read has a nonzero imaginary part (an exact test),
    the blocks are the view's real part, decomposed as real symmetric
    matrices by :func:`hankel_singular_values`; they agree with the SVD to
    rounding.
    A complex table takes the SVD: where ``L = s`` (a table reaching the
    whole section) it sees the same matrix as a full-section SVD and the
    output is byte-identical to it, and where ``L < s`` the two agree in
    exact arithmetic and differ only by rounding.
    """
    sizes = sorted(int(s) for s in sizes)
    if not sizes:
        raise ValueError("need at least one section size")
    if sizes[0] < 1:
        raise ValueError("section size must be positive")
    profile = DecayProfile(pullback=pullback, sizes=sizes, epsilon=TAIL_EPSILON)
    hats, window = disc_hankel_window(phi_circle, sizes[-1])
    live = np.flatnonzero(hats)
    reach = int(live[-1]) + 1 if live.size else 0
    profile.rank_bound = reach
    profile.l1_tail_k, profile.certified_tail = l1_tail_certificate(
        hats, TAIL_EPSILON, reach
    )
    block = window if hats.imag.any() else window.real
    for s in sizes:
        L = min(s, reach)
        sig = np.zeros(s)
        if L:
            sig[:L] = hankel_singular_values(block[:L, :L])
        profile.tail_indices[s] = tail_index(sig, TAIL_EPSILON)
        profile.singular_values[s] = sig.tolist()
    return profile


def decay_basis(profiles: list[DecayProfile]) -> dict:
    """The clause of the frozen verdict rule that decides, with the tail
    indices it read per pullback (in size order).

    A sweep signals growth when the largest-size tail index is at least
    ``NO_DECAY_GROWTH`` times the smallest-size one and reaches
    ``NO_DECAY_MIN_TAIL``; any growing sweep decides ``"growth"``.  A sweep
    decays when its tail indices never increase and the tail fraction
    shrinks to a smaller value (or the tail is empty); all sweeps decaying
    decides ``"decay"``.  Everything else is ``"neither"``.
    """
    grows, decays, read = [], [], {}
    for p in profiles:
        tails = read[p.pullback] = [p.tail_indices[s] for s in p.sizes]
        first, last = tails[0], tails[-1]
        grows.append(last >= NO_DECAY_GROWTH * first and last >= NO_DECAY_MIN_TAIL)
        nonincreasing = all(a >= b for a, b in zip(tails, tails[1:]))
        shrinks = last == 0 or p.tail_fraction(p.sizes[-1]) < p.tail_fraction(p.sizes[0])
        decays.append(nonincreasing and shrinks)
    clause = "growth" if any(grows) else "decay" if all(decays) else "neither"
    return {"clause": clause, "tails": read}


def classify_decay(profiles: list[DecayProfile]) -> str:
    """Frozen verdict rule over one or more size sweeps: ``NoDecay`` on
    growth, ``DecayObserved`` on decay, else ``Inconclusive``
    (:func:`decay_basis` gives the clause)."""
    clause = decay_basis(profiles)["clause"]
    return {"growth": NO_DECAY, "decay": DECAY_OBSERVED}.get(clause, INCONCLUSIVE)


def hankel_compactness_indicator(
    phi: ExactSymbol, sizes
) -> tuple[str, list[DecayProfile]]:
    """Decay verdict for the disc Hankel sections of both pullbacks.

    This is a finite-size indicator, not a decision procedure: it reports
    how the count of singular values above ``TAIL_EPSILON`` moves with the
    section size for the outer and (transplanted) inner restrictions.
    """
    phi_C, phi_C0 = pullback_symbols(phi)
    profiles = [
        decay_profile_for(phi_C, sizes, "C"),
        decay_profile_for(phi_C0, sizes, "C0"),
    ]
    return classify_decay(profiles), profiles
