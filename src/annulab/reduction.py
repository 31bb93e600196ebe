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

from .geometry import AnnulusGeometry, complement_basis_eval, hardy_basis_eval
from .hardy import CONSISTENT, VIOLATION, TruncatedOperator, _gather, build_toeplitz_hardy
from .hardy import semicommutator_residual_annulus
from .symbols import (
    BoundarySymbol,
    CircleSymbol,
    ExactCircle,
    ExactSymbol,
    _convolve,
    conjugate_symbol,
    fourier_pair,
    pullback_symbols,
    sample_symbol,
)

DECAY_OBSERVED = "DecayObserved"
NO_DECAY = "NoDecay"
INCONCLUSIVE = "Inconclusive"

#: singular values above this threshold count toward the tail index
TAIL_EPSILON = 0.5
#: tail growth by this factor across the size sweep signals no decay
NO_DECAY_GROWTH = 2.0
#: a growing tail must reach at least this count before it signals no decay
NO_DECAY_MIN_TAIL = 4


# ---------------------------------------------------------------------------
# disc-space sections


def build_disc_toeplitz(phi: CircleSymbol, size: int) -> TruncatedOperator:
    """Size-by-size section with entries ``phihat(j - k)`` on the disc basis."""
    if size < 1:
        raise ValueError("section size must be positive")
    hats = [phi.hat(off) for off in range(size - 1, -size, -1)]
    ent = _gather(np.array(hats, dtype=complex))
    return TruncatedOperator(ent, (0, size - 1), (0, size - 1), "disc-hardy", "disc-hardy")


def _hankel_hats(phi: CircleSymbol, size: int) -> np.ndarray:
    """``phihat(-1), ..., phihat(-(2 size - 1))``: every coefficient a
    size-``size`` disc Hankel section reads, in Hankel gather order."""
    return np.array([phi.hat(idx) for idx in range(-1, -2 * size, -1)], dtype=complex)


def build_disc_hankel(phi: CircleSymbol, size: int) -> TruncatedOperator:
    """Section with entries ``phihat(-(j+1) - k)``; row ``j`` is the
    coefficient on ``z^-(j+1)``."""
    if size < 1:
        raise ValueError("section size must be positive")
    ent = _gather(_hankel_hats(phi, size), hankel=True)
    return TruncatedOperator(
        ent, (0, size - 1), (0, size - 1), "disc-complement", "disc-hardy"
    )


def semicommutator_residual_disc(
    phi: ExactCircle, psi: ExactCircle, size: int
) -> tuple[float, int]:
    """Interior deviation of the disc product identity with Hankel correction."""
    margin = phi.bandwidth() + psi.bandwidth()
    if size <= margin:
        raise ValueError(f"section size {size} must exceed bandwidth sum {margin}")
    t_prod = build_disc_toeplitz(ExactCircle(_convolve(phi.coeffs, psi.coeffs)), size)
    combined = (
        build_disc_toeplitz(phi, size).entries @ build_disc_toeplitz(psi, size).entries
        + build_disc_hankel(conjugate_symbol(phi), size).entries.conj().T
        @ build_disc_hankel(psi, size).entries
    )
    delta = np.abs(t_prod.entries - combined)
    sl = slice(0, size - margin)
    return float(np.max(delta[sl, sl])), margin


# ---------------------------------------------------------------------------
# conjugate-basis bridge and the diagonal transfer


def conjugate_basis_coeffs(n: int, R: float) -> tuple[float, float]:
    """Coefficients expanding the conjugated power basis function.

    The conjugate of the n-th power basis function equals
    ``alpha * e_(-n) + beta * f_(-n)`` with
    ``alpha = 2 R^n / (1 + R^(2n))`` and
    ``beta = (1 - R^(2n)) / (1 + R^(2n))``; the pair satisfies
    ``alpha^2 + beta^2 = 1`` identically.
    """
    if n < 0:
        # rewrite through R^|n| so large negative indices stay finite
        w = R ** (-2 * n)
        return 2.0 * R ** (-n) / (1.0 + w), (w - 1.0) / (w + 1.0)
    w = R ** (2 * n)
    return 2.0 * R**n / (1.0 + w), (1.0 - w) / (1.0 + w)


def t_diag(n: int, R: float) -> float:
    """Diagonal transfer weight ``2 R^n / (1 - R^(2n))`` (zero at ``n = 0``).

    Maps the complement function of index ``-n`` to the power function of
    index ``-n`` with this weight; the value decays like ``2 R^|n|`` in
    both directions, so the diagonal operator is compact.  The ``n = 0``
    weight is set to zero: the transfer is only ever applied to components
    whose ``n = 0`` coordinate vanishes (the beta coefficient above is
    zero there), so the removable case never contributes.
    """
    if n == 0:
        return 0.0
    if n < 0:
        return -2.0 * R ** (-n) / (1.0 - R ** (-2 * n))
    return 2.0 * R**n / (1.0 - R ** (2 * n))


def conjugate_reflection_residual(n: int, geo: AnnulusGeometry) -> float:
    """Pointwise deviation of the conjugate-basis expansion on both circles."""
    t = geo.angles()
    alpha, beta = conjugate_basis_coeffs(n, geo.R)
    worst = 0.0
    for comp in ("C", "C0"):
        lhs = np.conj(hardy_basis_eval(n, comp, t, geo.R))
        rhs = alpha * hardy_basis_eval(-n, comp, t, geo.R) + beta * complement_basis_eval(
            -n, comp, t, geo.R
        )
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


# ---------------------------------------------------------------------------
# the transfer diagram, assembled from quadrature on both legs


def _c0_band_reach(phi: BoundarySymbol, geo: AnnulusGeometry) -> int:
    if isinstance(phi, ExactSymbol):
        live = [abs(n) for n, c in phi.coeffs_C0.items() if c != 0.0]
        return max(live, default=0)
    return geo.m_circle // 4


def assemble_transfer_unitaries(size: int, geo: AnnulusGeometry):
    """Grid-quadrature matrices of the two relabeling unitaries.

    Both maps act by composing with the angle-negating transplant between
    the inner circle and the unit circle; on the chosen orthonormal bases
    they are numerically identity matrices, and the quadrature assembly
    certifies that.  Returns ``(U0, P0)`` where ``U0`` couples the
    complement-side families and ``P0`` the holomorphic-side families.
    """
    t = geo.angles()
    m = geo.m_circle

    def compose_flip(values: np.ndarray) -> np.ndarray:
        return np.concatenate((values[:1], values[:0:-1]))

    U0 = np.zeros((size, size), dtype=complex)
    P0 = np.zeros((size, size), dtype=complex)
    for col in range(size):
        transplanted = compose_flip(np.exp(-1j * col * t))
        neg_transplanted = compose_flip(np.exp(1j * (col + 1) * t))
        for row in range(size):
            P0[row, col] = np.mean(transplanted * np.exp(-1j * row * t))
            U0[row, col] = np.mean(neg_transplanted * np.exp(1j * (row + 1) * t))
    return U0, P0


def inner_hankel_quadrature(
    phi: BoundarySymbol, size: int, geo: AnnulusGeometry
) -> np.ndarray:
    """Inner-circle Hankel compression assembled on the inner angular grid.

    Column ``k`` holds the coefficients of the product of the symbol with
    the k-th inner holomorphic basis function against the inner
    anti-holomorphic family; only the symbol's inner-circle values enter.
    """
    t = geo.angles()
    vals = sample_symbol(phi, geo).on_C0
    H = np.zeros((size, size), dtype=complex)
    for k in range(size):
        prod = vals * np.exp(-1j * k * t)
        for j in range(size):
            H[j, k] = np.mean(prod * np.exp(-1j * (j + 1) * t))
    return H


def diagram_residual(phi: BoundarySymbol, size: int, geo: AnnulusGeometry) -> float:
    """Max deviation between the transplanted inner Hankel and its disc form.

    The left route assembles the inner-circle Hankel compression and the
    two relabeling unitaries by grid quadrature, then conjugates; the
    right route builds the disc Hankel of the transplanted inner
    restriction from exact coefficients.  The deviation certifies the
    unitary equivalence at this truncation.
    """
    reach = _c0_band_reach(phi, geo)
    if 2 * size + reach >= geo.m_circle // 2:
        raise ValueError(
            f"size {size} with band reach {reach} is not resolved by m_circle={geo.m_circle}"
        )
    U0, P0 = assemble_transfer_unitaries(size, geo)
    H = inner_hankel_quadrature(phi, size, geo)
    left = U0 @ H @ np.linalg.inv(P0)
    _, phi_inner = pullback_symbols(phi)
    right = build_disc_hankel(phi_inner, size).entries
    return float(np.max(np.abs(left - right)))


def split_relation_residual(
    phi: BoundarySymbol, size: int, geo: AnnulusGeometry
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
    """
    R = geo.R
    t = geo.angles()
    vals = sample_symbol(phi, geo).on_C0
    reach = _c0_band_reach(phi, geo)
    J = size + reach
    if 2 * J >= geo.m_circle // 2:
        raise ValueError(
            f"size {size} with band reach {reach} is not resolved by m_circle={geo.m_circle}"
        )
    res1 = 0.0
    res2 = 0.0
    js = np.arange(1, J + 1)
    norm_j = np.sqrt(1.0 + R ** (2.0 * js))
    alpha = np.array([conjugate_basis_coeffs(-j, R)[0] for j in js])
    beta = np.array([conjugate_basis_coeffs(-j, R)[1] for j in js])
    tvals = np.array([t_diag(-j, R) for j in js])
    for k in range(size):
        u = vals * np.exp(-1j * k * t)
        c = np.array([np.mean(u * np.exp(-1j * j * t)) for j in js])
        y2 = np.exp(1j * np.outer(t, js)) @ c
        # complement-family coordinates of the anti-holomorphic part, quadrature route
        lhs = np.array(
            [-np.mean(y2 * np.exp(-1j * j * t)) / nj for j, nj in zip(js, norm_j)]
        )
        rhs = np.array(
            [-fourier_pair(phi, k + j)[1] / nj for j, nj in zip(js, norm_j)]
        )
        res1 = max(res1, float(np.max(np.abs(lhs - rhs))))
        # conjugate-basis expansion: holomorphic side vs transfer of complement side
        gamma = (1.0 / np.sqrt(1.0 + R ** (2.0 * js))) * np.array(
            [np.mean(y2 * np.exp(-1j * j * t)) for j in js]
        )
        res2 = max(res2, float(np.max(np.abs(gamma * alpha - tvals * (gamma * beta)))))
    return res1, res2


# ---------------------------------------------------------------------------
# singular-value decay bookkeeping


@dataclass
class DecayProfile:
    """Singular values of one pullback's disc Hankel sections across sizes."""

    pullback: str
    sizes: list[int]
    epsilon: float
    singular_values: dict[int, list[float]] = field(default_factory=dict)
    tail_indices: dict[int, int] = field(default_factory=dict)

    def tail_fraction(self, size: int) -> float:
        return self.tail_indices[size] / size


def tail_index(sigmas, epsilon: float) -> int:
    return int(np.sum(np.asarray(sigmas) > epsilon))


def decay_profile_for(
    phi_circle: CircleSymbol,
    sizes,
    pullback: str,
    epsilon: float = TAIL_EPSILON,
    top: int | None = None,
) -> DecayProfile:
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
    an empty table (``L = 0``) takes no SVD at all.  Since an entry depends
    only on ``j + k``, the blocks of all sizes are the leading blocks of
    one section built at the largest ``L``.

    Where ``L = s`` (a table reaching the whole section, or a sampled
    circle) the SVD sees the same matrix as a full-section SVD, and the
    output is byte-identical to it.  Where ``L < s`` the two agree in exact
    arithmetic and differ only by rounding.
    """
    sizes = sorted(int(s) for s in sizes)
    if not sizes:
        raise ValueError("need at least one section size")
    if sizes[0] < 1:
        raise ValueError("section size must be positive")
    profile = DecayProfile(pullback=pullback, sizes=sizes, epsilon=epsilon)
    hats = _hankel_hats(phi_circle, sizes[-1])
    live = np.flatnonzero(hats)
    reach = int(live[-1]) + 1 if live.size else 0
    corner = min(sizes[-1], reach)
    block = build_disc_hankel(phi_circle, corner).entries if corner else None
    for s in sizes:
        L = min(s, reach)
        sig = np.zeros(s)
        if L:
            sig[:L] = np.linalg.svd(block[:L, :L], compute_uv=False)
        profile.tail_indices[s] = tail_index(sig, epsilon)
        keep = sig if top is None else sig[: min(top, len(sig))]
        profile.singular_values[s] = [float(x) for x in keep]
    return profile


def classify_decay(profiles: list[DecayProfile]) -> str:
    """Frozen verdict rule over one or more size sweeps.

    A sweep signals growth when the largest-size tail index is at least
    ``NO_DECAY_GROWTH`` times the smallest-size one and reaches
    ``NO_DECAY_MIN_TAIL``; any growing sweep yields ``NoDecay``.  A sweep
    decays when its tail indices never increase and the tail fraction
    shrinks to a smaller value (or the tail is empty); all sweeps decaying
    yields ``DecayObserved``.  Everything else is ``Inconclusive``.
    """
    grows, decays = [], []
    for p in profiles:
        tails = [p.tail_indices[s] for s in p.sizes]
        first, last = tails[0], tails[-1]
        grows.append(last >= NO_DECAY_GROWTH * first and last >= NO_DECAY_MIN_TAIL)
        nonincreasing = all(a >= b for a, b in zip(tails, tails[1:]))
        shrinks = last == 0 or p.tail_fraction(p.sizes[-1]) < p.tail_fraction(p.sizes[0])
        decays.append(nonincreasing and shrinks)
    if any(grows):
        return NO_DECAY
    if all(decays):
        return DECAY_OBSERVED
    return INCONCLUSIVE


def hankel_compactness_indicator(
    phi: BoundarySymbol,
    sizes,
    epsilon: float = TAIL_EPSILON,
    top: int | None = None,
) -> tuple[str, list[DecayProfile]]:
    """Decay verdict for the disc Hankel sections of both pullbacks.

    This is a finite-size indicator, not a decision procedure: it reports
    how the count of singular values above ``epsilon`` moves with the
    section size for the outer and (transplanted) inner restrictions.
    """
    phi_C, phi_C0 = pullback_symbols(phi)
    profiles = [
        decay_profile_for(phi_C, sizes, "C", epsilon, top),
        decay_profile_for(phi_C0, sizes, "C0", epsilon, top),
    ]
    return classify_decay(profiles), profiles


# ---------------------------------------------------------------------------
# zero-product probe under a compact complement side


@dataclass
class ReducedZeroProductReport:
    """Outcome of the product probe run under the decay precondition."""

    indicator_psi: str
    indicator_phibar: str
    identity_residual: float
    margin: int
    product_column_norms: list[float] = field(default_factory=list)
    min_product_column_norm: float = float("nan")
    verdict: str = "ConsistentWithTheorem"


def zero_product_experiment_reduced(
    phi: ExactSymbol,
    psi: ExactSymbol,
    window: tuple[int, int],
    R: float,
    indicator_sizes=(32, 64, 128),
    zero_divisor_floor: float = 1e-6,
) -> ReducedZeroProductReport:
    """Probe a pair whose complement sides are compact for a zero product.

    Requires the decay indicator to accept either the second symbol or the
    conjugate of the first (both are checked and reported).  Assembles the
    three-term product identity on the annulus window and the interior
    product column norms; the verdict mirrors the band-limited harness.
    """
    if phi.is_zero() or psi.is_zero():
        # with a zero factor the conclusion holds trivially and there is
        # no compactness hypothesis left to check
        lo, hi = window
        prod = (
            build_toeplitz_hardy(phi, window, R).entries
            @ build_toeplitz_hardy(psi, window, R).entries
        )
        norms = [float(np.linalg.norm(prod[:, b])) for b in range(prod.shape[1])]
        return ReducedZeroProductReport(
            indicator_psi=None,
            indicator_phibar=None,
            identity_residual=0.0,
            margin=0,
            product_column_norms=norms,
            min_product_column_norm=min(norms),
        )
    verdict_psi, _ = hankel_compactness_indicator(psi, indicator_sizes)
    verdict_phibar, _ = hankel_compactness_indicator(
        conjugate_symbol(phi), indicator_sizes
    )
    if DECAY_OBSERVED not in (verdict_psi, verdict_phibar):
        raise ValueError(
            "decay precondition failed: neither the second symbol nor the "
            "conjugated first symbol shows a compact complement side"
        )
    residual, margin = semicommutator_residual_annulus(phi, psi, window, R)
    lo, hi = window
    prod = (
        build_toeplitz_hardy(phi, window, R).entries
        @ build_toeplitz_hardy(psi, window, R).entries
    )
    norms = [
        float(np.linalg.norm(prod[:, b])) for b in range(margin, hi - lo + 1 - margin)
    ]
    report = ReducedZeroProductReport(
        indicator_psi=verdict_psi,
        indicator_phibar=verdict_phibar,
        identity_residual=residual,
        margin=margin,
        product_column_norms=norms,
        min_product_column_norm=min(norms),
    )
    report.verdict = VIOLATION if max(norms) < zero_divisor_floor else CONSISTENT
    return report
