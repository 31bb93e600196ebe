import math

import mpmath
import numpy as np
import pytest
from conftest import column_zero_recover
from hypothesis import given, settings, strategies as st

from annulab import bergman, hardy
from annulab.bergman import zero_product_experiment_bergman
from annulab.cli import _HARNESSES, TRIALS
from annulab.errors import WindowTooSmallError
from annulab.hardy import (
    CONSISTENT,
    INCONCLUSIVE,
    LADDER_LENGTH,
    UNCONSTRAINED,
    VIOLATION,
    _ladder,
    build_hankel_annulus,
    build_section_quadrature,
    build_toeplitz_hardy,
    dense,
    find_n0_hardy,
    semicommutator_residual_annulus,
    zero_product_experiment_hardy,
)
from annulab.randgen import Lcg, random_boundary_symbol
from annulab.symbols import (
    ExactSymbol,
    PolarSymbol,
    PolyProfile,
    conjugate_symbol,
    fourier_pair,
    laurent_symbol,
    multiply_symbols,
)

R = 0.5

split_sign = ExactSymbol({0: 1.0}, {0: -1.0})


def toeplitz_entry(f, j, k, R):
    """Entry at row ``j``, column ``k`` of the closed-form section."""
    lo = min(j, k)
    return dense(build_toeplitz_hardy(f, (lo, max(j, k)), R))[j - lo, k - lo]


def test_constant_symbol_gives_identity_entries():
    for j in range(-4, 5):
        for k in range(-4, 5):
            want = 1.0 if j == k else 0.0
            got = toeplitz_entry(laurent_symbol({0: 1.0}, R), j, k, R)
            assert got == pytest.approx(want, abs=1e-14)


def test_shift_entry_value():
    val = toeplitz_entry(laurent_symbol({1: 1.0}, R), 1, 0, R)
    assert val == pytest.approx(math.sqrt(1.25) / math.sqrt(2))
    assert val == pytest.approx(0.790569, abs=1e-6)


def test_split_sign_diagonal():
    assert toeplitz_entry(split_sign, 0, 0, R) == pytest.approx(0.0)
    assert toeplitz_entry(split_sign, 1, 1, R) == pytest.approx(0.6)
    assert toeplitz_entry(split_sign, 2, 2, R) == pytest.approx(
        (1 - R**4) / (1 + R**4)
    )


def test_identity_section():
    sec = dense(build_toeplitz_hardy(laurent_symbol({0: 1.0}, R), (-8, 8), R))
    assert np.max(np.abs(sec - np.eye(17))) <= 1e-14


def test_negative_tail_symbol_is_lower_banded():
    """Only coefficients below the top degree exist, so entries vanish
    for row minus column above that degree."""
    sym = ExactSymbol({2: 1.0, 0: 0.5, -1: 0.25, -3: 1.0}, {2: 0.5})
    sec = dense(build_toeplitz_hardy(sym, (-6, 6), R))
    for a, j in enumerate(range(-6, 7)):
        for b, k in enumerate(range(-6, 7)):
            if j - k > 2:
                assert sec[a, b] == 0.0


def test_banded_structure_exact_zeros():
    rng = Lcg(21)
    sym = random_boundary_symbol(rng, 3)
    sec = dense(build_toeplitz_hardy(sym, (-10, 10), R))
    for a, j in enumerate(range(-10, 11)):
        for b, k in enumerate(range(-10, 11)):
            if abs(j - k) > 3:
                assert sec[a, b] == 0.0


def banded(rng, stack, n, band):
    """A stack of sections in band layout (``hardy._band_sections``): complex
    normal entries within ``band`` of the diagonal, zero past the section."""
    w = min(band, n - 1)
    k, _, col = hardy._band_entries(np.arange(-w, w + 1), n)
    out = np.zeros((stack, 2 * w + 1, n), dtype=complex)
    shape = (stack, len(k))
    out[:, k, col] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return out


#: (side, a, b): on diagonals (``min(a, b) <= hardy._DIAGONAL_REACH``),
#: unequal bands both ways, a diagonal factor, two diagonal factors, and
#: bands whose product band covers the window; in dense blocks, two blocks
#: of unequal bands both ways, and one block that covers the window
BAND_CASES = [(40, 1, 5), (40, 6, 2), (33, 0, 3), (40, 0, 0), (12, 7, 9), (5, 2, 2),
              (70, 9, 12), (80, 14, 9), (30, 10, 11)]


@pytest.mark.parametrize("n, a, b", BAND_CASES)
def test_band_product_is_the_dense_product_to_rounding(n, a, b):
    """Against a dense ``A @ B`` on a random stack, entry by entry.  Each
    complex dot product of inner length ``K`` is off its exact value by at
    most ``gamma_(K+2) (|A| @ |B|)``, ``gamma_m = m u / (1 - m u)`` (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 3.6), so two
    orderings of one sum differ by at most twice that.  Bits are not
    asked for: the diagonals sum in another order than BLAS, and BLAS may
    group a block's shorter sum differently.  The product's band is ``a +
    b`` wide, each matrix of the stack has the bits of its lone product,
    and a window that one block covers has, on the band, the dense
    product's bits."""
    rng = np.random.default_rng([n, a, b])
    A, B = banded(rng, 3, n, a), banded(rng, 3, n, b)
    got = hardy.band_product(A, B)
    assert got.shape == (3, 2 * (min(a, n - 1) + min(b, n - 1)) + 1, n)
    u = np.finfo(float).eps / 2
    gamma = (n + 2) * u / (1 - (n + 2) * u)
    bound = 2 * gamma * (np.abs(dense(A)) @ np.abs(dense(B)))
    assert np.all(np.abs(dense(got) - dense(A) @ dense(B)) <= bound)
    for i in range(3):
        assert hardy.band_product(A[i], B[i]).tobytes() == got[i].tobytes()
    if min(a, b) > hardy._DIAGONAL_REACH and 2 * (a + b) + 1 >= n:
        keep = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= a + b
        assert dense(got)[:, keep].tobytes() == (dense(A) @ dense(B))[:, keep].tobytes()


def test_band_product_of_a_zero_symbols_section_is_zero():
    """A zero symbol's section has bandwidth 0 and no nonzero entry, so its
    product with a banded section is exactly zero, on either side."""
    zero = build_toeplitz_hardy([ExactSymbol({}, {})] * 2, (-8, 8), R)
    rng = Lcg(4)
    gs = build_toeplitz_hardy([random_boundary_symbol(rng, 3) for _ in range(2)], (-8, 8), R)
    assert not np.any(hardy.band_product(zero, gs))
    assert not np.any(hardy.band_product(gs, zero))


def test_adjoint_is_the_dense_conjugate_transpose_bit_for_bit():
    """``hardy._adjoint`` holds, at every entry of its band, the bits of
    the dense ``.conj().T`` (signed zeros included, here from a zero
    coefficient inside the band), and ``+0`` in every slot past the
    section."""
    sym = ExactSymbol({-3: 1.0 - 2.0j, -1: 0.0, 2: -0.5j}, {-1: 3.0, 0: -0.0, 3: 1e-300})
    for window, R_ in (((-6, 6), R), ((-2, 1), R), ((-40, 40), 0.1)):
        for band in (build_toeplitz_hardy(sym, window, R_), build_hankel_annulus(sym, window, R_)):
            got, want = hardy._adjoint(band), dense(band).conj().T
            w, n = band.shape[-2] // 2, band.shape[-1]
            k, row, col = hardy._band_entries(np.arange(-w, w + 1), n)
            assert got[k, col].tobytes() == want[row, col].tobytes()
            past = np.ones(got.shape, dtype=bool)
            past[k, col] = False
            assert got[past].tobytes() == np.zeros(past.sum(), dtype=complex).tobytes()
            assert np.any(np.signbit(want[row, col].imag)) and np.any(want[row, col] == 0)


#: (w, rows, cols) of 20 x 20 sections: the whole section, blocks inside
#: the band, a block the band crosses at a corner, and the diagonal alone
BLOCK_CASES = [(3, range(20), range(20)), (3, range(2, 15), range(6, 11)),
               (7, range(9, 20), range(0, 4)), (0, range(4, 9), range(2, 20))]


@pytest.mark.parametrize("w, rows, cols", BLOCK_CASES)
def test_write_block_puts_back_the_block_dense_reads(w, rows, cols):
    """``dense(band, rows, cols)`` is that block of the square section, and
    ``hardy._write_block`` puts its in-band entries back on an empty band
    bit for bit, leaving every other entry zero."""
    band = banded(np.random.default_rng(w), 2, 20, w)
    block = dense(band, rows, cols)
    want = np.zeros((2, 20, 20), dtype=complex)
    want[:, rows.start : rows.stop, cols.start : cols.stop] = block
    assert block.tobytes() == dense(band)[:, rows.start : rows.stop, cols.start : cols.stop].tobytes()
    out = np.zeros_like(band)
    hardy._write_block(out, block, rows, cols)
    assert dense(out).tobytes() == want.tobytes()


def test_section_matches_quadrature(geo):
    sec = dense(build_toeplitz_hardy(laurent_symbol({1: 1.0}, R), (-8, 8), R))
    quad, _ = build_section_quadrature(laurent_symbol({1: 1.0}, R), (-8, 8), geo)
    assert np.max(np.abs(sec - quad)) <= 1e-10


def test_adjoint_matches_conjugate_symbol():
    rng = Lcg(23)
    sym = random_boundary_symbol(rng, 4)
    sec = dense(build_toeplitz_hardy(sym, (-9, 9), R))
    conj_sec = dense(build_toeplitz_hardy(conjugate_symbol(sym), (-9, 9), R))
    assert np.max(np.abs(conj_sec - sec.conj().T)) <= 1e-14


def test_section_indexing_follows_window():
    sec = dense(build_toeplitz_hardy(laurent_symbol({1: 1.0}, R), (-3, 3), R))
    assert sec[1 + 3, 0 + 3] == pytest.approx(
        toeplitz_entry(laurent_symbol({1: 1.0}, R), 1, 0, R), rel=1e-13
    )
    assert sec.shape == (7, 7)


def test_unit_symbol_section_is_selfadjoint_idempotent():
    a = dense(build_toeplitz_hardy(laurent_symbol({0: 1.0}, R), (-3, 3), R))
    assert np.max(np.abs(a @ a - a)) <= 1e-14
    assert np.array_equal(a.conj().T, a)


def test_hankel_of_constant_vanishes():
    sec = dense(build_hankel_annulus(ExactSymbol({0: 2.0}, {0: 2.0}), (-6, 6), R))
    assert np.max(np.abs(sec)) == 0.0


def test_hankel_of_analytic_polynomial_vanishes():
    sec = dense(build_hankel_annulus(laurent_symbol({3: 1.0}, R), (-6, 6), R))
    assert np.max(np.abs(sec)) == 0.0


def test_hankel_split_sign_diagonal():
    sec = dense(build_hankel_annulus(split_sign, (-6, 6), R))
    for a, j in enumerate(range(-6, 7)):
        want = 2 * R**j / (1 + R ** (2 * j))
        assert sec[a, a] == pytest.approx(want)
    # off the diagonal nothing survives for a two-sided constant
    off = sec - np.diag(np.diag(sec))
    assert np.max(np.abs(off)) == 0.0


def test_hankel_matches_quadrature(geo):
    rng = Lcg(29)
    sym = random_boundary_symbol(rng, 4)
    sec = dense(build_hankel_annulus(sym, (-8, 8), R))
    _, quad = build_section_quadrature(sym, (-8, 8), geo)
    assert np.max(np.abs(sec - quad)) <= 1e-10


def test_recover_shift_pair():
    sec = dense(build_toeplitz_hardy(laurent_symbol({1: 1.0}, R), (-6, 6), R))
    rec = column_zero_recover(sec, -6, 0, 1, R)
    assert rec[1][0] == pytest.approx(1.0, abs=1e-12)
    assert rec[1][1] == pytest.approx(R, abs=1e-12)


def test_recover_full_roundtrip():
    rng = Lcg(31)
    sym = random_boundary_symbol(rng, 6)
    sec = dense(build_toeplitz_hardy(sym, (-16, 16), R))
    rec = column_zero_recover(sec, -16, -2, 3, R)
    for n in range(-6, 7):
        got_c, got_c0 = rec[n]
        assert abs(got_c - sym.coeffs_C[n]) <= 1e-10
        assert abs(got_c0 - sym.coeffs_C0[n]) <= 1e-10


def test_recover_zeroed_columns_certify_zero():
    rng = Lcg(37)
    sym = random_boundary_symbol(rng, 4)
    sec = dense(build_toeplitz_hardy(sym, (-12, 12), R))
    entries = sec.copy()
    r, s = 0, 1
    entries[:, r + 12] = 0.0
    entries[:, s + 12] = 0.0
    rec = column_zero_recover(entries, -12, r, s, R)
    assert rec
    for pair in rec.values():
        assert pair == (0.0, 0.0)


def test_recover_deep_columns_at_small_radius():
    """Weights near R^300 overflowed the old rescaling; the inner circle is
    still determined there, the unit circle leaves no digit."""
    sym = random_boundary_symbol(Lcg(1), 4)
    sec = dense(build_toeplitz_hardy(sym, (-160, 160), 0.1))
    rec = column_zero_recover(sec, -160, -150, -149, 0.1)
    for n, (got_c, got_c0) in rec.items():
        assert abs(got_c0 - sym.coeffs_C0.get(n, 0.0)) <= 1e-15
        assert np.isnan(got_c) or abs(got_c - sym.coeffs_C.get(n, 0.0)) <= 1e-15
    assert np.isnan(rec[0][0])


def test_recover_needs_distinct_columns():
    sec = dense(build_toeplitz_hardy(laurent_symbol({1: 1.0}, R), (-6, 6), R))
    with pytest.raises(ValueError):
        column_zero_recover(sec, -6, 2, 2, R)


@pytest.mark.parametrize("r, s, outside", [(-7, 1, -7), (0, 7, 7)])
def test_recover_refuses_columns_outside_window(r, s, outside):
    sec = dense(build_toeplitz_hardy(laurent_symbol({1: 1.0}, R), (-6, 6), R))
    with pytest.raises(IndexError, match=rf"column {outside} outside window \[-6, 6\]"):
        column_zero_recover(sec, -6, r, s, R)


def test_find_n0_exponential_crossing():
    for m in (0, 1, 3, 5):
        g = ExactSymbol({1: 1.0}, {1: -R ** (-(2 * m + 1))})
        assert find_n0_hardy(g, 1, R) == m + 1


def test_find_n0_unconstrained_cases():
    assert find_n0_hardy(ExactSymbol({1: 1.0}, {1: 1.0}), 1, R) == UNCONSTRAINED
    assert find_n0_hardy(ExactSymbol({}, {1: 1.0}), 1, R) == UNCONSTRAINED
    assert find_n0_hardy(ExactSymbol({1: 1.0}, {}), 1, R) == UNCONSTRAINED


def test_find_n0_rejects_wrong_top_degree():
    with pytest.raises(ValueError):
        find_n0_hardy(ExactSymbol({2: 1.0}, {}), 1, R)


def test_semicommutator_identity_random_pair():
    rng = Lcg(41)
    phi = random_boundary_symbol(rng, 3)
    psi = random_boundary_symbol(rng, 2)
    residual, margin = semicommutator_residual_annulus(phi, psi, (-16, 16), R)
    assert margin == 5
    assert residual <= 1e-10


def test_zero_factor_reports_consistent():
    [rep] = zero_product_experiment_hardy(
        [(ExactSymbol({}, {}), ExactSymbol({0: 1.0}, {0: 1.0}))], (-12, 12), R
    )
    assert rep.verdict == CONSISTENT
    assert max(rep.product_column_norms) == 0.0
    assert rep.ladder_residuals == []


def test_analytic_pair_product_is_composition():
    z = laurent_symbol({1: 1.0}, R)
    [rep] = zero_product_experiment_hardy([(z, z)], (-12, 12), R)
    assert rep.verdict == CONSISTENT
    assert rep.min_product_column_norm > 1e-6
    # the composed section agrees with the z^2 section in the interior
    t_z = dense(build_toeplitz_hardy(z, (-12, 12), R))
    prod = t_z @ t_z
    direct = dense(build_toeplitz_hardy(multiply_symbols(z, z), (-12, 12), R))
    inner = slice(2, 25 - 2)
    assert np.max(np.abs(prod[inner, inner] - direct[inner, inner])) <= 1e-12


def per_rung_ladder(S, P, first, N, L):
    """Reference ladder residuals: one Householder QR per rung, of that
    rung's own normalized nonzero columns."""
    top, out = first + N, []
    for l in range(L + 1):
        target = S[:, top + l]
        columns = np.hstack((S[:, :top], P[:, first : first + l + 1]))
        tn = float(np.linalg.norm(target))
        norms = np.linalg.norm(columns, axis=0)
        live = norms > 0.0
        if tn == 0.0 or not live.any():
            out.append(0.0 if tn == 0.0 else 1.0)
            continue
        A = columns[:, live] / norms[live]
        Q, Rf = np.linalg.qr(A)
        qt = Q.conj().T @ target
        misfit = float(np.linalg.norm(target - Q @ qt))
        coef = np.linalg.solve(Rf, qt)
        out.append(misfit / (tn + float(np.linalg.norm(A)) * float(np.linalg.norm(coef))))
    return out


def test_harness_ladder_is_tight():
    rng = Lcg(1)
    f = random_boundary_symbol(rng, 2)
    g = random_boundary_symbol(rng, 2)
    [rep] = zero_product_experiment_hardy([(f, g)], (-20, 20), R)
    assert rep.verdict == CONSISTENT
    assert max(rep.ladder_residuals) <= 1e-10
    # without the product columns, or with each one a column behind, the
    # same targets are far from the span; the per-rung reference agrees
    tf = dense(build_toeplitz_hardy(f, (-20, 20), R))
    tg = dense(build_toeplitz_hardy(g, (-20, 20), R))
    first, N = rep.n0_effective + 20, g.top_degree()
    behind = np.zeros_like(tf)
    behind[:, first + 1 :] = (tf @ tg)[:, first:-1]
    for P in (np.zeros_like(tf), behind):
        [restricted], _, _ = _ladder(tf[None], P[None], tg[None], first, N, 8)
        assert min(restricted) > 1e-3
        reference = per_rung_ladder(tf, P, first, N, 8)
        assert np.max(np.abs(np.subtract(restricted, reference))) <= 1e-15


@pytest.mark.parametrize("experiment", sorted(_HARNESSES))
def test_shared_qr_ladder_matches_per_rung_qr(experiment, monkeypatch):
    """Every rung read from a leading block of the one factorization agrees
    with its own QR, over the trials `lab` draws at seeds 0-40."""
    module, name, draw_f, draw_g = _HARNESSES[experiment]
    ladder, worst = hardy._ladder, []

    def compare(S, P, G, first, N, L):
        out = ladder(S, P, G, first, N, L)
        for s, p, residuals in zip(S, P, out[0]):
            ref = per_rung_ladder(s, p, first, N, L)
            worst.append(float(np.max(np.abs(np.subtract(residuals, ref)))))
        return out

    monkeypatch.setattr(hardy, "_ladder", compare)
    for seed in range(41):
        rng = Lcg(seed)
        pairs = [(draw_f(rng), draw_g(rng)) for _ in range(TRIALS)]
        getattr(module, name)(pairs, (-24, 24), R)
    assert len(worst) == 41 * TRIALS
    assert max(worst) <= 1e-15


def test_harness_window_guard():
    rng = Lcg(1)
    f = random_boundary_symbol(rng, 2)
    g = random_boundary_symbol(rng, 2)
    with pytest.raises(WindowTooSmallError):
        zero_product_experiment_hardy([(f, g)], (-3, 3), R)


one = PolyProfile({0: 1.0 + 0.0j})

#: per harness: its probe and a nonzero analytic pair, on a window that
#: holds the default ladder
NONZERO_PAIRS = {
    "hardy": (
        zero_product_experiment_hardy,
        laurent_symbol({1: 1.0}, R), laurent_symbol({1: 1.0}, R), (-10, 10),
    ),
    "bergman": (
        zero_product_experiment_bergman,
        PolarSymbol({0: one}), PolarSymbol({1: one}), (-1, 10),
    ),
}


def test_fabricated_zero_product_flags_violation(monkeypatch):
    """A floor above every product column norm must trip the verdict rule
    of both harnesses."""
    for probe, f, g, window in NONZERO_PAIRS.values():
        assert probe([(f, g)], window, R)[0].verdict == CONSISTENT
    monkeypatch.setattr(hardy, "ZERO_DIVISOR_FLOOR", 1e9)
    for probe, f, g, window in NONZERO_PAIRS.values():
        [rep] = probe([(f, g)], window, R)
        assert rep.verdict == VIOLATION


#: per harness: the module whose section builder the probe looks up
BUILDERS = {
    "hardy": (hardy, "build_toeplitz_hardy"),
    "bergman": (bergman, "build_bergman_toeplitz"),
}


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("harness", sorted(NONZERO_PAIRS))
def test_nan_section_entry_reads_inconclusive(harness, monkeypatch):
    """A NaN interior product norm is no evidence either way: the pair that
    reads Violation under a floor above every norm must then read
    Inconclusive, not ConsistentWithTheorem."""
    probe, f, g, window = NONZERO_PAIRS[harness]
    module, name = BUILDERS[harness]
    build = getattr(module, name)

    def poisoned(syms, win, R):
        ops = build(syms, win, R)
        ops[:, ops.shape[1] // 2, 5] = np.nan  # entry (5, 5), on the main diagonal
        return ops

    monkeypatch.setattr(module, name, poisoned)
    monkeypatch.setattr(hardy, "ZERO_DIVISOR_FLOOR", 1e9)
    [rep] = probe([(f, g)], window, R)
    assert np.isnan(rep.min_product_column_norm)
    assert np.isnan(np.max(rep.ladder_residuals))
    assert rep.verdict == INCONCLUSIVE


#: c of the profile 1 - c r, whose Mellin moment vanishes at 5 (the mellin
#: experiment's witness); as a top band N = 1 it puts n0 at 2
_WITNESS_C = 6.0 * (1.0 - R**5) / (5.0 * (1.0 - R**6))

#: per harness: the window, a zero symbol, and g's whose ladders start at
#: other columns, or end at other rows, than the drawn trials' ladders
STACK_CASES = {
    "zero-product-hardy": (
        (-48, 48), ExactSymbol({}, {}), [
            # -ghat_C(2) / ghat_C0(2) = R^-2: n0 = floor((2 - 2) / 2) + 1 = 1
            ExactSymbol({-1: 0.3, 0: 0.5, 2: -1.0}, {0: 0.2j, 2: 0.25}),
            # top degree -4: the rung columns reach past the targets
            ExactSymbol({}, {-4: 1.0}),
        ],
    ),
    "zero-product-bergman": (
        (-24, 24), PolarSymbol({}), [
            PolarSymbol({0: PolyProfile({0: 0.5, 2: 0.25j}),
                         1: PolyProfile({0: 1.0, 1: -_WITNESS_C})}),
        ],
    ),
}


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("experiment", sorted(STACK_CASES))
def test_stacked_probe_matches_one_pair_calls(experiment, monkeypatch):
    """One list through the stacked probe gives, pair by pair, the bits of
    a one-pair call: over drawn pairs, a zero factor on either side (whose
    product is zero in every column, with no section built), g's whose
    ladders sit elsewhere, a NaN section column, and a stack that runs in
    more than one chunk (counted by its :func:`hardy.band_product` calls)."""
    module, name, draw_f, draw_g = _HARNESSES[experiment]
    window, zero, other_gs = STACK_CASES[experiment]
    # a chunk of drawn trials holds at least their products' 2 (a + b) + 1
    # diagonals, so at most per_chunk of them
    rng = Lcg(3)
    a, b = (s.bandwidth() for s in (draw_f(rng), draw_g(rng)))
    per_chunk = hardy._STACK_BYTES // (16 * (2 * (a + b) + 1) * (window[1] - window[0] + 1))
    rng = Lcg(3)
    pairs = [(draw_f(rng), draw_g(rng)) for _ in range(2 * per_chunk + 3)]
    nan_g = pairs[per_chunk + 1][1]
    pairs[1] = (zero, pairs[1][1])
    for at, g in enumerate(other_gs, start=2):
        pairs[at] = (pairs[at][0], g)
    pairs[per_chunk] = (pairs[per_chunk][0], zero)
    builder = {hardy: "build_toeplitz_hardy", bergman: "build_bergman_toeplitz"}[module]
    build = getattr(module, builder)

    def nan_column(syms, win, R):
        assert not any(sym is zero for sym in syms)  # a zero factor builds no section
        ops = build(syms, win, R)
        for sym, op in zip(syms, ops):
            if sym is nan_g:
                op[:, 8] = np.nan  # a rung and an interior column
        return ops

    monkeypatch.setattr(module, builder, nan_column)
    chunks = []
    product = hardy.band_product
    monkeypatch.setattr(hardy, "band_product", lambda A, B: chunks.append(len(A)) or product(A, B))
    probe = getattr(module, name)
    reports = probe(pairs, window, R)
    # one stack per bandwidth pair, first rung and top degree
    stacks = {(f.bandwidth(), g.bandwidth(), rep.n0_effective, rep.top_degree)
              for (f, g), rep in zip(pairs, reports) if rep.ladder_residuals}
    assert len(chunks) > len(stacks) and max(chunks) > 1
    for pair, rep in zip(pairs, reports):
        [one] = probe([pair], window, R)
        assert repr(rep) == repr(one)
    # the mix holds each case
    assert reports[1].ladder_residuals == [] == reports[per_chunk].ladder_residuals
    zeros = [0.0] * (window[1] - window[0] + 1)
    assert reports[1].product_column_norms == zeros == reports[per_chunk].product_column_norms
    assert isinstance(reports[2].n0, int)
    assert reports[2].n0_effective != reports[0].n0_effective
    assert reports[per_chunk + 1].verdict == INCONCLUSIVE
    assert np.isnan(np.max(reports[per_chunk + 1].ladder_residuals))


@pytest.mark.parametrize("harness", sorted(NONZERO_PAIRS))
def test_probe_refuses_a_ladder_above_the_window(harness, monkeypatch):
    probe, f, g, window = NONZERO_PAIRS[harness]
    monkeypatch.setattr(hardy, "LADDER_LENGTH", 30)
    with pytest.raises(WindowTooSmallError, match="ladder top"):
        probe([(f, g)], window, R)


_rng = Lcg(1)

#: per harness: a pair, window and ladder length whose ladder fits but
#: whose interior margin, ``f.bandwidth() + g.bandwidth()`` from each
#: truncated edge, leaves no product column
MARGIN_PAIRS = {
    "hardy": (
        zero_product_experiment_hardy,
        random_boundary_symbol(_rng, 4), random_boundary_symbol(_rng, 4), (-7, 8), 1,
    ),
    "bergman": (
        zero_product_experiment_bergman,
        PolarSymbol({-3: one, 0: one}), PolarSymbol({3: one}), (0, 11), LADDER_LENGTH,
    ),
}


@pytest.mark.parametrize("harness", sorted(MARGIN_PAIRS))
def test_probe_refuses_a_window_without_interior_columns(harness, monkeypatch):
    probe, f, g, window, ladder = MARGIN_PAIRS[harness]
    monkeypatch.setattr(hardy, "LADDER_LENGTH", ladder)
    with pytest.raises(WindowTooSmallError, match="no interior columns"):
        probe([(f, g)], window, R)


entry_offsets = st.integers(min_value=-6, max_value=6)


@settings(max_examples=50, deadline=None)
@given(entry_offsets, entry_offsets)
def test_entry_formula_splits_by_offset(j, k):
    # each entry sees exactly one coefficient pair, at offset j - k
    sym = ExactSymbol({j - k: 2.0 + 1.0j}, {j - k: -0.5j})
    want = (2.0 + 1.0j + R ** (j + k) * (-0.5j)) / (
        math.sqrt(1 + R ** (2 * j)) * math.sqrt(1 + R ** (2 * k))
    )
    assert toeplitz_entry(sym, j, k, R) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("r, n", [(0.5, -1100), (0.1, -160), (0.9, -40), (0.5, -3), (0.5, 6)])
def test_multiplier_coeffs_stay_finite_at_deep_indices(r, n):
    """Column ``n`` of the section holds the compressed multiplier's
    coefficients of basis vector ``n``.  ``R^(2(n+k))`` overflows at
    R = 0.5, n = -1100 and at R = 0.1, n = -160; the entries themselves are
    of modest size."""
    f = random_boundary_symbol(Lcg(5), 4)
    lo = n - 4
    column = dense(build_toeplitz_hardy(f, (lo, n + 4), r))[:, n - lo]
    with mpmath.workdps(50):
        rr = mpmath.mpf(r)
        for k in f.support:
            fC, fC0 = (mpmath.mpc(c) for c in fourier_pair(f, k))
            want = (fC + rr ** (2 * n + k) * fC0) / mpmath.sqrt(
                (1 + rr ** (2 * (n + k))) * (1 + rr ** (2 * n))
            )
            assert abs(mpmath.mpc(column[n + k - lo]) - want) <= 1e-14 * abs(want)


@pytest.mark.parametrize("experiment", sorted(_HARNESSES))
def test_ladder_on_the_rows_its_columns_reach_has_the_full_height_bits(experiment):
    """The probe hands ``_ladder`` only the first ``cut + a + b`` rows of
    its ``cut`` columns, all that those columns reach: the rows below are
    zeros, and the QR, solve and norms give the bits of the full-height
    columns, over the trials ``lab`` draws at seeds 0-5."""
    module, name, draw_f, draw_g = _HARNESSES[experiment]
    build = {hardy: build_toeplitz_hardy, bergman: bergman.build_bergman_toeplitz}[module]
    window = (-24, 24)
    size = window[1] - window[0] + 1
    for seed in range(6):
        rng = Lcg(seed)
        for f, g in [(draw_f(rng), draw_g(rng)) for _ in range(TRIALS)]:
            [rep] = getattr(module, name)([(f, g)], window, R)
            first, N = rep.n0_effective - window[0], g.top_degree()
            cut = first + max(N, 0) + LADDER_LENGTH + 1
            tf, tg = build(f, window, R), build(g, window, R)
            prod = hardy.band_product(tf, tg)
            rows = min(size, cut + f.bandwidth() + g.bandwidth())

            def ladder(height):
                block = range(height), range(cut)
                G = dense(tg, *block)
                S, P = ((dense(tf, *block), dense(prod, *block)) if module is hardy
                        else (np.eye(height, cut), G))
                return _ladder(S[None], P[None], G[None], first, N, LADDER_LENGTH)

            assert not np.any(dense(prod, range(size), range(cut))[rows:])
            assert all(a.tobytes() == b.tobytes() for a, b in zip(ladder(size), ladder(rows)))
