"""Disc-side sections, the conjugate-basis bridge, and decay verdicts."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annulab import reduction
from annulab.errors import AliasingError
from annulab.geometry import AnnulusGeometry, basis_weights
from annulab.randgen import Lcg, random_boundary_symbol
from annulab.reference import (
    reference_symbol,
    singular_inner_coeffs,
)
from annulab.reduction import (
    DECAY_OBSERVED,
    INCONCLUSIVE,
    NO_DECAY,
    DecayProfile,
    assemble_transfer_unitaries,
    build_disc_hankel,
    build_disc_toeplitz,
    classify_decay,
    decay_basis,
    conjugate_basis_coeffs,
    conjugate_reflection_residual,
    decay_profile_for,
    diagram_residual,
    hankel_compactness_indicator,
    l1_tail_certificate,
    semicommutator_residual_disc,
    split_relation_residual,
    t_diag,
    tail_index,
)
from annulab.symbols import (
    ExactCircle,
    ExactSymbol,
    laurent_symbol,
    pullback_symbols,
)

R = 0.5


# ---------------------------------------------------------------------------
# disc sections


def test_disc_toeplitz_of_constant_is_identity():
    sec = build_disc_toeplitz(ExactCircle({0: 1.0 + 0.0j}), 6)
    assert np.array_equal(sec, np.eye(6))


def test_disc_toeplitz_shift_is_subdiagonal():
    sec = build_disc_toeplitz(ExactCircle({1: 1.0 + 0.0j}), 5)
    want = np.zeros((5, 5), dtype=complex)
    for j in range(1, 5):
        want[j, j - 1] = 1.0
    assert np.array_equal(sec, want)


def test_disc_sections_match_grid_quadrature():
    rng = Lcg(31)
    phi = pullback_symbols(random_boundary_symbol(rng, 5))[0]
    m = 256
    t = 2.0 * np.pi * np.arange(m) / m
    vals = sum(c * np.exp(1j * n * t) for n, c in phi.coeffs.items())
    size = 8
    for j in range(size):
        for k in range(size):
            toe = np.mean(vals * np.exp(-1j * (j - k) * t))
            han = np.mean(vals * np.exp(1j * ((j + 1) + k) * t))
            assert build_disc_toeplitz(phi, size)[j, k] == pytest.approx(
                toe, abs=1e-12
            )
            assert build_disc_hankel(phi, size)[j, k] == pytest.approx(
                han, abs=1e-12
            )


def test_disc_hankel_of_analytic_power_vanishes():
    sec = build_disc_hankel(ExactCircle({5: 1.0 + 0.0j}), 8)
    assert np.max(np.abs(sec)) == 0.0


def test_disc_hankel_of_single_negative_power_has_rank_one():
    sec = build_disc_hankel(ExactCircle({-1: 1.0 + 0.0j}), 8)
    sig = np.linalg.svd(sec, compute_uv=False)
    assert sig[0] == pytest.approx(1.0, abs=1e-14)
    assert sig[1] <= 1e-14


def test_disc_hankel_rank_counts_negative_powers():
    for m in range(1, 6):
        sec = build_disc_hankel(ExactCircle({-m: 1.0 + 0.0j}), 8)
        assert np.linalg.matrix_rank(sec) == m


def test_hilbert_type_hankel_entries_and_norm():
    """Coefficient 1/m on the -m power yields the classical matrix with
    entries 1/(j + k + 1), whose norm stays below pi."""
    phi = ExactCircle({-m: 1.0 / m for m in range(1, 64)})
    prev = 0.0
    for size in (4, 8, 16):
        sec = build_disc_hankel(phi, size)
        for j in range(size):
            for k in range(size):
                assert sec[j, k] == pytest.approx(1.0 / (j + k + 1))
        top = float(np.linalg.svd(sec, compute_uv=False)[0])
        assert prev < top < math.pi
        prev = top


def test_multiply_circle_and_disc_semicommutator():
    rng = Lcg(33)
    phi = pullback_symbols(random_boundary_symbol(rng, 3))[0]
    psi = pullback_symbols(random_boundary_symbol(rng, 2))[0]
    residual, margin = semicommutator_residual_disc(phi, psi, 24)
    assert margin == phi.bandwidth() + psi.bandwidth()
    assert residual <= 1e-10


def test_disc_semicommutator_rejects_thin_sections():
    phi = ExactCircle({3: 1.0 + 0.0j, -3: 1.0 + 0.0j})
    with pytest.raises(ValueError):
        semicommutator_residual_disc(phi, phi, 6)


# ---------------------------------------------------------------------------
# conjugate-basis bridge


def test_conjugate_coeffs_reference_values():
    assert conjugate_basis_coeffs(0, R) == (1.0, 0.0)
    alpha, beta = conjugate_basis_coeffs(1, R)
    assert alpha == pytest.approx(0.8)
    assert beta == pytest.approx(0.6)
    alpha_m, beta_m = conjugate_basis_coeffs(-1, R)
    assert alpha_m == pytest.approx(0.8)
    assert beta_m == pytest.approx(-0.6)


@given(
    n=st.integers(min_value=-30, max_value=30),
    R_=st.sampled_from([0.3, 0.5, 0.9]),
)
def test_conjugate_coeffs_lie_on_unit_circle(n, R_):
    alpha, beta = conjugate_basis_coeffs(n, R_)
    assert abs(alpha * alpha + beta * beta - 1.0) <= 1e-14


def test_conjugate_reflection_identity_on_grid():
    geo = AnnulusGeometry(R=R, m_circle=128)
    for n in range(-10, 11):
        assert conjugate_reflection_residual(n, geo) <= 1e-12


def test_conjugate_reflection_nan_on_the_inner_circle_is_reported(monkeypatch):
    evaluate = reduction.hardy_basis_eval

    def nan_on_c0(n, component, angles, R_):
        vals = evaluate(n, component, angles, R_)
        return vals * np.nan if component == "C0" else vals

    monkeypatch.setattr(reduction, "hardy_basis_eval", nan_on_c0)
    geo = AnnulusGeometry(R=R, m_circle=128)
    assert math.isnan(conjugate_reflection_residual(3, geo))


def test_transfer_weight_values_and_decay():
    assert t_diag(0, R) == 0.0
    assert t_diag(1, R) == pytest.approx(4.0 / 3.0)
    assert t_diag(-1, R) == pytest.approx(-4.0 / 3.0)
    mags = [abs(t_diag(n, R)) for n in range(1, 31)]
    assert all(a > b for a, b in zip(mags, mags[1:]))
    far = max(abs(t_diag(n, R)) for n in range(10, 31))
    assert far <= 2.0 * R**10 / (1.0 - R**20) + 1e-15


@given(
    n=st.integers(min_value=1, max_value=40),
    R_=st.floats(min_value=0.05, max_value=0.95),
)
def test_transfer_weight_bound_and_oddness(n, R_):
    bound = 2.0 * R_**n / (1.0 - R_**2)
    assert abs(t_diag(n, R_)) <= bound * (1.0 + 1e-12)
    assert t_diag(-n, R_) == pytest.approx(-t_diag(n, R_), rel=1e-12)


def _scalar_conjugate_coeffs(n, R_):
    """The per-index closed forms with sign branches, kept as the reference."""
    if n < 0:
        w = R_ ** (-2 * n)
        return 2.0 * R_ ** (-n) / (1.0 + w), (w - 1.0) / (w + 1.0)
    w = R_ ** (2 * n)
    return 2.0 * R_**n / (1.0 + w), (1.0 - w) / (1.0 + w)


def _scalar_t_diag(n, R_):
    if n == 0:
        return 0.0
    if n < 0:
        return -2.0 * R_ ** (-n) / (1.0 - R_ ** (-2 * n))
    return 2.0 * R_**n / (1.0 - R_ ** (2 * n))


@pytest.mark.parametrize("R_", [0.05, 0.1, 0.5, 0.9])
def test_array_closed_forms_have_the_bits_of_the_scalar_branches(R_):
    """One array call gives, bit for bit, what the scalar forms give per
    index, and a scalar call gives one number with the same bits.  Squaring
    ``R^|n|`` in place of raising ``R^(2|n|)``, or numpy's vector power,
    moves some of these bits."""
    ns = np.arange(-200, 201)
    want = np.array([_scalar_conjugate_coeffs(int(n), R_) for n in ns]).T
    assert np.asarray(conjugate_basis_coeffs(ns, R_)).tobytes() == want.tobytes()
    want_t = np.array([_scalar_t_diag(int(n), R_) for n in ns])
    assert t_diag(ns, R_).tobytes() == want_t.tobytes()
    for n in (-200, -7, -1, 0, 1, 13, 200):
        assert conjugate_basis_coeffs(n, R_) == _scalar_conjugate_coeffs(n, R_)
        assert np.ndim(t_diag(n, R_)) == 0 and t_diag(n, R_) == _scalar_t_diag(n, R_)


def _scalar_basis_weights(n, R_):
    p = pow(R_, abs(n))
    s = math.sqrt(1.0 + p * p)
    return (p if n < 0 else 1.0) / s, (1.0 if n < 0 else p) / s


@pytest.mark.parametrize("R_", [0.05, 0.1, 0.3, 0.7, 0.9, 0.99])
def test_basis_weights_have_the_bits_of_the_scalar_power(R_):
    """The Hardy weights raise ``R^|n|`` with the scalar ``pow`` bits at
    every index, in one array call and in a scalar call alike, so they do
    not depend on which vector loop the host's numpy picks for its power."""
    ns = np.arange(-400, 401)
    want = np.array([_scalar_basis_weights(int(n), R_) for n in ns]).T
    assert np.asarray(basis_weights(ns, R_)).tobytes() == want.tobytes()
    for n in (-400, -7, -1, 0, 1, 13, 400):
        got = basis_weights(n, R_)
        assert np.ndim(got[0]) == 0 and tuple(got) == _scalar_basis_weights(n, R_)


def test_transfer_unitaries_are_identities():
    geo = AnnulusGeometry(R=R, m_circle=128)
    U0, P0 = assemble_transfer_unitaries(12, geo)
    assert np.max(np.abs(U0 - np.eye(12))) <= 1e-12
    assert np.max(np.abs(P0 - np.eye(12))) <= 1e-12


@pytest.mark.parametrize("size, m", [(12, 16384), (12, 64), (40, 256), (1, 16)])
def test_transfer_unitaries_have_the_bits_of_two_exp_tables(size, m):
    """One table over degrees 0..size, conjugated for P0, must give the
    bits of the two tables exp(-i k t) and exp(i (k+1) t) themselves."""
    geo = AnnulusGeometry(R=R, m_circle=m)
    ks, t = np.arange(size), geo.angles()
    analyze = reduction._analyze
    P0 = analyze(reduction._flip(np.exp(-1j * np.multiply.outer(ks, t))), ks).T
    U0 = analyze(reduction._flip(np.exp(1j * np.multiply.outer(ks + 1, t))), -(ks + 1)).T
    got = assemble_transfer_unitaries(size, geo)
    assert [a.tobytes() for a in got] == [U0.tobytes(), P0.tobytes()]


# ---------------------------------------------------------------------------
# diagram and split relations


def test_diagram_constant_symbol():
    geo = AnnulusGeometry(R=R, m_circle=256)
    one = laurent_symbol({0: 1.0}, R)
    assert diagram_residual(one, geo, *assemble_transfer_unitaries(16, geo)) <= 1e-13


def test_diagram_inner_power_becomes_disc_hankel():
    """A lone inner-circle power transplants to a negative disc power, so
    the right leg is a nonzero rank-one section the left leg must hit."""
    geo = AnnulusGeometry(R=R, m_circle=256)
    phi = ExactSymbol({}, {1: 1.0 + 0.0j})
    right = build_disc_hankel(pullback_symbols(phi)[1], 32)
    assert right[0, 0] == 1.0
    assert diagram_residual(phi, geo, *assemble_transfer_unitaries(32, geo)) <= 1e-12


def test_diagram_random_inner_bands(small_geo):
    rng = Lcg(37)
    for _ in range(5):
        phi = random_boundary_symbol(rng, 4)
        assert diagram_residual(
            phi, small_geo, *assemble_transfer_unitaries(24, small_geo)
        ) <= 1e-10


def test_diagram_rejects_unresolved_sizes():
    geo = AnnulusGeometry(R=R, m_circle=64)
    U0, P0 = assemble_transfer_unitaries(20, geo)
    with pytest.raises(AliasingError):
        diagram_residual(laurent_symbol({0: 1.0}, R), geo, U0, P0)


def test_split_relations_constant_symbol():
    geo = AnnulusGeometry(R=R, m_circle=256)
    res1, res2 = split_relation_residual(laurent_symbol({0: 1.0}, R), 16, geo)
    assert res1 <= 1e-13
    assert res2 <= 1e-13


def test_split_relations_inner_constant():
    geo = AnnulusGeometry(R=R, m_circle=256)
    res1, res2 = split_relation_residual(ExactSymbol({}, {0: 2.0 + 0.0j}), 24, geo)
    assert res1 <= 1e-11
    assert res2 <= 1e-11


def test_split_relations_random_symbols(small_geo):
    rng = Lcg(41)
    for _ in range(5):
        phi = random_boundary_symbol(rng, 3)
        res1, res2 = split_relation_residual(phi, 16, small_geo)
        assert res1 <= 1e-10
        assert res2 <= 1e-10


def test_split_relations_reject_unresolved_sizes():
    geo = AnnulusGeometry(R=R, m_circle=64)
    with pytest.raises(AliasingError):
        split_relation_residual(laurent_symbol({0: 1.0}, R), 20, geo)


# ---------------------------------------------------------------------------
# decay verdicts


def _profile(sizes, tails):
    p = DecayProfile(pullback="C", sizes=list(sizes), epsilon=0.5)
    for s, t in zip(sizes, tails):
        p.tail_indices[s] = t
        p.singular_values[s] = []
    return p


def test_tail_index_counts_above_epsilon():
    assert tail_index([2.0, 0.8, 0.5, 0.2], 0.5) == 2
    assert tail_index([], 0.5) == 0


def test_classify_growth_needs_factor_and_floor():
    assert classify_decay([_profile((16, 32, 64), (2, 5, 8))]) == NO_DECAY
    # doubling alone is not enough below the minimum tail count
    assert classify_decay([_profile((16, 32, 64), (1, 2, 3))]) == INCONCLUSIVE
    # emergence from an empty tail counts as growth once the floor is hit
    assert classify_decay([_profile((16, 32), (0, 4))]) == NO_DECAY


def test_classify_decay_paths():
    assert classify_decay([_profile((16, 32), (0, 0))]) == DECAY_OBSERVED
    # a flat tail still decays in fraction as the section grows
    assert classify_decay([_profile((8, 16, 32), (3, 3, 3))]) == DECAY_OBSERVED
    assert classify_decay([_profile((16, 32, 64), (2, 3, 2))]) == INCONCLUSIVE
    # a single size cannot witness decay unless its tail is already empty
    assert classify_decay([_profile((16,), (5,))]) == INCONCLUSIVE
    assert classify_decay([_profile((16,), (0,))]) == DECAY_OBSERVED


def test_decay_basis_names_the_deciding_clause():
    verdict = {"growth": NO_DECAY, "decay": DECAY_OBSERVED, "neither": INCONCLUSIVE}
    for sizes, tails in [
        ((16, 32, 64), (2, 5, 8)),
        ((16, 32, 64), (1, 2, 3)),
        ((8, 16, 32), (3, 3, 3)),
        ((16,), (0,)),
        ((16, 32, 64), (2, 3, 2)),
    ]:
        profiles = [_profile(sizes, tails)]
        basis = decay_basis(profiles)
        assert basis["tails"] == {"C": list(tails)}
        assert verdict[basis["clause"]] == classify_decay(profiles)


def test_classify_growth_wins_over_decay():
    good = _profile((16, 32), (1, 0))
    bad = _profile((16, 32), (2, 4))
    assert classify_decay([good, bad]) == NO_DECAY


def test_indicator_smooth_symbol_decays():
    verdict, profiles = hankel_compactness_indicator(
        reference_symbol("smooth-decay", R), (64, 128, 256, 512)
    )
    assert verdict == DECAY_OBSERVED
    for p in profiles:
        assert [p.tail_indices[s] for s in p.sizes] == [1, 1, 1, 1]


def test_indicator_singular_inner_keeps_growing_cluster():
    verdict, profiles = hankel_compactness_indicator(
        reference_symbol("conjugated-singular-inner", R), (64, 128, 256, 512)
    )
    assert verdict == NO_DECAY
    outer = next(p for p in profiles if p.pullback == "C")
    inner = next(p for p in profiles if p.pullback == "C0")
    assert outer.tail_indices == {64: 5, 128: 7, 256: 9, 512: 13}
    assert all(t == 0 for t in inner.tail_indices.values())


def test_indicator_algebraic_symbols_decay():
    for name in ("split-sign", "analytic-square"):
        verdict, profiles = hankel_compactness_indicator(
            reference_symbol(name, R), (32, 64)
        )
        assert verdict == DECAY_OBSERVED
        for p in profiles:
            assert all(t == 0 for t in p.tail_indices.values())


def full_svd(phi, size):
    return np.linalg.svd(build_disc_hankel(phi, size), compute_uv=False)


def test_live_block_profile_matches_full_svd():
    """Reach 20 with a gap at -7: sizes below, at and above the reach."""
    rng = Lcg(5)
    table = {-n: 3.0 * rng.coefficient() / n for n in range(1, 21) if n != 7}
    table.update({n: rng.coefficient() for n in range(0, 6)})
    phi = ExactCircle(table)
    sizes = (7, 19, 20, 21, 64)
    profile = decay_profile_for(phi, sizes, "C")
    for s in sizes:
        want = full_svd(phi, s)
        got = np.array(profile.singular_values[s])
        assert got.shape == (s,)
        assert np.max(np.abs(got - want)) <= 1e-14 * want[0]
        assert profile.tail_indices[s] == tail_index(want, 0.5)
    assert max(profile.tail_indices.values()) >= 2
    assert np.all(np.array(profile.singular_values[64][20:]) == 0.0)


def test_empty_table_takes_no_svd(monkeypatch):
    calls = []

    def counting(fn):
        def wrapped(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(np.linalg, "svd", counting(np.linalg.svd))
    monkeypatch.setattr(np.linalg, "eigvalsh", counting(np.linalg.eigvalsh))
    inner = pullback_symbols(reference_symbol("conjugated-singular-inner", R, 256))[1]
    for phi in (inner, ExactCircle({0: 1.0, 3: 2.0})):
        profile = decay_profile_for(phi, (16, 64, 128), "C0")
        for s in profile.sizes:
            assert profile.singular_values[s] == [0.0] * s
            assert profile.tail_indices[s] == 0
    assert calls == []


def test_full_reach_profile_is_byte_identical():
    """The complex table takes the SVD and matches it bit for bit; the real
    singular-inner table takes the symmetric eigensolver and matches it to
    rounding, with the same tail count."""
    rng = Lcg(9)
    dense = ExactCircle({n: rng.coefficient() for n in range(-127, 128)})
    profile = decay_profile_for(dense, (16, 40, 63), "C")
    for s in profile.sizes:
        want = full_svd(dense, s)
        assert np.array(profile.singular_values[s]).tobytes() == want.tobytes()
    outer = pullback_symbols(reference_symbol("conjugated-singular-inner", R, 256))[0]
    profile = decay_profile_for(outer, (32, 64, 128), "C")
    for s in profile.sizes:
        want = full_svd(outer, s)
        got = np.array(profile.singular_values[s])
        assert np.max(np.abs(got - want)) <= 1e-14 * want[0]
        assert profile.tail_indices[s] == tail_index(want, 0.5)


def _real_table(seed, reach, gap=None):
    rng = Lcg(seed)
    table = {
        -n: 3.0 * rng.coefficient().real / n for n in range(1, reach + 1) if n != gap
    }
    table.update({n: rng.coefficient() for n in range(0, 4)})
    return ExactCircle(table)


@pytest.mark.parametrize("seed, reach, gap", [(3, 20, 7), (4, 64, None), (8, 200, 150)])
def test_real_table_eigen_path_matches_svd(seed, reach, gap):
    """Sizes below, at and above the reach; a real Hankel block has
    eigenvalues of both signs, and only their moduli are singular values."""
    phi = _real_table(seed, reach, gap)
    assert not phi.hat(np.arange(-1, -2 * 128, -1)).imag.any()
    sizes = sorted({7, reach - 1, reach, reach + 1, 128})
    profile = decay_profile_for(phi, sizes, "C")
    for s in sizes:
        want = full_svd(phi, s)
        got = np.array(profile.singular_values[s])
        assert got.shape == (s,)
        assert np.all(np.diff(got) <= 0.0)
        assert np.max(np.abs(got - want)) <= 1e-14 * want[0]
        assert profile.tail_indices[s] == tail_index(want, 0.5)
    L = min(reach, 128)
    eig = np.linalg.eigvalsh(build_disc_hankel(phi, L).real)
    assert eig.min() < -0.5 and eig.max() > 0.5
    assert max(profile.tail_indices.values()) >= 2


def test_complex_table_keeps_the_svd_bit_for_bit():
    """One coefficient with an imaginary part of 1e-300 is enough to keep
    a table on the SVD: the selection is an exact test, not a tolerance."""
    table = dict(_real_table(5, 40).coeffs)
    table[-11] = table[-11] + 1e-300j
    phi = ExactCircle(table)
    profile = decay_profile_for(phi, (16, 40, 64), "C")
    for s in profile.sizes:
        want = full_svd(phi, s)
        assert np.array(profile.singular_values[s]).tobytes() == want.tobytes()


def test_disc_hankel_blocks_are_exactly_symmetric():
    rng = Lcg(12)
    phi = ExactCircle({n: rng.coefficient() for n in range(-90, 10)})
    for size in (1, 7, 45, 64):
        B = build_disc_hankel(phi, size)
        assert np.array_equal(B, B.T)


def test_l1_tail_certificate_counts():
    hats = np.array([0.5, 0.25, 0.125, 0.125, 0.0], dtype=complex)
    # tail sums T_0..T_5 = 1, 0.5, 0.25, 0.125, 0, 0 (exact in binary);
    # a tail sum equal to epsilon certifies k* but not under the slack
    assert l1_tail_certificate(hats, 0.5, 4) == (1, 2)
    assert l1_tail_certificate(hats, 0.3, 4) == (2, 2)
    assert l1_tail_certificate(hats, 0.25, 4) == (2, 3)
    assert l1_tail_certificate(hats, 2.0, 4) == (0, 0)
    # no tail sum clears the slack: only Kronecker's bound is left
    huge = np.array([1e300, 0.25], dtype=complex)
    assert l1_tail_certificate(huge, 0.5, 2) == (1, 2)


def test_certificate_bounds_every_tail():
    """Kronecker and the l1 tail bound hold on every reference table."""
    outer = pullback_symbols(reference_symbol("conjugated-singular-inner", R, 512))[0]
    cases = [
        (outer, 392),
        (pullback_symbols(reference_symbol("smooth-decay", R))[0], 7),
        (pullback_symbols(reference_symbol("smooth-decay", R))[1], 4),
        (_real_table(3, 20, 7), None),
        (ExactCircle({n: Lcg(9).coefficient() for n in range(-127, 128)}), None),
    ]
    for phi, k_star in cases:
        profile = decay_profile_for(phi, (16, 64, 256), "C")
        live = np.flatnonzero(phi.hat(np.arange(-1, -512, -1)))
        assert profile.rank_bound == live[-1] + 1
        assert profile.l1_tail_k <= profile.certified_tail <= profile.rank_bound
        assert max(profile.tail_indices.values()) <= profile.certified_tail
        if k_star is not None:
            assert profile.l1_tail_k == k_star


# ---------------------------------------------------------------------------
# singular inner coefficient table


def test_singular_inner_leading_coeffs():
    got = singular_inner_coeffs(5)
    want = [0.367879441171, -0.735758882343, 0.0, 0.245252960781, 0.245252960781]
    assert got == pytest.approx(want, abs=1e-12)


def test_singular_inner_matches_laguerre_reference():
    got = singular_inner_coeffs(41)
    scale = mpmath.exp(-1)
    for n in range(41):
        prev = mpmath.laguerre(n - 1, 0, 2) if n >= 1 else mpmath.mpf(0)
        want = float(scale * (mpmath.laguerre(n, 0, 2) - prev))
        assert got[n] == pytest.approx(want, abs=5e-14)


def test_singular_inner_power_is_nearly_unimodular():
    coeffs = singular_inner_coeffs(1025)
    total = float(np.sum(coeffs * coeffs))
    assert total == pytest.approx(0.985965213460608, abs=1e-12)
    assert 0.98 < total < 1.0


def test_singular_inner_rejects_empty_request():
    with pytest.raises(ValueError):
        singular_inner_coeffs(0)
