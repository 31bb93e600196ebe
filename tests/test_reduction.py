"""Disc-side sections, the conjugate-basis bridge, and decay verdicts."""

import math
import time
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annulab import reduction
from annulab.errors import AliasingError
from annulab.geometry import AnnulusGeometry, basis_weights
from annulab.hardy import dense
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
    hankel_apply,
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
    sec = dense(build_disc_toeplitz(ExactCircle({0: 1.0 + 0.0j}), 6))
    assert np.array_equal(sec, np.eye(6))


def test_disc_toeplitz_shift_is_subdiagonal():
    sec = dense(build_disc_toeplitz(ExactCircle({1: 1.0 + 0.0j}), 5))
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
            assert dense(build_disc_toeplitz(phi, size))[j, k] == pytest.approx(
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

    def nan_on_c0(n, component, geo_, rows=None):
        vals = evaluate(n, component, geo_, rows)
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
    """The two tables exp(-i k t) and exp(i (k+1) t), sampled one degree
    at a time on the grid, give the bits of the unitaries, and both are
    the identity to rounding."""
    geo = AnnulusGeometry(R=R, m_circle=m)
    ks = np.arange(size)
    analyze = reduction._analyze
    P0 = analyze(reduction._flip(np.array([geo.phases(-k) for k in ks])), ks).T
    U0 = analyze(reduction._flip(np.array([geo.phases(k + 1) for k in ks])), -(ks + 1)).T
    got = assemble_transfer_unitaries(size, geo)
    assert [a.tobytes() for a in got] == [U0.tobytes(), P0.tobytes()]
    assert max(np.max(np.abs(a - np.eye(size))) for a in got) <= 1e-15


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


def test_decay_sweep_decomposes_a_read_only_view_under_a_mebibyte(monkeypatch):
    """The sweep builds no section of its own: it hands LAPACK read-only
    views of the coefficients it reads, and LAPACK's copy (malloc'd by
    numpy's linalg, so not traced) is its only dense buffer.  A complex
    1024 section alone would trace 16 MiB."""
    outer = pullback_symbols(reference_symbol("conjugated-singular-inner", R))[0]
    decompose, writeable = reduction.hankel_singular_values, []

    def spy(block):
        writeable.append(block.flags.writeable)
        return decompose(block)

    monkeypatch.setattr(reduction, "hankel_singular_values", spy)
    tracemalloc.start()
    try:
        profile = decay_profile_for(outer, (128, 256, 512, 1024), "C")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert writeable == [False] * 4
    assert profile.rank_bound == 1024


def _dense_values(block):
    return np.sort(np.abs(np.linalg.eigvalsh(block)))[::-1]


@pytest.mark.parametrize("name", ["conjugated-singular-inner", "hilbert"])
def test_sketch_route_stays_within_its_allowance_of_the_dense_values(name):
    """The table as the CLI sizes it for sizes up to 1024 (2048
    coefficients): from ``SKETCH_MIN`` on the sweep takes the sketch, whose
    values lie within the allowance it records of ``eigvalsh``'s, with the
    same tail count and exact zeros past the sketch rank."""
    phi = pullback_symbols(reference_symbol(name, R, 2048))[0]
    profile = decay_profile_for(phi, (256, 512, 1024), "C")
    assert profile.routes[256] == "dense"
    k = reduction.SKETCH_RANK
    for s in (512, 1024):
        route = profile.routes[s]
        assert route["rank"] == k
        assert 0.0 < route["residual"] < route["allowance"]
        want = _dense_values(build_disc_hankel(phi, s).real)
        got = np.array(profile.singular_values[s])
        assert np.max(np.abs(got - want)) <= route["allowance"]
        assert profile.tail_indices[s] == tail_index(want, 0.5) >= 2
        assert np.all(got[k:] == 0.0) and got[k - 1] < want[0] * 1e-12


def test_hankel_singular_values_returns_the_dense_route_with_its_bits():
    """Below ``SKETCH_MIN`` a real block keeps ``eigvalsh``'s bits and a
    complex block the SVD's, each with the route ``"dense"``."""
    table = dict(_real_table(5, 40).coeffs)
    real = build_disc_hankel(ExactCircle(table), reduction.SKETCH_MIN - 1).real
    table[-11] += 1e-300j
    complex_ = build_disc_hankel(ExactCircle(table), 64)
    got, route = reduction.hankel_singular_values(real)
    assert route == "dense" and got.tobytes() == _dense_values(real).tobytes()
    got, route = reduction.hankel_singular_values(complex_)
    want = np.linalg.svd(complex_, compute_uv=False)
    assert route == "dense" and got.tobytes() == want.tobytes()


def _assert_falls_back(phi, size):
    block = build_disc_hankel(phi, size).real
    got, route = reduction.hankel_singular_values(block)
    assert route == "dense"
    assert got.tobytes() == _dense_values(block).tobytes()


def test_sketch_falls_back_to_the_dense_bits_where_the_range_is_missed():
    """The singular-inner table truncated to 1025 coefficients cuts off
    sharply inside the 1024 block (the rank-48 residual is about 0.5), and a
    real ``3/n`` table reaching the whole block has no low rank at all:
    both take ``eigvalsh`` and keep its bytes."""
    outer = pullback_symbols(reference_symbol("conjugated-singular-inner", R, 1025))[0]
    _assert_falls_back(outer, 1024)
    _assert_falls_back(_real_table(4, 2047), 1024)


def test_sketch_falls_back_where_a_third_of_its_allowance_is_residual(monkeypatch):
    """The Hilbert table with a perturbation of 1e-15 per coefficient: the
    range is captured (the last pivot is small), but the residual is more
    than a third of the allowance, and ``3 rho`` alone spends it."""
    rng = Lcg(6)
    phi = ExactCircle({-n: 1 / n + 1e-15 * rng.coefficient().real for n in range(1, 1024)})
    _assert_falls_back(phi, 512)
    monkeypatch.setattr(reduction, "_captured", lambda evidence, allowance: True)
    _, route = reduction._sketch(build_disc_hankel(phi, 512).real)
    assert route["allowance"] / 3 < route["residual"] < route["allowance"] / 2


def test_sketch_accepting_without_its_residual_is_caught(monkeypatch):
    """Planted defect: a sketch accepted whatever its residual returns 48
    values and zeros for the truncated table, not the dense bytes.  No
    shipped config reads a block where the certificate fails (the shipped
    hankel-decay table reaches past its 512 block), so this defect has no
    row in test_planted_defects.py."""
    monkeypatch.setattr(reduction, "_captured", lambda evidence, allowance: True)
    with pytest.raises(AssertionError):
        test_sketch_falls_back_to_the_dense_bits_where_the_range_is_missed()


def test_sketch_of_a_table_near_1e300_warns_of_nothing():
    """The sketch scales the block by a power of two, so no square or norm
    overflows: a Hilbert table times 1e300 keeps the sketch and its values
    scale with it, a full-reach table times 1e300 falls back, and neither
    raises a RuntimeWarning."""
    full = {n: 1e300 * c for n, c in _real_table(4, 2047).coeffs.items() if n < 0}
    hilbert_1e300 = ExactCircle({-n: 1e300 / n for n in range(1, 1024)})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        big = decay_profile_for(hilbert_1e300, (512,), "C")
        _assert_falls_back(ExactCircle(full), 1024)
    hilbert = pullback_symbols(reference_symbol("hilbert", R, 1024))[0]
    want = np.array(decay_profile_for(hilbert, (512,), "C").singular_values[512])
    route = big.routes[512]
    assert route["rank"] == reduction.SKETCH_RANK and route["allowance"] > 1e288
    got = np.array(big.singular_values[512]) / 1e300
    assert np.max(np.abs(got - want)) <= route["allowance"] / 1e300


@pytest.mark.parametrize("L", [1, 2, 3, 384, 385, 512, 1000, 1024, 1025])
def test_sketch_test_product_by_fft_matches_the_dense_product(L):
    """``hankel_apply(h, X)`` is ``X @ H`` for ``H[i, j] = h[i + j]``: at
    these sides the FFT length (the least power of two ``>= 2L - 1``) runs
    from 1 to 4096.  Every entry lies within ``1e-14 ||h|| max_r ||X_r||``
    of BLAS's dense product (rounding of the correlation is of order ``u
    log2(n)`` in that scale).  A table with every coefficient drawn apart
    makes a shifted or misread output entry miss by order one.  The rows of
    ``X`` are the sketch's 48 Weyl vectors."""
    rng = Lcg(L)
    h = np.array([rng.coefficient().real for _ in range(2 * L - 1)])
    H = h[np.add.outer(np.arange(L), np.arange(L))]
    roots = np.sqrt(reduction._primes(reduction.SKETCH_RANK))
    X = np.modf(roots[:, None] * np.arange(L))[0] - 0.5
    got = hankel_apply(h, X)
    want = X @ H
    scale = np.linalg.norm(h) * np.max(np.linalg.norm(X, axis=1))
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-14 * scale


def test_hankel_apply_refuses_a_table_one_short_or_one_long():
    """A side-8 block reads exactly 15 coefficients: a table one short
    would leave the last antidiagonals to the FFT's zero padding, and one
    long would shift every entry."""
    X = np.ones((2, 8))
    for count in (14, 16):
        with pytest.raises(ValueError, match="side 8 reads 15 coefficients"):
            hankel_apply(np.ones(count), X)


def _power_norm(h: np.ndarray, L: int) -> float:
    """The largest singular value of the symmetric positive Hankel block
    ``[h[i + j]]`` of side ``L``, by power iteration through
    :func:`hankel_apply` from the ones vector, until the estimate settles
    to 1e-13 relative."""
    x, nu = np.ones(L), 0.0
    for _ in range(100):
        y = hankel_apply(h, x / np.linalg.norm(x))
        x, before, nu = y, nu, np.linalg.norm(y)
        if nu - before <= 1e-13 * nu:
            break
    return nu


def test_hankel_apply_reads_the_essential_norm_of_the_hilbert_matrix():
    """``nu(k) = ||Gamma S^k||`` on the section of side ``L = 8k``, that is
    the largest singular value of ``[phihat(-(j + l + k + 1))]``, tends to
    ``||Gamma||_ess`` (Hartman; Power 1982).  For ``builtin:hilbert`` it
    matches the dense value at k = 16, never decreases from k = 64 to 4096
    (L up to 32768) and stays within 1e-5 of 1.239200.  A table that stops
    short of the deepest index read, ``k + 2L - 1``, reads zeros past its
    end, so the table is sized to it and the test asserts so."""
    started = time.perf_counter()
    ladder = []
    for k in (16, 64, 256, 1024, 4096):
        L = 8 * k
        outer = pullback_symbols(reference_symbol("hilbert", R, k + 2 * L))[0]
        assert max(-n for n in outer.coeffs) >= k + 2 * L - 1
        h = outer.hat(np.arange(-(k + 1), -(k + 2 * L), -1)).real
        ladder.append(_power_norm(h, L))
        if k == 16:
            dense = np.linalg.svd(h[np.add.outer(np.arange(L), np.arange(L))],
                                  compute_uv=False)[0]
            assert abs(ladder[0] - dense) <= 1e-12
    assert all(a <= b for a, b in zip(ladder[1:], ladder[2:]))
    assert all(abs(nu - 1.239200) <= 1e-5 for nu in ladder[1:])
    assert time.perf_counter() - started < 1.0


def test_sketch_refuses_a_zero_or_nan_block_before_its_product():
    """A block with no nonzero or with a non-finite coefficient has no scale:
    the sketch returns ``None`` at once, and a zero block keeps
    ``eigvalsh``'s bytes on the dense route."""
    L = reduction.SKETCH_MIN
    zero = np.zeros((L, L))
    assert reduction._sketch(zero) is None
    assert reduction._sketch(np.full((L, L), np.nan)) is None
    got, route = reduction.hankel_singular_values(zero)
    assert route == "dense" and got.tobytes() == _dense_values(zero).tobytes()


@pytest.mark.parametrize("size", [512, 1024])
def test_sketch_of_a_block_with_exactly_dependent_sketch_columns(size):
    """Three geometric terms make a rank-3 block, so in exact arithmetic
    all 48 columns of ``Y`` lie in a 3-dimensional span.  The sketch keeps
    the block: three values within its allowance of ``eigvalsh``'s and 45
    at rounding level."""
    phi = ExactCircle({-n: 0.5**n + 0.3**n - 0.9**n for n in range(1, 2 * size)})
    block = build_disc_hankel(phi, size).real
    got, route = reduction.hankel_singular_values(block)
    assert route["rank"] == reduction.SKETCH_RANK
    want = _dense_values(block)
    assert np.max(np.abs(got - want)) <= route["allowance"]
    assert np.all(got[3:] <= route["allowance"]) and got[2] > 1e-3


def test_disc_hankel_is_a_read_only_view_with_the_copy_bytes():
    """The section is the window's view, not a copy; its bytes are those of
    ``phihat`` read at each entry's own index ``-(j+1) - k``."""
    rng = Lcg(13)
    phi = ExactCircle({n: rng.coefficient() for n in range(-40, 6)})
    for size in (1, 9, 32):
        B = build_disc_hankel(phi, size)
        assert not B.flags.writeable
        with pytest.raises(ValueError):
            B[0, 0] = 1.0
        j = np.arange(size)
        want = phi.hat(-(np.add.outer(j, j) + 1))
        assert B.dtype == want.dtype and B.shape == want.shape
        assert B.tobytes() == want.tobytes()


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


def test_disc_sections_and_sweeps_refuse_a_side_below_one():
    """A side of 0 would give an empty section, and a negative one an empty
    view read from no coefficient: both builders refuse them, and a sweep
    refuses any such size even beside a positive one."""
    phi = ExactCircle({-1: 1.0, 2: 0.5})
    for size in (0, -3):
        with pytest.raises(ValueError, match="section size must be positive"):
            build_disc_toeplitz(phi, size)
        with pytest.raises(ValueError, match="section size must be positive"):
            build_disc_hankel(phi, size)
        with pytest.raises(ValueError, match="section size must be positive"):
            decay_profile_for(phi, [size, 8], "C")


def test_sketch_zeroes_a_column_that_lies_in_the_span_so_far(monkeypatch):
    """With the test product formed exactly (the dense block times the Weyl
    rows), a block that vanishes from row 8 on gives 48 columns of ``Y`` in
    one 8-dimensional coordinate span, exactly.  Past the eighth, every
    Gram-Schmidt pass removes most of what a column keeps, and the column
    still falling after the last pass is zeroed rather than normalized from
    rounding.  So ``Q`` stays orthonormal: the residual is at rounding level
    and the values lie within the allowance of ``eigvalsh``'s.  (The error
    bound itself, about 1.1 allowances here, is forced to pass: eight
    coefficients give the allowance little room.)"""
    L = reduction.SKETCH_MIN
    index = np.add.outer(np.arange(L), np.arange(L))
    h = np.zeros(2 * L - 1)
    h[:8] = 1.0 / np.arange(1, 9)
    monkeypatch.setattr(reduction, "hankel_apply", lambda h, X: X @ h[index])
    monkeypatch.setattr(reduction, "_captured", lambda evidence, allowance: True)
    got, route = reduction._sketch(h[index])
    assert route["residual"] < 1e-3 * route["allowance"]
    assert np.max(np.abs(got - _dense_values(h[index]))) <= route["allowance"]
    assert got[7] > 1e-3 and np.all(got[8:] <= route["allowance"])
