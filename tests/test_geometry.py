import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from annulab import geometry
from annulab.errors import AliasingError
from annulab.geometry import (
    AnnulusGeometry,
    basis_weights,
    bergman_norm_const,
    complement_basis_eval,
    gram_matrix,
    hardy_basis_eval,
)
from annulab.hardy import build_section_quadrature
from annulab.randgen import Lcg, random_boundary_symbol
from annulab.symbols import sample_symbol

R = 0.5


def test_geometry_validation():
    with pytest.raises(ValueError):
        AnnulusGeometry(R=1.5)
    with pytest.raises(ValueError):
        AnnulusGeometry(R=0.0)
    with pytest.raises(ValueError):
        AnnulusGeometry(m_circle=100)  # not a power of two
    with pytest.raises(ValueError):
        AnnulusGeometry(m_circle=4)  # power of two but below 8


def test_hardy_basis_constant():
    assert hardy_basis_eval(0, "C", 0.3, R) == pytest.approx(1 / math.sqrt(2))
    assert hardy_basis_eval(0, "C0", 1.7, R) == pytest.approx(1 / math.sqrt(2))


def test_hardy_basis_degree_one_at_unit_point():
    # z = 1 on the outer circle
    assert hardy_basis_eval(1, "C", 0.0, R) == pytest.approx(1 / math.sqrt(1.25))


def test_hardy_basis_inner_circle_carries_radius():
    val = hardy_basis_eval(3, "C0", 0.0, R)
    assert val == pytest.approx(R**3 / math.sqrt(1 + R**6))


def test_complement_constant_signs():
    assert complement_basis_eval(0, "C", 0.2, R) == pytest.approx(1 / math.sqrt(2))
    assert complement_basis_eval(0, "C0", 0.2, R) == pytest.approx(-1 / math.sqrt(2))


def test_gram_identity(geo):
    """Both families together are orthonormal under two-circle quadrature."""
    G = gram_matrix(geo, 20)
    dev = np.max(np.abs(G - np.eye(G.shape[0])))
    assert dev <= 1e-12


def _swapped_complement(n, component, angles, R_):
    B, A = geometry.basis_weights(n, R_)
    return geometry._on_circle(n, component, angles, -B, A)


def _hardy_c0_shifted(n, component, angles, R_):
    shift = np.pi / 180 if component == "C0" else 0.0
    return hardy_basis_eval(n, component, np.asarray(angles) + shift, R_)


def _per_pair_gram(g, ns):
    t = g.angles()
    rows = {
        comp: [geometry.hardy_basis_eval(n, comp, t, g.R) for n in ns]
        + [geometry.complement_basis_eval(n, comp, t, g.R) for n in ns]
        for comp in ("C", "C0")
    }
    size = 2 * len(ns)
    ref = np.empty((size, size), dtype=complex)
    for j in range(size):
        for k in range(size):
            ref[j, k] = sum(
                np.sum(rows[c][j] * np.conj(rows[c][k])) for c in ("C", "C0")
            ) / g.m_circle
    return ref


@pytest.mark.parametrize("shifted", [False, True])
def test_gram_matches_per_pair_trapezoid_loop(monkeypatch, shifted):
    """The loop pairs one function's samples with another's, per circle,
    as the trapezoid rule reads them.  The shifted system is not
    orthonormal, so the loop also checks off-diagonal entries well away
    from zero in both parts."""
    if shifted:
        monkeypatch.setattr(geometry, "hardy_basis_eval", _hardy_c0_shifted)
    g = AnnulusGeometry(R=R, m_circle=2048)
    G = gram_matrix(g, 20)
    assert np.max(np.abs(G - _per_pair_gram(g, range(-20, 21)))) <= 1e-14
    assert np.array_equal(G, G.conj().T)


def _hardy_spread(n, component, angles, R_):
    """Every sample scaled by 1 + noise/100: each bin of every row holds a
    coefficient far above the drop threshold, so no bin may be dropped."""
    noise = np.random.default_rng(7).standard_normal(np.shape(angles))
    return hardy_basis_eval(n, component, angles, R_) * (1.0 + noise / 100)


@pytest.mark.parametrize("defect", [None, _hardy_c0_shifted, _hardy_spread])
def test_gram_matches_the_loop_across_row_blocks(monkeypatch, defect):
    """Six degrees per block split -20..20 into seven blocks, the last one
    short; the Parseval sums over the kept bins must give the trapezoid
    sums of the loop, for the basis, a shifted inner circle and a defect
    whose spectrum fills every bin."""
    if defect is not None:
        monkeypatch.setattr(geometry, "hardy_basis_eval", defect)
    monkeypatch.setattr(geometry, "_GRAM_BLOCK", 6)
    g = AnnulusGeometry(R=R, m_circle=256)
    if defect is _hardy_spread:
        coef = np.fft.fft(defect(np.arange(-20, 21), "C", g.angles(), R), norm="forward")
        assert np.all(np.abs(coef).max(axis=0) > np.sqrt(np.finfo(float).eps / 256))
    G = gram_matrix(g, 20)
    assert np.max(np.abs(G - _per_pair_gram(g, range(-20, 21)))) <= 1e-14
    assert np.array_equal(G, G.conj().T)


def test_gram_is_the_real_product_of_the_unblocked_spectra(monkeypatch):
    """Row blocks bound the buffers and change no bit: the Gram is the real
    ``V V^T`` plus ``K - K^T`` product of all rows' kept bins at once."""
    monkeypatch.setattr(geometry, "_GRAM_BLOCK", 6)
    g, ns = AnnulusGeometry(R=R, m_circle=256), np.arange(-20, 21)
    kept = []
    for comp in ("C", "C0"):
        rows = [ev(ns, comp, g.angles(), R) for ev in (hardy_basis_eval, complement_basis_eval)]
        c = np.fft.fft(np.concatenate(rows), norm="forward")
        keep = ~np.all(np.abs(c) <= np.sqrt(np.finfo(float).eps / 256), axis=0)
        kept.append(c[:, keep])
    # C order, as the kernel's gather gives it: BLAS rounds by layout
    V = np.ascontiguousarray(np.concatenate([k.real for k in kept] + [k.imag for k in kept], 1))
    K = V[:, V.shape[1] // 2 :] @ V[:, : V.shape[1] // 2].T
    want = (V @ V.T).astype(complex)
    want.imag = K - K.T
    assert gram_matrix(g, 20).tobytes() == want.tobytes()


def _hardy_faint_tone(n, component, angles, R_):
    """Every row gains a tone at degree 12, far below the drop threshold.
    The weighted columns are large in that bin, so a drop rule that read
    the rows alone would lose about 1e-10 times their coefficient."""
    tone = 1e-10 * np.exp(12j * np.asarray(angles))
    return hardy_basis_eval(n, component, angles, R_) + tone


def _hardy_mid_tone(n, component, angles, R_):
    """Every row gains a tone of amplitude 5e-7 at degree 20, so rows and
    weighted columns both hold coefficients between the drop threshold
    ``sqrt(eps / 64)`` (about 1.9e-9) and 1e-6 there.  The pairs of such
    bins add about 1e-13 to an entry: a threshold of 1e-6 drops them."""
    tone = 5e-7 * np.exp(20j * np.asarray(angles))
    return hardy_basis_eval(n, component, angles, R_) + tone


def _per_entry_sections(f, lo, hi, g):
    """Toeplitz and Hankel sections as one trapezoid mean per entry and
    circle: the symbol times hardy column ``k`` against row ``j`` of the
    hardy or the complement family."""
    t, size = g.angles(), hi - lo + 1
    T, H = np.zeros((size, size), dtype=complex), np.zeros((size, size), dtype=complex)
    for comp, vals in zip(("C", "C0"), sample_symbol(f, g)):
        for col, k in enumerate(range(lo, hi + 1)):
            u = vals * geometry.hardy_basis_eval(k, comp, t, g.R)
            for row, j in enumerate(range(lo, hi + 1)):
                T[row, col] += np.mean(u * np.conj(geometry.hardy_basis_eval(j, comp, t, g.R)))
                H[row, col] += np.mean(
                    u * np.conj(geometry.complement_basis_eval(j, comp, t, g.R))
                )
    return T, H


@pytest.mark.parametrize("block", [256, 6])
@pytest.mark.parametrize(
    "defect", [None, _hardy_c0_shifted, _hardy_spread, _hardy_faint_tone, _hardy_mid_tone]
)
def test_sections_match_the_per_entry_loop(monkeypatch, defect, block):
    """Both quadrature sections equal the per-entry trapezoid means on an
    asymmetric window, in one row block or in three, for the basis, a
    shifted inner circle, a defect whose spectrum keeps every bin, one
    whose rows are faint where the weighted columns are not, and one that
    is faint on both sides but above the drop threshold."""
    if defect is not None:
        monkeypatch.setattr(geometry, "hardy_basis_eval", defect)
    monkeypatch.setattr(geometry, "_GRAM_BLOCK", block)
    g, f = AnnulusGeometry(R=R, m_circle=64), random_boundary_symbol(Lcg(17), 4)
    if defect is _hardy_spread:
        coef = np.fft.fft(defect(np.arange(-5, 10), "C", g.angles(), R), norm="forward")
        assert np.all(np.abs(coef).max(axis=0) > np.sqrt(np.finfo(float).eps / 64))
    got = build_section_quadrature(f, (-5, 9), g)
    for section, want in zip(got, _per_entry_sections(f, -5, 9, g)):
        assert np.max(np.abs(section - want)) <= 1e-14


@pytest.mark.parametrize(
    "n, t",
    [
        (np.arange(-256, 257), AnnulusGeometry(m_circle=2048).angles()),
        (np.array([5, -3, 0, -7, 7, 2, -2, -9]), AnnulusGeometry(m_circle=64).angles()),
        (np.arange(-300, 40), np.random.default_rng(3).uniform(-50.0, 50.0, 999)),
        (np.array([[1, -1], [2, -5]]), np.random.default_rng(4).uniform(-3.0, 3.0, (3, 4))),
        (-4, AnnulusGeometry(m_circle=16).angles()),
        (-3, 0.0),
        (7, -0.7),
        (0, 2.5),
        (np.arange(-5, 6), np.array([0.0, -0.0, np.pi, -np.pi, 1e300, 1e-310])),
    ],
    ids=["window", "mixed", "asymmetric-offgrid", "2d", "scalar-n", "scalar-zero",
         "scalar-negative-t", "scalar-zero-degree", "edge-angles"],
)
def test_on_circle_has_the_bits_of_the_direct_exp(n, t):
    """One exp per |n|, conjugated for negative n, must give the bits of
    exp(i n t) itself; if a platform's exp breaks the symmetry this fails
    instead of rows moving silently."""
    w = np.random.default_rng(5).uniform(-1.0, 1.0, (2,) + np.shape(n))
    for comp, weights in (("C", w[0]), ("C0", w[1])):
        got = geometry._on_circle(n, comp, t, w[0], w[1])
        want = np.exp(1j * np.multiply.outer(n, t)) * np.reshape(
            weights, np.shape(n) + (1,) * np.ndim(t)
        )
        assert type(got) is type(want) and np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize(
    "name, defect",
    [
        ("complement_basis_eval", _swapped_complement),
        ("hardy_basis_eval", _hardy_c0_shifted),
    ],
)
def test_gram_sees_a_planted_basis_defect(monkeypatch, name, defect):
    # at R 0.5 the one-degree shift moves G by only 8.2e-3, so the
    # threshold is read at R 0.8, where it moves G by 2.6e-2
    g = AnnulusGeometry(R=0.8, m_circle=2048)
    monkeypatch.setattr(geometry, name, defect)
    G = gram_matrix(g, 20)
    assert np.max(np.abs(G - np.eye(G.shape[0]))) > 1e-2


def test_gram_window_guard(small_geo):
    # the pairing kernel's rule with reach 0: degrees -W..W span 2W, exact
    # below m_circle and refused at it (the trapezoid sum of exp(i m t) is 1)
    W = small_geo.m_circle // 2
    G = gram_matrix(small_geo, W - 1)
    assert np.max(np.abs(G - np.eye(G.shape[0]))) <= 1e-13
    with pytest.raises(AliasingError, match="not resolved"):
        gram_matrix(small_geo, W)


def test_trapezoid_exact_on_trig_polynomials():
    geo = AnnulusGeometry(m_circle=16)
    th = geo.angles()
    for k in range(1, 8):
        assert abs(np.mean(np.exp(1j * k * th))) <= 1e-15
    assert np.mean(np.exp(0j * th)) == pytest.approx(1.0)


def test_bergman_norm_log_case():
    assert bergman_norm_const(-1, math.exp(-1.0)) == pytest.approx(1.0)


def test_bergman_norm_constant_term():
    assert bergman_norm_const(0, R) == pytest.approx(math.sqrt(8.0 / 3.0))


def _scalar_bergman_norm(n, R_):
    """The per-index closed form, kept as the reference."""
    if n == -1:
        return float(1.0 / np.sqrt(np.log(1.0 / R_)))
    k = 2 * (n + 1)
    return float(np.sqrt(k / (1.0 - R_**k)))


@pytest.mark.parametrize("R_", [0.05, 0.1, 0.5, 0.9])
def test_bergman_norm_array_has_the_bits_of_the_scalar_form(R_):
    """One array call, the logarithmic limit included, gives the scalar
    form's bits at every degree, and a scalar call gives one number."""
    ns = np.arange(-1, 401)
    want = np.array([_scalar_bergman_norm(int(n), R_) for n in ns])
    assert bergman_norm_const(ns, R_).tobytes() == want.tobytes()
    for n in (-1, 0, 7, 400):
        got = bergman_norm_const(n, R_)
        assert np.ndim(got) == 0 and got == _scalar_bergman_norm(n, R_)


def bergman_monomial_norm_quadrature(n: int, geo: AnnulusGeometry) -> float:
    """Quadrature value of the squared Bergman norm of ``z^n`` (radial moment)."""
    r, w = geo.radial_nodes()
    return float(np.sum(w * r ** (2 * n + 1)))


def test_bergman_monomial_norms_quadrature(geo):
    for n in range(-10, 11):
        t = bergman_norm_const(n, R)
        norm = t * math.sqrt(bergman_monomial_norm_quadrature(n, geo))
        assert norm == pytest.approx(1.0, abs=1e-10)


@given(st.integers(min_value=-30, max_value=30), st.sampled_from([0.3, 0.5, 0.9]))
def test_norm_constant_square_identity(n, r):
    # (2 r^n)^2 + (1 - r^(2n))^2 = (1 + r^(2n))^2, scaled to dodge overflow
    w = r ** (2 * abs(n))
    lhs = (2 * r ** abs(n)) ** 2 + (1 - w) ** 2
    assert lhs == pytest.approx((1 + w) ** 2, rel=1e-14)


@given(st.integers(min_value=-40, max_value=40))
def test_basis_weight_is_the_hardy_norm(n):
    B, A = basis_weights(n, R)
    assert 1.0 / B == pytest.approx(math.sqrt(1 + R ** (2 * n)))
    assert A / B == pytest.approx(R**n)


@pytest.mark.parametrize("r", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("n", [0, 1, -1, 154, -154, 155, -155, 600, -600, 2000, -2000])
def test_basis_weights_match_high_precision(n, r):
    B, A = basis_weights(n, r)
    tiny = np.finfo(float).tiny
    with mpmath.workdps(50):
        rr = mpmath.mpf(r)
        norm = mpmath.sqrt(1 + rr ** (2 * n))
        for got, want in ((B, 1 / norm), (A, rr**n / norm)):
            assert np.isfinite(got) and 0.0 <= got <= 1.0
            err = abs(mpmath.mpf(float(got)) - want)
            # below the normal range only an absolute bound is representable
            assert err <= 1e-15 * want if want >= tiny else err <= tiny


@pytest.mark.parametrize("ev", [hardy_basis_eval, complement_basis_eval])
@pytest.mark.parametrize("comp", ["C", "C0"])
def test_array_degrees_give_the_scalar_rows(ev, comp, small_geo):
    ns = np.arange(-170, 171, 17)
    t = small_geo.angles()
    table = ev(ns, comp, t, 0.1)
    assert table.shape == (len(ns), len(t))
    for row, n in zip(table, ns):
        assert np.array_equal(row, ev(int(n), comp, t, 0.1))
