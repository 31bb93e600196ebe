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
from annulab.reduction import conjugate_reflection_residual
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


def _owner_rule_gram(g, ns):
    """The pair rule on all rows' unblocked spectra, as dense products:
    ``S C^H + C S^H - S S^H`` per circle, ``S`` the coefficients ``C`` with
    ``not |c| <= sqrt(eps / m)`` and zero elsewhere."""
    tau, G = np.sqrt(np.finfo(float).eps / g.m_circle), 0
    for comp in ("C", "C0"):
        rows = [ev(ns, comp, g.angles(), g.R)
                for ev in (geometry.hardy_basis_eval, geometry.complement_basis_eval)]
        C = np.fft.fft(np.concatenate(rows), norm="forward")
        S = np.where(np.abs(C) <= tau, 0, C)
        G = G + S @ C.conj().T + C @ S.conj().T - S @ S.conj().T
    return G


def test_gram_follows_the_owner_rule_and_blocks_change_no_bit(monkeypatch):
    """Row blocks and owner chunks bound the buffers and change no bit, and
    the Gram is the pair rule's sum over all rows' spectra at once."""
    g, ns = AnnulusGeometry(R=R, m_circle=256), np.arange(-20, 21)
    G = gram_matrix(g, 20)
    monkeypatch.setattr(geometry, "_GRAM_BLOCK", 6)
    assert gram_matrix(g, 20).tobytes() == G.tobytes()
    assert np.max(np.abs(G - _owner_rule_gram(g, ns))) <= 1e-15


def _faint_noise(n, component, angles, R_, degrees, m):
    """Hardy rows 3 and 5 gain, on the unit circle only, a tone of
    amplitude ``0.9 sqrt(eps / m)`` at each of ``degrees``: faint in every
    bin, and summed over many bins."""
    vals = hardy_basis_eval(n, component, angles, R_)
    if component == "C":
        phase = np.exp(2j * np.pi * np.random.default_rng(0).random(len(degrees)))
        tone = phase @ np.exp(1j * np.multiply.outer(degrees, np.asarray(angles)))
        rows = np.reshape(vals, (-1, np.size(angles)))
        rows[np.isin(np.ravel(n), [3, 5])] += 0.9 * np.sqrt(np.finfo(float).eps / m) * tone
    return vals


@pytest.mark.parametrize("owned", [False, True], ids=["unowned-bins", "owned-bins"])
def test_gram_drops_only_pairs_of_faint_coefficients(monkeypatch, owned):
    """Rows 3 and 5 are faint in many bins.  Without owners there (+-20 on
    256 nodes, the bins of degrees 21..235) their faint pairs are all the
    entry holds beyond rounding; with owners there (+-31 on 64 nodes, every
    bin but 32) row 5's tone at degree 3 also meets row 3's owner, and that
    pair is summed.  Either way the faint pairs, and only they, are
    dropped: the entry leaves the loop's by at most eps, visibly, and
    keeps the pair rule's value to rounding of its own size."""
    W, m = (31, 64) if owned else (20, 256)
    degrees = np.arange(-W, W + 1) if owned else np.arange(W + 1, m - W)
    monkeypatch.setattr(
        geometry, "hardy_basis_eval",
        lambda n, c, t, R_: _faint_noise(n, c, t, R_, degrees, m),
    )
    g, ns = AnnulusGeometry(R=R, m_circle=m), np.arange(-W, W + 1)
    G, loop = gram_matrix(g, W), _per_pair_gram(g, ns)
    j, k = W + 3, W + 5
    assert np.max(np.abs(G - loop)) <= 1e-14
    assert 1e-16 < abs(G[j, k] - loop[j, k]) <= np.finfo(float).eps
    assert abs(G[j, k] - _owner_rule_gram(g, ns)[j, k]) <= 1e-24
    assert (abs(G[j, k]) > 1e-9) == owned


def test_gram_nan_coefficient_in_a_bin_no_row_owns_reaches_the_output(monkeypatch):
    """A NaN is an owner (the test is ``not |c| <= tau``), so even one NaN
    coefficient in a bin whose other coefficients are all faint keeps its
    bin and reaches its row and column of the Gram."""
    fft = np.fft.fft

    def nan_in_bin_100(a, *args, out=None, **kwargs):
        got = fft(a, *args, out=out, **kwargs)
        got[0, 100] = np.nan
        return got

    monkeypatch.setattr(np.fft, "fft", nan_in_bin_100)
    G = gram_matrix(AnnulusGeometry(R=R, m_circle=256), 20)
    monkeypatch.undo()
    # every FFT call marks its block's first row: the degree 0 of both families
    full = np.isnan(G).all(axis=1)
    assert list(np.flatnonzero(full)) == [20, 61]
    assert np.isnan(G[:, full]).all()


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


#: (id, n, t); the signed-zero pair differs only in the sign of one zero
_PHASE_CASES = [
    ("window", np.arange(-256, 257), AnnulusGeometry(m_circle=2048).angles()),
    ("mixed", np.array([5, -3, 0, -7, 7, 2, -2, -9]), AnnulusGeometry(m_circle=64).angles()),
    ("asymmetric-offgrid", np.arange(-300, 40),
     np.random.default_rng(3).uniform(-50.0, 50.0, 999)),
    ("2d", np.array([[1, -1], [2, -5]]), np.random.default_rng(4).uniform(-3.0, 3.0, (3, 4))),
    ("scalar-n", -4, AnnulusGeometry(m_circle=16).angles()),
    ("scalar-zero", -3, 0.0),
    ("scalar-negative-t", 7, -0.7),
    ("scalar-zero-degree", 0, 2.5),
    ("edge-angles", np.arange(-5, 6), np.array([0.0, -0.0, np.pi, -np.pi, 1e300, 1e-310])),
    ("positive-zero", np.arange(-5, 6), np.array([1.5, 0.0, -2.0])),
    ("negative-zero", np.arange(-5, 6), np.array([1.5, -0.0, -2.0])),
]


def _check_direct_exp_bits(n, t):
    w = np.random.default_rng(5).uniform(-1.0, 1.0, (2,) + np.shape(n))
    for comp, weights in (("C", w[0]), ("C0", w[1])):
        got = geometry._on_circle(n, comp, t, w[0], w[1])
        want = np.exp(1j * np.multiply.outer(n, t)) * np.reshape(
            weights, np.shape(n) + (1,) * np.ndim(t)
        )
        assert type(got) is type(want) and np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("case", range(len(_PHASE_CASES)), ids=[c[0] for c in _PHASE_CASES])
def test_on_circle_has_the_bits_of_the_direct_exp(monkeypatch, case):
    """One exp per |n|, conjugated for negative n, must give the bits of
    exp(i n t) itself; if a platform's exp breaks the symmetry this fails
    instead of rows moving silently.  Each case runs cold, then after the
    next case has taken the phase table, then warm on its own table."""
    monkeypatch.setattr(geometry, "_PHASE_SLOT", [None, None])
    for i in (case, (case + 1) % len(_PHASE_CASES), case, case):
        _check_direct_exp_bits(*_PHASE_CASES[i][1:])


def test_samples_are_fresh_and_the_held_table_is_read_only():
    """A caller may write into its samples: the gather copies the held
    table, which itself refuses writes."""
    t = AnnulusGeometry(m_circle=64).angles()
    n = np.arange(-5, 6)
    want = hardy_basis_eval(n, "C0", t, R).tobytes()
    hardy_basis_eval(n, "C0", t, R)[...] = np.nan
    complement_basis_eval(n, "C0", t, R)[...] = np.nan
    assert hardy_basis_eval(n, "C0", t, R).tobytes() == want
    table = geometry._PHASE_SLOT[1]
    assert table.shape == (6, 64) and not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 0.0


@pytest.mark.parametrize(
    "build, tables",
    [
        (lambda: build_section_quadrature(
            random_boundary_symbol(Lcg(1), 4), (-64, 64), AnnulusGeometry(R=R, m_circle=4096)), 1),
        (lambda: gram_matrix(AnnulusGeometry(R=R, m_circle=2048), 256), 4),
        (lambda: conjugate_reflection_residual(5, AnnulusGeometry(R=R, m_circle=256)), 1),
    ],
    ids=["section-pair", "gram", "conjugate-reflection"],
)
def test_phase_tables_built_per_call(monkeypatch, build, tables):
    """Both families on both circles share a block's table; the Gram at
    +-256 has two blocks per circle, and the one slot keeps only the last."""
    monkeypatch.setattr(geometry, "_PHASE_SLOT", [None, None])
    phases, seen = geometry._phases, []

    def recorded(a, t):
        seen.append(phases(a, t))
        return seen[-1]

    monkeypatch.setattr(geometry, "_phases", recorded)
    build()
    assert len({id(table) for table in seen}) == tables


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
