import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import grid_angles

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


GRID16 = AnnulusGeometry(R=R, m_circle=16)


def test_hardy_basis_constant():
    assert np.all(hardy_basis_eval(0, "C", GRID16) == 1 / math.sqrt(2))
    assert np.all(hardy_basis_eval(0, "C0", GRID16) == 1 / math.sqrt(2))


def test_hardy_basis_degree_one_at_unit_point():
    # z = 1 on the outer circle: node 0
    assert hardy_basis_eval(1, "C", GRID16)[0] == pytest.approx(1 / math.sqrt(1.25))


def test_hardy_basis_inner_circle_carries_radius():
    val = hardy_basis_eval(3, "C0", GRID16)[0]
    assert val == pytest.approx(R**3 / math.sqrt(1 + R**6))


def test_complement_constant_signs():
    assert np.all(complement_basis_eval(0, "C", GRID16) == 1 / math.sqrt(2))
    assert np.all(complement_basis_eval(0, "C0", GRID16) == -1 / math.sqrt(2))


def test_gram_identity(geo):
    """Both families together are orthonormal under two-circle quadrature."""
    G = gram_matrix(geo, 20)
    dev = np.max(np.abs(G - np.eye(G.shape[0])))
    assert dev <= 1e-12


def _swapped_complement(n, component, g):
    B, A = geometry.basis_weights(n, g.R)
    return geometry._on_circle(n, component, g, -B, A)


def _c0_shifted(evaluate):
    """An evaluator whose inner-circle samples are taken one degree further
    round: the angle shift ``t -> t + pi / 180`` as its phase factor ``exp(i
    n pi / 180)``."""
    def shifted(n, component, g):
        vals = evaluate(n, component, g)
        if component == "C0":
            vals *= np.exp(1j * np.pi / 180 * np.asarray(n))[..., None]
        return vals
    return shifted


def _hardy_c0_shifted(n, component, g):
    """The hardy family's inner-circle samples one degree further round."""
    return _c0_shifted(hardy_basis_eval)(n, component, g)


def _per_pair_gram(g, ns):
    rows = {
        comp: [geometry.hardy_basis_eval(n, comp, g) for n in ns]
        + [geometry.complement_basis_eval(n, comp, g) for n in ns]
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


def _hardy_spread(n, component, g):
    """Every sample scaled by 1 + noise/100: each bin of every row holds a
    coefficient far above the drop threshold, so no bin may be dropped."""
    noise = np.random.default_rng(7).standard_normal(g.m_circle)
    return hardy_basis_eval(n, component, g) * (1.0 + noise / 100)


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
        coef = np.fft.fft(defect(np.arange(-20, 21), "C", g), norm="forward")
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
        rows = [ev(ns, comp, g)
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


def test_pairing_kernel_evaluates_blocks_in_output_order(monkeypatch):
    """The kernel samples its degrees block by block in the order of ``ns``:
    with six degrees per block, the Gram at +-20 hands the hardy evaluator
    on C consecutive ascending slices of -20..20, so each block's spectra
    are its output rows."""
    seen, evaluate = [], geometry.hardy_basis_eval

    def recorded(n, component, g):
        if component == "C":
            seen.append(list(n))
        return evaluate(n, component, g)

    monkeypatch.setattr(geometry, "hardy_basis_eval", recorded)
    monkeypatch.setattr(geometry, "_GRAM_BLOCK", 6)
    gram_matrix(AnnulusGeometry(R=R, m_circle=256), 20)
    ns = list(range(-20, 21))
    assert seen == [ns[lo : lo + 6] for lo in range(0, len(ns), 6)]


@st.composite
def _blocked_windows(draw):
    """A block size, a grid and a window of ``N`` degrees the grid resolves
    beside a reach-4 symbol: one degree, ``k`` blocks plus one, or any
    count, across degree 0 or anywhere (so mostly asymmetric)."""
    block = draw(st.integers(1, 40))
    m = draw(st.sampled_from([64, 128, 256, 512]))
    most = min(m - 4, 161)
    N = draw(st.one_of(
        st.just(1),
        st.integers(1, (most - 1) // block).map(lambda k: k * block + 1),
        st.integers(1, most),
    ))
    lo = draw(st.one_of(st.integers(1 - N, 0), st.integers(-m, m)))
    return block, m, draw(st.sampled_from([0.1, 0.5, 0.9])), (lo, lo + N - 1)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(_blocked_windows())
def test_block_size_changes_no_bit_of_the_pairings(case):
    """The Gram and both quadrature sections keep every bit whatever the
    number of degrees per block: each row's FFT and owners are its own.  The
    default block, the old one of 257 and a drawn one give the same bytes."""
    block, m, R_, (lo, hi) = case
    g, f = AnnulusGeometry(R=R_, m_circle=m), random_boundary_symbol(Lcg(lo % 97), 4)
    W = (hi - lo) // 2

    def pairings():
        sections = build_section_quadrature(f, (lo, hi), g)
        return gram_matrix(g, W).tobytes(), np.stack(sections).tobytes()

    got = []
    for size in (257, geometry._GRAM_BLOCK, block):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(geometry, "_GRAM_BLOCK", size)
            got.append(pairings())
    assert got[0] == got[1] == got[2]


def _faint_noise(n, component, g, degrees, m):
    """Hardy rows 3 and 5 gain, on the unit circle only, a tone of
    amplitude ``0.9 sqrt(eps / m)`` at each of ``degrees``: faint in every
    bin, and summed over many bins."""
    vals = hardy_basis_eval(n, component, g)
    if component == "C":
        phase = np.exp(2j * np.pi * np.random.default_rng(0).random(len(degrees)))
        tone = phase @ np.exp(1j * np.multiply.outer(degrees, grid_angles(g)))
        rows = np.reshape(vals, (-1, m))
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
        lambda n, c, g_: _faint_noise(n, c, g_, degrees, m),
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
    # every FFT call marks its block's first row: the window's first degree,
    # -20, in both families
    full = np.isnan(G).all(axis=1)
    assert list(np.flatnonzero(full)) == [0, 41]
    assert np.isnan(G[:, full]).all()


def _hardy_faint_tone(n, component, g):
    """Every row gains a tone at degree 12, far below the drop threshold.
    The weighted columns are large in that bin, so a drop rule that read
    the rows alone would lose about 1e-10 times their coefficient."""
    tone = 1e-10 * np.exp(12j * grid_angles(g))
    return hardy_basis_eval(n, component, g) + tone


def _hardy_mid_tone(n, component, g):
    """Every row gains a tone of amplitude 5e-7 at degree 20, so rows and
    weighted columns both hold coefficients between the drop threshold
    ``sqrt(eps / 64)`` (about 1.9e-9) and 1e-6 there.  The pairs of such
    bins add about 1e-13 to an entry: a threshold of 1e-6 drops them."""
    tone = 5e-7 * np.exp(20j * grid_angles(g))
    return hardy_basis_eval(n, component, g) + tone


def _per_entry_sections(f, lo, hi, g):
    """Toeplitz and Hankel sections as one trapezoid mean per entry and
    circle: the symbol times hardy column ``k`` against row ``j`` of the
    hardy or the complement family."""
    size = hi - lo + 1
    T, H = np.zeros((size, size), dtype=complex), np.zeros((size, size), dtype=complex)
    for comp, vals in zip(("C", "C0"), sample_symbol(f, g)):
        for col, k in enumerate(range(lo, hi + 1)):
            u = vals * geometry.hardy_basis_eval(k, comp, g)
            for row, j in enumerate(range(lo, hi + 1)):
                T[row, col] += np.mean(u * np.conj(geometry.hardy_basis_eval(j, comp, g)))
                H[row, col] += np.mean(
                    u * np.conj(geometry.complement_basis_eval(j, comp, g))
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
        coef = np.fft.fft(defect(np.arange(-5, 10), "C", g), norm="forward")
        assert np.all(np.abs(coef).max(axis=0) > np.sqrt(np.finfo(float).eps / 64))
    got = build_section_quadrature(f, (-5, 9), g)
    for section, want in zip(got, _per_entry_sections(f, -5, 9, g)):
        assert np.max(np.abs(section - want)) <= 1e-14


#: (id, n, m_circle, R); at R 0.1 the weight A of degree 400 is +0.0, and
#: the complement's inner weight -B of degree -400 is -0.0
_SAMPLE_CASES = [
    ("window", np.arange(-256, 257), 2048, R),
    ("mixed", np.array([5, -3, 0, -7, 7, 2, -2, -9]), 64, R),
    ("2d", np.array([[1, -1], [2, -5]]), 16, R),
    ("scalar-n", -4, 16, R),
    ("scalar-zero-degree", 0, 64, R),
    ("edge-angles", np.array([0, 4, -4, 8, -8, 12, 2, -6]), 16, R),
    ("positive-zero", np.array([400, 3, -2]), 64, 0.1),
    ("negative-zero", np.array([-400, 3, -2]), 64, 0.1),
    ("wrapping", np.array([2**40 + 3, -(2**40) - 3, 2**62 + 5, 64 * 7 - 1]), 64, R),
]


def _gather(n, g):
    """Row ``n`` of the roots table read at ``n j mod m``, reduced in Python
    integers: the table is the sampler's row of degree 1."""
    m, roots = g.m_circle, g.phases(1)
    rows = [roots[[int(a) * j % m for j in range(m)]] for a in np.ravel(n)]
    return np.reshape(rows, np.shape(n) + (m,))


@pytest.mark.parametrize("case", range(len(_SAMPLE_CASES)), ids=[c[0] for c in _SAMPLE_CASES])
def test_on_circle_is_the_exact_gather_times_the_weight(case):
    """Every sample is the weight times one root of unity, read at the index
    ``n j mod m`` exactly, bit for bit: the reduction never rounds, however
    large ``n``, and a weight's signed zero reaches the sample as the
    product gives it."""
    _, n, m, R_ = _SAMPLE_CASES[case]
    g = AnnulusGeometry(R=R_, m_circle=m)
    B, A = basis_weights(n, R_)
    for ev, weights in ((hardy_basis_eval, (B, A)), (complement_basis_eval, (A, -B))):
        for comp, w in zip(("C", "C0"), weights):
            want = _gather(n, g) * np.reshape(w, np.shape(n) + (1,))
            got = ev(n, comp, g)
            assert got.shape == np.shape(n) + (m,)
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("m", [8, 64, 2048])
def test_negated_degree_samples_the_conjugate(m):
    """The roots table mirrors by conjugation and its axis points are
    exact, so row ``-n`` is ``conj(row n)`` bit for bit, except that a zero
    imaginary part (at the samples 1 and -1) keeps its sign ``+0``."""
    g, n = AnnulusGeometry(m_circle=m), np.arange(-m, m + 1)
    roots = g.phases(1)
    assert roots[0] == 1 and roots[m // 4] == 1j and roots[m // 2] == -1
    assert roots[3 * m // 4] == -1j
    mirror = roots[(m - np.arange(m)) % m]
    assert np.array_equal(mirror, roots.conj())
    got, want = g.phases(-n), g.phases(n).conj()
    assert got.real.tobytes() == want.real.tobytes()
    zero = want.imag == 0
    assert got.imag[~zero].tobytes() == want.imag[~zero].tobytes()
    assert np.all(got.imag[zero] == 0)


@pytest.mark.parametrize("m", [64, 2048])
def test_roots_table_is_within_two_eps_of_the_exact_roots(m):
    """Each root differs from ``exp(2 pi i k / m)``, taken to 40 digits, by
    at most twice the machine epsilon."""
    roots = AnnulusGeometry(m_circle=m).phases(1)
    with mpmath.workdps(40):
        err = max(
            abs(mpmath.mpc(z.real, z.imag) - mpmath.expjpi(mpmath.mpf(2 * k) / m))
            for k, z in enumerate(roots)
        )
    assert err <= 2 * np.finfo(float).eps


def test_a_huge_degree_samples_its_residue():
    """``n = 2^40 + 3`` on 64 nodes gives the samples of degree 3, exactly,
    times the weights of ``n`` itself."""
    g, n = AnnulusGeometry(R=R, m_circle=64), 2**40 + 3
    B, A = basis_weights(n, R)
    assert g.phases(n).tobytes() == g.phases(3).tobytes()
    for comp, w in (("C", B), ("C0", A)):
        assert hardy_basis_eval(n, comp, g).tobytes() == (g.phases(3) * w).tobytes()


def test_gram_at_256_is_the_identity_to_rounding():
    """With exact index reduction no sample carries a phase error from a
    rounded angle ``n t``: the Gram at +-256 on 2048 nodes is the identity
    to 1e-15 (with ``exp(i n t)`` at rounded angles it was off by 1.3e-14)."""
    G = gram_matrix(AnnulusGeometry(R=R, m_circle=2048), 256)
    assert np.max(np.abs(G - np.eye(len(G)))) <= 1e-15


def _blocks(N: int) -> int:
    """Row blocks of the pairing kernel over ``N`` degrees."""
    return -(-N // geometry._GRAM_BLOCK)


def test_samples_are_fresh_and_the_held_table_is_read_only():
    """A caller may write into its samples: each call gathers a new array
    from a roots table of its own, and no table is held between calls."""
    g, n = AnnulusGeometry(R=R, m_circle=64), np.arange(-5, 6)
    want = hardy_basis_eval(n, "C0", g).tobytes()
    hardy_basis_eval(n, "C0", g)[...] = np.nan
    complement_basis_eval(n, "C0", g)[...] = np.nan
    g.phases(n)[...] = np.nan
    assert hardy_basis_eval(n, "C0", g).tobytes() == want


@pytest.mark.parametrize(
    "build, tables",
    [
        (lambda: build_section_quadrature(
            random_boundary_symbol(Lcg(1), 4), (-64, 64), AnnulusGeometry(R=R, m_circle=4096)),
         2 * 2 * _blocks(129)),
        (lambda: gram_matrix(AnnulusGeometry(R=R, m_circle=2048), 256), 4 * _blocks(513)),
        (lambda: conjugate_reflection_residual(5, AnnulusGeometry(R=R, m_circle=256)), 6),
    ],
    ids=["section-pair", "gram", "conjugate-reflection"],
)
def test_phase_tables_built_per_call(monkeypatch, build, tables):
    """Each evaluator call builds its own roots table, one call of the
    sampler: per family, block and circle in the pairing kernel (the
    Gram's C pass also samples each block's C0 mate), three per circle in
    the conjugate reflection."""
    phases, seen = AnnulusGeometry.phases, []

    def recorded(geo, n):
        seen.append(phases(geo, n))
        return seen[-1]

    monkeypatch.setattr(AnnulusGeometry, "phases", recorded)
    build()
    assert len(seen) == tables


def _fft_calls(monkeypatch, build):
    """The number of ``numpy.fft.fft`` calls ``build`` makes, and its result."""
    fft, calls = np.fft.fft, []

    def counted(*args, **kwargs):
        calls.append(None)
        return fft(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(np.fft, "fft", counted)
        got = build()
    return len(calls), got


@pytest.mark.parametrize(
    "build, ffts",
    [
        (lambda: build_section_quadrature(
            random_boundary_symbol(Lcg(1), 4), (-64, 64), AnnulusGeometry(R=R, m_circle=4096)),
         3 * 2 * _blocks(129)),
        (lambda: gram_matrix(AnnulusGeometry(R=R, m_circle=2048), 256), 2 * _blocks(513)),
    ],
    ids=["section-pair", "gram"],
)
def test_fft_count_of_the_pairing_kernel(monkeypatch, build, ffts):
    """One FFT per family, block and circle, and one for the weighted
    hardy columns, in the section pair (two circles); the Gram transforms
    only the unit circle's blocks, and reads C0's spectra off C's."""
    assert _fft_calls(monkeypatch, build)[0] == ffts


@pytest.mark.parametrize("R_, m, W", [(R, 2048, 256), (0.1, 256, 20), (0.9, 64, 31), (0.5, 8, 3)])
def test_gram_mirror_matches_the_per_circle_path_bit_for_bit(monkeypatch, R_, m, W):
    """C0's ``(E, own)`` read off C's (rows swapped, the new complement half
    negated) gives the Gram that transforming C0 itself gives, bit for bit:
    an ``np.array_equal`` that never matches forces the per-circle path."""
    g = AnnulusGeometry(R=R_, m_circle=m)
    ffts, G = _fft_calls(monkeypatch, lambda: gram_matrix(g, W))
    monkeypatch.setattr(np, "array_equal", lambda *_: False)
    ffts_per_circle, G_per_circle = _fft_calls(monkeypatch, lambda: gram_matrix(g, W))
    assert ffts_per_circle == 2 * ffts
    assert G.tobytes() == G_per_circle.tobytes()


@pytest.mark.parametrize("name", ["hardy_basis_eval", "complement_basis_eval"])
def test_gram_falls_back_on_a_c0_only_defect(monkeypatch, name):
    """A family's inner-circle samples one degree further round match no
    mirror of the unit circle's: the Gram transforms C0 itself (one FFT per
    family, block and circle at +-256 on 2048 nodes) and the defect shows
    in its deviation (at R 0.5 it moves G by 8.2e-3)."""
    monkeypatch.setattr(geometry, name, _c0_shifted(getattr(geometry, name)))
    ffts, G = _fft_calls(monkeypatch, lambda: gram_matrix(AnnulusGeometry(R=R, m_circle=2048), 256))
    assert ffts == 2 * 2 * _blocks(513)
    assert np.max(np.abs(G - np.eye(len(G)))) > 5e-3


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
    for k in range(1, 8):
        assert abs(np.mean(geo.phases(k))) <= 1e-15
        assert abs(np.mean(np.exp(1j * k * grid_angles(geo)))) <= 1e-15
    assert np.mean(geo.phases(0)) == 1.0


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


@pytest.mark.parametrize("R_", [0.1, 0.5, 0.9])
def test_radial_nodes_have_the_bits_of_a_fresh_leggauss(R_):
    """The nodes built once per process give the bits of a fresh
    ``leggauss(RADIAL_NODES)`` placed on ``[log R, 0]``; the shared nodes
    are read-only, and a caller writing to ``r`` or ``w`` changes no later
    call."""
    x, w = np.polynomial.legendre.leggauss(geometry.RADIAL_NODES)
    half = -0.5 * np.log(R_)
    want_r = np.exp(half * (x - 1.0))
    want_w = half * w * want_r
    geo = AnnulusGeometry(R=R_, m_circle=8)
    r, wr = geo.radial_nodes()
    assert r.tobytes() == want_r.tobytes() and wr.tobytes() == want_w.tobytes()
    r[:], wr[:] = np.nan, np.nan
    r, wr = geo.radial_nodes()
    assert r.tobytes() == want_r.tobytes() and wr.tobytes() == want_w.tobytes()
    for shared in geometry._legendre():
        with pytest.raises(ValueError):
            shared[0] = 0.0


def test_radial_nodes_are_not_built_at_import():
    """Importing the CLI builds no Gauss-Legendre nodes (they would add to
    every run's start-up); the first ``radial_nodes`` call builds them."""
    src = str(Path(geometry.__file__).resolve().parents[1])
    probe = ("import annulab.cli, annulab.geometry as g; "
             "print(g._legendre.cache_info().currsize); "
             "g.AnnulusGeometry().radial_nodes(); "
             "print(g._legendre.cache_info().currsize)")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.split() == ["0", "1"]


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
def test_array_degrees_give_the_scalar_rows(ev, comp):
    ns = np.arange(-170, 171, 17)
    g = AnnulusGeometry(R=0.1, m_circle=256)
    table = ev(ns, comp, g)
    assert table.shape == (len(ns), g.m_circle)
    for row, n in zip(table, ns):
        assert row.tobytes() == ev(int(n), comp, g).tobytes()
