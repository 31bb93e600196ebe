"""The closed-form section builders against per-entry loops and mpmath.

The two-circle and disc Toeplitz builders write each section only on its
band, the disc Hankel builder copies a strided view.  Disc and area
sections must equal the per-entry loop bit for bit, and two-circle
sections the dense weighted layout; the two-circle and area sections use
bounded weights and must stay finite and accurate where the unweighted
formula overflows.
"""

import json

import mpmath
import numpy as np
import pytest

from annulab.bergman import build_bergman_section_quadrature, build_bergman_toeplitz
from annulab.cli import main
from annulab.errors import FloatRangeError
from annulab.geometry import AnnulusGeometry, basis_weights, bergman_norm_const
from annulab.hardy import (
    _band_sections,
    build_hankel_annulus,
    build_section_quadrature,
    build_toeplitz_hardy,
)
from annulab.mellin import monomial_moment
from annulab.randgen import Lcg, random_boundary_symbol, random_polar_symbol
from annulab.reduction import build_disc_hankel, build_disc_toeplitz
from annulab.symbols import (
    ExactCircle,
    ExactSymbol,
    PolarSymbol,
    PolyProfile,
    _analyze,
    conjugate_symbol,
    fourier_pair,
    pullback_symbols,
    sample_symbol,
)

SIZES = (1, 2, 7, 64)


# ---------------------------------------------------------------------------
# per-entry reference loops


def loop_disc_toeplitz(phi, size):
    ent = np.zeros((size, size), dtype=complex)
    for j in range(size):
        for k in range(size):
            ent[j, k] = phi.hat(j - k)
    return ent


def loop_disc_hankel(phi, size):
    ent = np.zeros((size, size), dtype=complex)
    for j in range(size):
        for k in range(size):
            ent[j, k] = phi.hat(-(j + 1) - k)
    return ent


def loop_moment(profile, z, R):
    """The profile's Mellin moment at the integer ``z``: one monomial moment
    call per table entry, summed in the table's order."""
    out = np.zeros((), dtype=complex)
    for m, c in profile.coeffs.items():
        out += c * monomial_moment(z + m, R)
    return complex(out)


def loop_bergman(f, lo, hi, R):
    """Band ``k`` sends ``z^n`` to ``z^m``, ``m = n + k``, with the entry
    ``tau_m tau_n sum_d c_d R^E M(|s|)`` in the orthonormal basis, formed
    per entry in the builder's order: ``s = m + n + 2 + d``, ``E = e_m + e_n
    + min(0, s)``, ``e_x = max(0, -(x + 1))`` and ``tau_x`` the norm
    constant at ``|x + 1| - 1``; degrees outside the window are dropped."""
    e = lambda x: max(0, -(x + 1))
    tau = lambda x: bergman_norm_const(abs(x + 1) - 1, R)
    ent = np.zeros((hi - lo + 1, hi - lo + 1), dtype=complex)
    for col, n in enumerate(range(lo, hi + 1)):
        for k in f.live_bands:
            m = n + k
            if lo <= m <= hi:
                acc = np.zeros((), dtype=complex)
                for d, c in f.bands[k].coeffs.items():
                    s = m + n + 2 + d
                    power = np.float_power(R, e(m) + e(n) + min(0, s))
                    acc += c * (power * monomial_moment(abs(s), R))
                ent[m - lo, col] += (tau(m) * tau(n)) * complex(acc)
    return ent


def loop_bergman_unbounded(f, lo, hi, R):
    """The plain-float form: band ``k`` sends ``z^n`` to ``t_m^2 M_k(k + 2n +
    2) z^m``, rescaled by ``t_n / t_m``.  Its powers of R leave the float
    range at deep windows, so it is a to-rounding reference only near
    degree -1."""
    ent = np.zeros((hi - lo + 1, hi - lo + 1), dtype=complex)
    for col, n in enumerate(range(lo, hi + 1)):
        tn = bergman_norm_const(n, R)
        for k in f.live_bands:
            m = n + k
            if lo <= m <= hi:
                tm = bergman_norm_const(m, R)
                coeff = complex(tm * tm * loop_moment(f.bands[k], k + 2 * n + 2, R))
                ent[m - lo, col] += coeff * tn / tm
    return ent


def same_bytes(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def circles():
    """A sparse table, and a dense one analyzed from grid samples, which
    holds a rounding-level coefficient at every index the grid resolves."""
    sym = random_boundary_symbol(Lcg(21), 40)
    exact = pullback_symbols(sym)[0]
    on_C = sample_symbol(sym, AnnulusGeometry(m_circle=256)).on_C
    ns = np.arange(-127, 128)
    dense = ExactCircle(dict(zip(ns.tolist(), _analyze(on_C, ns))))
    return {"exact": exact, "sampled": dense}


# ---------------------------------------------------------------------------
# gather equals the loop


@pytest.mark.parametrize("kind", ["exact", "sampled"])
@pytest.mark.parametrize("size", SIZES)
def test_disc_toeplitz_gather_matches_loop(kind, size):
    phi = circles()[kind]
    assert same_bytes(build_disc_toeplitz(phi, size), loop_disc_toeplitz(phi, size))


@pytest.mark.parametrize("kind", ["exact", "sampled"])
@pytest.mark.parametrize("size", SIZES)
def test_disc_hankel_gather_matches_loop(kind, size):
    phi = circles()[kind]
    assert same_bytes(build_disc_hankel(phi, size), loop_disc_hankel(phi, size))


def polar_symbol(rng):
    bands = {
        k: PolyProfile({d: rng.coefficient() for d in range(3)}) for k in (-3, -1, 0, 2, 5)
    }
    bands[1] = PolyProfile({0: rng.coefficient(), 2: 1.0})
    return PolarSymbol(bands)


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("lo", [-1, 4])
def test_bergman_section_matches_loop(size, lo):
    R = 0.4
    f = polar_symbol(Lcg(size + lo))
    hi = lo + size - 1
    got = build_bergman_toeplitz(f, (lo, hi), R)
    assert same_bytes(got, loop_bergman(f, lo, hi, R))


def ragged_symbol(rng):
    """Bands inserted in descending order, each with its own degree set in
    non-ascending order, float and complex coefficients, a zero coefficient
    inside a live band, and one zero band."""
    return PolarSymbol({
        4: PolyProfile({3: rng.coefficient(), 0: 0.5}),
        2: PolyProfile({1: 0j, 0: 0.0}),
        0: PolyProfile({5: rng.coefficient(), 1: rng.coefficient(), 2: 1.5, 0: 2}),
        -2: PolyProfile({1: 2.0}),
        -3: PolyProfile({0: 0.0, 2: rng.coefficient()}),
    })


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("lo", [-1, 3, -400])
@pytest.mark.parametrize("R", [0.4, 1e-3, 1e-300])
def test_bergman_section_matches_loop_on_ragged_tables(size, lo, R):
    """Ragged tables have the per-entry loop's bits, also far below degree
    -1 and at a radius whose every power past R^1 underflows."""
    f = ragged_symbol(Lcg(size + lo))
    assert f.live_bands == [-3, -2, 0, 4]
    hi = lo + size - 1
    assert same_bytes(build_bergman_toeplitz(f, (lo, hi), R), loop_bergman(f, lo, hi, R))


@pytest.mark.parametrize("R", [0.4, 1e-3])
@pytest.mark.parametrize("lo", [-9, -1, 3])
def test_bergman_section_matches_unbounded_loop_to_rounding(R, lo):
    """Where its powers of R stay in range, the plain-float form gives the
    bounded entries to rounding."""
    f = ragged_symbol(Lcg(lo + 20))
    got = build_bergman_toeplitz(f, (lo, lo + 15), R)
    want = loop_bergman_unbounded(f, lo, lo + 15, R)
    assert np.all((got == 0) == (want == 0))
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def exact_bergman_entry(f, m, n, R):
    """Entry (m, n) of the Bergman section in 50-digit arithmetic:
    ``t_m t_n sum_d c_d (1 - R^s) / s`` over band ``m - n``, ``s = m + n + 2 + d``."""
    with mpmath.workdps(50):
        R, log_R = mpmath.mpf(R), mpmath.log(mpmath.mpf(R))
        t = lambda x: 1 / mpmath.sqrt(-log_R) if x == -1 else mpmath.sqrt(
            2 * (x + 1) / (1 - R ** (2 * (x + 1))))
        moment = lambda s: -log_R if s == 0 else (1 - R**s) / s
        profile = f.bands[m - n].coeffs.items() if m - n in f.live_bands else []
        terms = (mpmath.mpc(c) * moment(m + n + 2 + d) for d, c in profile)
        return t(m) * t(n) * mpmath.fsum(terms)


@pytest.mark.parametrize("window", [(-400, -380), (-400, 24)])
def test_deep_bergman_sections_are_finite_and_exact(window):
    """At R 0.1, t_n reaches 1e-398 and moments 1e795 at degree -400, past
    the float range both ways; every bounded entry stays within 1e-13 of
    the 50-digit value, and off its bands exactly zero."""
    R, (lo, hi) = 0.1, window
    f = random_polar_symbol(Lcg(4), -2, 3, 3)
    sec = build_bergman_toeplitz(f, window, R)
    assert np.all(np.isfinite(sec))
    for m in range(lo, hi + 1):
        for n in range(max(lo, m - 3), min(hi, m + 2) + 1):  # the bands -2..3
            want = exact_bergman_entry(f, m, n, R)
            rel = abs(mpmath.mpc(sec[m - lo, n - lo]) - want) / abs(want)
            assert rel <= 1e-13, (m, n, float(rel))
    side = np.arange(hi - lo + 1)
    assert np.all(sec[np.abs(np.subtract.outer(side, side)) > f.bandwidth()] == 0.0)


def test_bergman_section_is_finite_at_tiny_radius():
    """At R 1e-300 every power R^E past E = 1 underflows to zero, and the
    default window's entries stay finite with a nonzero diagonal."""
    sec = build_bergman_toeplitz(random_polar_symbol(Lcg(4), -2, 3, 3), (-24, 24), 1e-300)
    assert np.all(np.isfinite(sec)) and np.all(np.diag(sec) != 0.0)


def test_negative_degree_profile_past_the_float_range_is_refused():
    """A negative profile degree lowers E below 0: R^E = 0.1^-399 at
    degree -400 would overflow, while degree -300 stays in range."""
    R, window = 0.1, (-1, 5)
    ok = PolarSymbol({0: PolyProfile({-300: 1.0})})
    assert np.all(np.isfinite(build_bergman_toeplitz(ok, window, R)))
    with pytest.raises(FloatRangeError, match="leave the float range at R=0.1"):
        build_bergman_toeplitz(PolarSymbol({0: PolyProfile({-400: 1.0})}), window, R)


# ---------------------------------------------------------------------------
# the band kernel has the bits of the dense weighted layout


def dense_sections(fs, window, R, hankel=False):
    """Each symbol's section in the dense form: both circles' coefficients
    laid out at every offset ``j - k`` of the window, each times the outer
    product of its basis weights, then summed (Toeplitz) or subtracted
    (Hankel) over the whole square."""
    lo, hi = window
    n = np.arange(lo, hi + 1)
    B, A = basis_weights(n, R)
    offsets = np.subtract.outer(n, n)
    out = []
    for f in fs:
        C, C0 = fourier_pair(f, offsets)
        if hankel:
            out.append(C * np.outer(A, B) - C0 * np.outer(B, A))
        else:
            out.append(C * np.outer(B, B) + C0 * np.outer(A, A))
    return np.stack(out)


def kernel_symbols():
    """Ragged bandwidths 1, 2 and 20 over a window of side 13, a zero
    symbol, and one whose conjugate holds negative zeros: a negative real
    coefficient conjugates to ``-x - 0j``, which keeps its ``-0`` through
    a weight and, on both circles at offset 0, through their sum."""
    exact = ExactSymbol({-2: -1.5 + 0j, 0: -2.0 + 0j, 1: 0.25j}, {0: -1.0 + 0j, 2: -0.5 + 0j})
    return [
        random_boundary_symbol(Lcg(31), 1),
        conjugate_symbol(exact),
        random_boundary_symbol(Lcg(32), 20),
        ExactSymbol({}, {}),
        exact,
    ]


@pytest.mark.parametrize("R", [0.5, 1e-300])
@pytest.mark.parametrize("window", [(-5, 7), (-12, 0)])
def test_two_circle_sections_have_the_dense_bits(R, window):
    """Toeplitz and Hankel sections, one symbol at a time and stacked, have
    the bits of the dense ``layout * np.outer(u, v)``, signed zeros
    included, past the bandwidth as on it; at R 1e-300 every weight
    ``R^|n|`` past ``n = 1`` underflows to zero."""
    fs = kernel_symbols()
    assert [f.bandwidth() for f in fs] == [1, 2, 20, 0, 2]
    toeplitz, hankel = dense_sections(fs, window, R), dense_sections(fs, window, R, True)
    assert np.any(np.signbit(toeplitz.imag) & (toeplitz.imag == 0))
    assert same_bytes(build_toeplitz_hardy(fs, window, R), toeplitz)
    lo, hi = window
    B, A = basis_weights(np.arange(lo, hi + 1), R)
    stacked = _band_sections([[f.coeffs_C for f in fs], [f.coeffs_C0 for f in fs]],
                             [(A, B), (B, A)], hi - lo + 1, 20, np.subtract)
    assert same_bytes(stacked, hankel)
    for f, T, H in zip(fs, toeplitz, hankel):
        assert same_bytes(build_toeplitz_hardy(f, window, R), T)
        assert same_bytes(build_hankel_annulus(f, window, R), H)


# ---------------------------------------------------------------------------
# the section contract: a plain square array over the caller's window


def contract_sections():
    """Per builder: its section over the window (-6, 6), or of size 13 on
    the disc, and the side it must have.
    The quadrature builder returns its Toeplitz and Hankel sections as a pair."""
    f, p = random_boundary_symbol(Lcg(5), 3), polar_symbol(Lcg(5))
    geo = AnnulusGeometry(R=0.5, m_circle=64)
    quad_toeplitz, quad_hankel = build_section_quadrature(f, (-6, 6), geo)
    return {
        "build_toeplitz_hardy": (build_toeplitz_hardy(f, (-6, 6), 0.5), 13),
        "build_hankel_annulus": (build_hankel_annulus(f, (-6, 6), 0.5), 13),
        "build_section_quadrature": (quad_toeplitz, 13),
        "build_section_quadrature_hankel": (quad_hankel, 13),
        "build_disc_toeplitz": (build_disc_toeplitz(pullback_symbols(f)[0], 13), 13),
        "build_disc_hankel": (build_disc_hankel(pullback_symbols(f)[1], 13), 13),
        "build_bergman_toeplitz": (build_bergman_toeplitz(p, (-6, 6), 0.5), 13),
        "build_bergman_section_quadrature": (
            build_bergman_section_quadrature(p, (-6, 6), geo), 13
        ),
    }


@pytest.mark.parametrize("name", sorted(contract_sections()))
def test_builders_return_square_complex_arrays(name):
    sec, side = contract_sections()[name]
    assert type(sec) is np.ndarray
    assert sec.shape == (side, side) and sec.dtype == complex


# ---------------------------------------------------------------------------
# the band contract hardy.band_product relies on

#: per case: the window, R, the reach of the two-circle symbol and the band
#: range of the polar one; "narrow" windows are narrower than twice the
#: reach, "whole-space" is a Bergman window far below degree -1 at R 0.1
BAND_WINDOWS = {
    "narrow": ((-4, 4), 0.5, 6, (-4, 5)),
    "wide": ((-12, 12), 0.5, 4, (-2, 3)),
    "whole-space": ((-24, 24), 0.1, None, (-2, 3)),
}


def banded_section(builder, case):
    """The builder's section of a randgen symbol over the case's window,
    and that symbol's ``bandwidth()``."""
    (lo, hi), R, reach, bands = BAND_WINDOWS[case]
    if builder == "build_bergman_toeplitz":
        p = random_polar_symbol(Lcg(8), *bands, 3)
        return build_bergman_toeplitz(p, (lo, hi), R), p.bandwidth()
    f = random_boundary_symbol(Lcg(8), reach)
    circle = pullback_symbols(f)[1]
    return {
        "build_toeplitz_hardy": lambda: (build_toeplitz_hardy(f, (lo, hi), R), f.bandwidth()),
        "build_hankel_annulus": lambda: (build_hankel_annulus(f, (lo, hi), R), f.bandwidth()),
        "build_disc_toeplitz": lambda: (build_disc_toeplitz(circle, hi - lo + 1),
                                        circle.bandwidth()),
        "build_disc_hankel": lambda: (build_disc_hankel(circle, hi - lo + 1),
                                      circle.bandwidth()),
    }[builder]()


@pytest.mark.parametrize("builder, case", [
    *((b, c) for b in ("build_toeplitz_hardy", "build_hankel_annulus", "build_disc_toeplitz",
                       "build_disc_hankel", "build_bergman_toeplitz")
      for c in ("narrow", "wide")),
    ("build_bergman_toeplitz", "whole-space"),
])
def test_sections_vanish_past_the_symbol_bandwidth(builder, case):
    """Every entry more than the symbol's ``bandwidth()`` off the diagonal
    is exactly zero, so a product of sections may skip it."""
    sec, band = banded_section(builder, case)
    side = np.arange(len(sec))
    past = np.abs(np.subtract.outer(side, side)) > band
    assert past.any() and np.any(sec[~past] != 0.0)
    assert np.all(sec[past] == 0.0)


# ---------------------------------------------------------------------------
# small-R / wide-window two-circle sections


def dense_symbol(reach):
    """Coefficients at every offset a window of half-width reach/2 reads."""
    ns = range(-reach, reach + 1)
    return ExactSymbol(
        {n: 0.99 ** abs(n) * np.exp(1j * n) for n in ns},
        {n: 0.5 * 0.99 ** abs(n) * np.exp(-2j * n) for n in ns},
    )


def exact_entries(sym, j, k, R):
    """(Toeplitz, Hankel) entry at row j, column k in 50-digit arithmetic."""
    with mpmath.workdps(50):
        fC, fC0 = (mpmath.mpc(c) for c in fourier_pair(sym, j - k))
        R = mpmath.mpf(R)
        norms = mpmath.sqrt(1 + R ** (2 * j)) * mpmath.sqrt(1 + R ** (2 * k))
        return (fC + R ** (j + k) * fC0) / norms, (R**j * fC - R**k * fC0) / norms


@pytest.mark.parametrize("R, half", [(0.1, 160), (0.5, 600)])
def test_wide_window_sections_are_finite_and_exact(R, half):
    sym = dense_symbol(2 * half)
    window = (-half, half)
    T = build_toeplitz_hardy(sym, window, R)
    H = build_hankel_annulus(sym, window, R)
    assert np.all(np.isfinite(T))
    assert np.all(np.isfinite(H))
    for j in window:
        for k in window:
            for sec, want in zip((T, H), exact_entries(sym, j, k, R)):
                rel = abs(mpmath.mpc(sec[j + half, k + half]) - want) / abs(want)
                assert rel <= 1e-13, (j, k, float(rel))


def test_semicommutator_passes_on_thin_annulus_wide_window(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"R": 0.1, "seed": 1, "window": [-160, 160]}))
    code = main(["semicommutator", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 0
