"""The closed-form section builders against per-entry loops and mpmath.

The builders lay out one coefficient vector per circle by a strided
gather.  Disc and area sections must equal the per-entry loop bit for
bit; the two-circle sections use bounded weights and must stay finite
and accurate where the unweighted formula overflows.
"""

import json

import mpmath
import numpy as np
import pytest

from annulab.bergman import build_bergman_section_quadrature, build_bergman_toeplitz
from annulab.cli import main
from annulab.geometry import AnnulusGeometry, bergman_norm_const
from annulab.hardy import (
    build_hankel_annulus,
    build_section_quadrature,
    build_toeplitz_hardy,
)
from annulab.mellin import monomial_moment
from annulab.randgen import Lcg, random_boundary_symbol
from annulab.reduction import build_disc_hankel, build_disc_toeplitz
from annulab.symbols import (
    ExactCircle,
    ExactSymbol,
    PolarSymbol,
    PolyProfile,
    _analyze,
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
    """Band ``k`` sends ``z^n`` to ``t_m^2 M_k(k + 2n + 2) z^m``, ``m = n + k``,
    rescaled by ``t_n / t_m`` into the orthonormal basis; degrees outside
    the window are dropped."""
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
@pytest.mark.parametrize("lo", [-1, 3])
@pytest.mark.parametrize("R", [0.4, 1e-3])
def test_bergman_section_matches_loop_on_ragged_tables(size, lo, R):
    f = ragged_symbol(Lcg(size + lo))
    assert f.live_bands == [-3, -2, 0, 4]
    hi = lo + size - 1
    assert same_bytes(build_bergman_toeplitz(f, (lo, hi), R), loop_bergman(f, lo, hi, R))


# ---------------------------------------------------------------------------
# the section contract: a plain square array over the caller's window


def contract_sections():
    """Per builder: its section over the window (-6, 6), or of size 13 on
    the disc, and the side it must have; the Bergman basis starts at -1."""
    f, p = random_boundary_symbol(Lcg(5), 3), polar_symbol(Lcg(5))
    geo = AnnulusGeometry(R=0.5, m_circle=64, m_radial=48)
    return {
        "build_toeplitz_hardy": (build_toeplitz_hardy(f, (-6, 6), 0.5), 13),
        "build_hankel_annulus": (build_hankel_annulus(f, (-6, 6), 0.5), 13),
        "build_section_quadrature": (build_section_quadrature(f, (-6, 6), geo), 13),
        "build_disc_toeplitz": (build_disc_toeplitz(pullback_symbols(f)[0], 13), 13),
        "build_disc_hankel": (build_disc_hankel(pullback_symbols(f)[1], 13), 13),
        "build_bergman_toeplitz": (build_bergman_toeplitz(p, (-6, 6), 0.5), 8),
        "build_bergman_section_quadrature": (
            build_bergman_section_quadrature(p, (-6, 6), geo), 8
        ),
    }


@pytest.mark.parametrize("name", sorted(contract_sections()))
def test_builders_return_square_complex_arrays(name):
    sec, side = contract_sections()[name]
    assert type(sec) is np.ndarray
    assert sec.shape == (side, side) and sec.dtype == complex


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
        fC, fC0 = (mpmath.mpc(c) for c in sym.pair(j - k))
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
