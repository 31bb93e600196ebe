"""The quadrature oracles against the trapezoid sums written per entry.

Each oracle computes its trapezoid sums with one FFT of grid samples and
an index gather.  The loops below are those sums written out entry by
entry, one ``mean(values * exp(...))`` per entry; the oracles must agree
with them to rounding.  The oracles must also read a symbol only through
its grid samples: handed a stand-in that refuses every other read, they
must give the same bits.  The last test runs the oracles at the sizes the
FFT route makes affordable.
"""

import tracemalloc

import numpy as np
import pytest
from conftest import grid_angles

from annulab import bergman, geometry, hardy, reduction
from annulab.bergman import build_bergman_section_quadrature, build_bergman_toeplitz
from annulab.errors import FloatRangeError
from annulab.geometry import AnnulusGeometry, basis_weights, bergman_norm_const, gram_matrix
from annulab.hardy import build_section_quadrature, dense
from annulab.randgen import Lcg, random_boundary_symbol, random_polar_symbol
from annulab.reduction import (
    assemble_transfer_unitaries,
    conjugate_basis_coeffs,
    diagram_residual,
    inner_hankel_quadrature,
    split_relation_residual,
    t_diag,
)
from annulab.symbols import ExactSymbol, fourier_pair, sample_symbol

R = 0.5
SIZE = 8
BOUND = 1e-14


def grid():
    return AnnulusGeometry(R=R, m_circle=64)


def symbol():
    return random_boundary_symbol(Lcg(17), 4)


class SamplesOnly:
    """Stands in for a symbol whose grid samples a patched sampler hands
    the oracle.  Any read of the stand-in itself raises, except
    ``bandwidth()``, which the aliasing guard of the Hardy section needs."""

    def __init__(self, bandwidth):
        self._bandwidth = bandwidth

    def __getattribute__(self, name):
        if name == "bandwidth":
            return lambda: object.__getattribute__(self, "_bandwidth")
        raise AssertionError(f"the oracle read {name!r} of the symbol")


def samples_only(monkeypatch, module, sampler, sym, geo):
    """A stand-in for ``sym`` whose grid samples ``module.sampler`` returns,
    precomputed from the real symbol."""
    values = getattr(module, sampler)(sym, geo)
    monkeypatch.setattr(module, sampler, lambda *_: values)
    return SamplesOnly(sym.bandwidth())


# ---------------------------------------------------------------------------
# per-entry trapezoid sums


def loop_unitaries(size, geo):
    t = grid_angles(geo)
    U0 = np.zeros((size, size), dtype=complex)
    P0 = np.zeros((size, size), dtype=complex)
    for col in range(size):
        # the transplant samples each column at the negated angle
        transplanted = np.exp(-1j * col * -t)
        neg_transplanted = np.exp(1j * (col + 1) * -t)
        for row in range(size):
            P0[row, col] = np.mean(transplanted * np.exp(-1j * row * t))
            U0[row, col] = np.mean(neg_transplanted * np.exp(1j * (row + 1) * t))
    return U0, P0


def loop_inner_hankel(phi, size, geo):
    t = grid_angles(geo)
    vals = sample_symbol(phi, geo).on_C0
    H = np.zeros((size, size), dtype=complex)
    for k in range(size):
        prod = vals * np.exp(-1j * k * t)
        for j in range(size):
            H[j, k] = np.mean(prod * np.exp(-1j * (j + 1) * t))
    return H


def loop_split(phi, size, reach, geo):
    t = grid_angles(geo)
    vals = sample_symbol(phi, geo).on_C0
    js = np.arange(1, size + reach + 1)
    B, _ = basis_weights(js, geo.R)
    alpha, beta = np.array([conjugate_basis_coeffs(-j, geo.R) for j in js]).T
    tvals = np.array([t_diag(-j, geo.R) for j in js])
    res1 = res2 = 0.0
    for k in range(size):
        u = vals * np.exp(-1j * k * t)
        c = np.array([np.mean(u * np.exp(-1j * j * t)) for j in js])
        y2 = np.exp(1j * np.outer(t, js)) @ c
        proj = np.array([np.mean(y2 * np.exp(-1j * j * t)) for j in js])
        lhs = -proj * B
        rhs = -np.array([fourier_pair(phi, k + j)[1] for j in js]) * B
        res1 = max(res1, float(np.max(np.abs(lhs - rhs))))
        gamma = B * proj
        res2 = max(res2, float(np.max(np.abs(gamma * alpha - tvals * (gamma * beta)))))
    return res1, res2


def loop_bergman(f, lo, hi, geo):
    t = grid_angles(geo)
    r, w = geo.radial_nodes()
    vals = sum(
        np.outer(f.bands[k].eval(r), np.exp(1j * k * t)) for k in f.live_bands
    )
    ent = np.zeros((hi - lo + 1, hi - lo + 1), dtype=complex)
    for col, n in enumerate(range(lo, hi + 1)):
        u = vals * np.outer(r**n, np.exp(1j * n * t)) * bergman_norm_const(n, geo.R)
        for row, m in enumerate(range(lo, hi + 1)):
            v = np.outer(r**m, np.exp(1j * m * t)) * bergman_norm_const(m, geo.R)
            ent[row, col] = np.sum(w * r * np.mean(u * np.conj(v), axis=1))
    return ent


# ---------------------------------------------------------------------------
# FFT route equals the per-entry sums


def test_transfer_unitaries_match_loop():
    U0, P0 = assemble_transfer_unitaries(SIZE, grid())
    U0_loop, P0_loop = loop_unitaries(SIZE, grid())
    assert np.max(np.abs(U0 - U0_loop)) <= BOUND
    assert np.max(np.abs(P0 - P0_loop)) <= BOUND


@pytest.mark.parametrize("kind", ["exact", "sampled"])
def test_inner_hankel_matches_loop(monkeypatch, kind):
    phi, geo = symbol(), grid()
    want = loop_inner_hankel(phi, SIZE, geo)
    if kind == "sampled":
        phi = samples_only(monkeypatch, reduction, "sample_symbol", phi, geo)
    got = inner_hankel_quadrature(phi, SIZE, geo)
    assert np.max(np.abs(got - want)) <= BOUND


def test_split_relations_match_loop():
    phi = symbol()
    got = split_relation_residual(phi, SIZE, grid())
    want = loop_split(phi, SIZE, max(map(abs, phi.coeffs_C0)), grid())
    assert max(abs(a - b) for a, b in zip(got, want)) <= BOUND


@pytest.mark.parametrize("lo", [-1, 3])
def test_bergman_quadrature_matches_loop(lo):
    geo = AnnulusGeometry(R=R, m_circle=64)
    f = random_polar_symbol(Lcg(29), -2, 3, 3)
    hi = lo + SIZE - 1
    got = build_bergman_section_quadrature(f, (lo, hi), geo)
    assert np.max(np.abs(got - loop_bergman(f, lo, hi, geo))) <= BOUND


# ---------------------------------------------------------------------------
# the oracles read nothing but grid samples


def inner_oracle(f, geo):
    return inner_hankel_quadrature(f, SIZE, geo)


def section_oracle(f, geo):
    return np.stack(build_section_quadrature(f, (-6, 6), geo))


def area_oracle(f, geo):
    return build_bergman_section_quadrature(f, (-1, 6), geo)


@pytest.mark.parametrize(
    "oracle, module, sampler, make",
    [
        (inner_oracle, reduction, "sample_symbol", symbol),
        (section_oracle, hardy, "sample_symbol", symbol),
        (area_oracle, bergman, "polar_symbol_grid",
         lambda: random_polar_symbol(Lcg(29), -2, 3, 3)),
    ],
    ids=["inner-hankel", "hardy-section", "bergman-section"],
)
def test_oracle_reads_only_grid_samples(monkeypatch, oracle, module, sampler, make):
    geo = AnnulusGeometry(R=R, m_circle=64)
    f = make()
    want = oracle(f, geo)
    got = oracle(samples_only(monkeypatch, module, sampler, f, geo), geo)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "family, calls",
    [("hardy", {"hardy_basis_eval": 2}), ("complement", {"complement_basis_eval": 2})],
)
def test_section_oracle_evaluates_each_basis_once_per_circle(monkeypatch, family, calls):
    """Both sections come from one evaluation of each family per circle:
    the hardy columns serve as the Toeplitz rows and, weighted, as the
    columns of both sections, and the complement family is evaluated
    once per circle for the Hankel rows."""
    geo = AnnulusGeometry(R=R, m_circle=64)
    want = build_section_quadrature(symbol(), (-6, 6), geo)
    counts = dict.fromkeys(calls, 0)
    name = f"{family}_basis_eval"
    evaluate = getattr(geometry, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(geometry, name, counted)
    got = build_section_quadrature(symbol(), (-6, 6), geo)
    assert counts == calls
    assert np.stack(got).tobytes() == np.stack(want).tobytes()


def test_pairing_kernel_memory_stays_bounded():
    """The kernel's row blocks bound its sample buffers: the Gram at
    W = 256, m = 2048 peaks at 40.7 MiB traced, where the owner test holds
    C's spectra beside their kept bins (56.7 MiB with blocks of 257 degrees,
    where each block's shared rows, samples and C0 mates are held together;
    64.4 MiB with all rows in one block, before C0 was read off C's
    spectra), and the section pair at the benchmark's toeplitz-build config
    at 31.2 MiB (37.3 with blocks of 257)."""
    f = symbol()
    tracemalloc.start()
    try:
        gram_matrix(AnnulusGeometry(R=R, m_circle=2048), 256)
        gram_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        build_section_quadrature(f, (-64, 64), AnnulusGeometry(R=R, m_circle=4096))
        pair_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gram_peak <= 41 * 2**20
    assert pair_peak <= 32 * 2**20


def test_split_relations_memory_does_not_grow_with_reach():
    """The split reads its coordinates by one FFT of the inner-circle
    samples and a gather, so its largest arrays are the ``m_circle``
    spectrum and the ``size x (size + reach)`` gather: at reach 1000 on
    4096 nodes it peaks at 1.5 MiB traced, where a ``(size + reach) x
    m_circle`` phase table would peak near 127 MiB."""
    phi = ExactSymbol({0: 1.0}, {-1000: 0.25, 2: 1.0, 1000: 0.5j})
    geo = AnnulusGeometry(R=R, m_circle=4096)
    tracemalloc.start()
    try:
        res = split_relation_residual(phi, 10, geo)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max(res) <= 1e-14
    assert peak < 8 * 2**20


# ---------------------------------------------------------------------------
# sizes the per-entry loops could not afford


def test_oracles_at_size_256():
    geo = AnnulusGeometry(R=R, m_circle=4096)
    phi = random_boundary_symbol(Lcg(1), 4)
    assert diagram_residual(phi, geo, *assemble_transfer_unitaries(256, geo)) <= 1e-10
    assert max(split_relation_residual(phi, 256, geo)) <= 1e-10
    f = random_polar_symbol(Lcg(1), -2, 2, 6)
    quad = build_bergman_section_quadrature(f, (-64, 64), AnnulusGeometry())
    sec = dense(build_bergman_toeplitz(f, (-64, 64), R))
    assert np.max(np.abs(sec - quad)) <= 1e-10


def test_bergman_quadrature_resolves_deep_windows_or_refuses():
    """At R 0.1 on (-150, -130) the log-radial nodes give the builder's
    entries (size 1) to 1.6e-12; nodes linear in r would be 7.7e-10 off.
    On (-400, -380) the exponent reach 2 * 399 passes the moment range,
    ``798 log(10) > log(float max)``, so the oracle refuses the window."""
    f = random_polar_symbol(Lcg(4), -2, 3, 3)
    geo = AnnulusGeometry(R=0.1)
    quad = build_bergman_section_quadrature(f, (-150, -130), geo)
    assert np.max(np.abs(quad - dense(build_bergman_toeplitz(f, (-150, -130), 0.1)))) <= 1e-10
    with pytest.raises(FloatRangeError):
        build_bergman_section_quadrature(f, (-400, -380), geo)
