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


@pytest.mark.parametrize("shifted", [False, True])
def test_gram_matches_per_pair_trapezoid_loop(monkeypatch, shifted):
    """m_circle 2048 spans two angle blocks; the loop pairs one function's
    samples with another's, per circle, as the trapezoid rule reads them.
    The shifted system is not orthonormal, so the loop also checks
    off-diagonal entries well away from zero in both parts."""
    if shifted:
        monkeypatch.setattr(geometry, "hardy_basis_eval", _hardy_c0_shifted)
    g = AnnulusGeometry(R=R, m_circle=2048)
    t = g.angles()
    ns = range(-20, 21)
    rows = {
        comp: [geometry.hardy_basis_eval(n, comp, t, R) for n in ns]
        + [complement_basis_eval(n, comp, t, R) for n in ns]
        for comp in ("C", "C0")
    }
    size = 2 * len(ns)
    ref = np.empty((size, size), dtype=complex)
    for j in range(size):
        for k in range(size):
            ref[j, k] = sum(
                np.sum(rows[c][j] * np.conj(rows[c][k])) for c in ("C", "C0")
            ) / g.m_circle
    G = gram_matrix(g, 20)
    assert np.max(np.abs(G - ref)) <= 1e-14
    assert np.array_equal(G, G.conj().T)


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
    with pytest.raises(AliasingError):
        gram_matrix(small_geo, small_geo.m_circle // 4 + 1)


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
