import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from annulab.errors import AliasingError
from annulab.geometry import (
    AnnulusGeometry,
    basis_weights,
    bergman_monomial_norm_quadrature,
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
