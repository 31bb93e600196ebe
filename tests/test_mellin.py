import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from annulab import mellin
from annulab.bergman import find_n0_bergman
from annulab.errors import FloatRangeError, IllConditionedError, ZeroProfileError
from annulab.geometry import AnnulusGeometry
from annulab.mellin import (
    LOG_FLOAT_MAX,
    ZERO_BISECT_TOL,
    RECONSTRUCT_TOLERANCE,
    check_moment_range,
    mellin_poly_reconstruct,
    mellin_quadrature,
    mellin_transform,
    mellin_zero_locate,
    monomial_moment,
)
from annulab.randgen import Lcg
from annulab.symbols import PolyProfile
from conftest import adversarial_radial_pair

R = 0.5


def test_transform_matches_the_per_monomial_sum_bit_for_bit():
    """One moment call over every (point, degree) pair gives the bits of a
    sum of one moment call per monomial, in the table's order."""
    rng = Lcg(4)
    profile = PolyProfile({3: rng.coefficient(), 0: 1.5, 7: rng.coefficient(), 1: 2})
    for z in (2.0, -3, np.arange(-6.0, 6.0, 0.75), np.arange(-4, 5).reshape(3, 3),
              np.linspace(-2, 2, 9) * (1 + 0.5j), 1e-6j):
        want = np.zeros(np.shape(z), dtype=complex)
        for m, c in profile.coeffs.items():
            want += c * monomial_moment(np.asarray(z) + m, R)
        got = mellin_transform(profile, z, R)
        assert np.asarray(got).tobytes() == want.tobytes()
    assert mellin_transform(PolyProfile({}), np.arange(3.0), R).tolist() == [0j] * 3


def test_constant_profile_closed_form():
    assert mellin_transform(PolyProfile({0: 1.0}), 2.0, R) == pytest.approx(0.375)


def test_removable_point_value():
    for m in (0, 1, 4):
        val = mellin_transform(PolyProfile({m: 1.0}), -float(m), R)
        assert val == pytest.approx(math.log(1.0 / R))


def test_quadratic_profile_vs_quadrature(geo):
    prof = PolyProfile({2: 1.0, 1: -1.0})
    closed = mellin_transform(prof, 3.0, R)
    quad = mellin_quadrature(prof, 3.0, geo)
    assert abs(closed - quad) <= 1e-12
    # the closed form at z=3: (1-R^5)/5 - (1-R^4)/4
    assert closed == pytest.approx((1 - R**5) / 5 - (1 - R**4) / 4)


def test_closed_form_vs_quadrature_sweep(geo):
    rng = Lcg(13)
    prof = PolyProfile({d: rng.coefficient() for d in range(11)})
    for z in np.arange(-5.0, 10.5, 0.5):
        closed = mellin_transform(prof, float(z), R)
        quad = mellin_quadrature(prof, float(z), geo)
        assert abs(closed - quad) <= 1e-10


def test_array_z_gives_the_scalar_values():
    """The shipped ``mellin`` profile (seed 1) on the 31-point sweep at
    R = 0.1: one array call gives each scalar call's bits."""
    geo = AnnulusGeometry(R=0.1)
    rng = Lcg(1)
    prof = PolyProfile({d: rng.coefficient() for d in range(11)})
    zs = np.arange(-5.0, 10.0 + 0.25, 0.5)
    assert len(zs) == 31
    closed = mellin_transform(prof, zs, 0.1)
    quad = mellin_quadrature(prof, zs, geo)
    for z, c, q in zip(zs, closed, quad):
        assert c == mellin_transform(prof, float(z), 0.1)
        assert q == mellin_quadrature(prof, float(z), geo)


def test_moment_complex_is_continuous_near_zero():
    for s in (1e-5 + 0j, 1e-4 + 1e-5j, -1e-5 + 1e-6j):
        near = monomial_moment(s, R)
        far = monomial_moment(s + 2e-4, R)
        assert abs(near - far) <= 1e-3
        assert abs(near - monomial_moment(complex(s), R)) == 0.0


@pytest.mark.parametrize("s", [-1e-4 + 2.4e-5j, -9.116e-5 + 4.110e-5j])
def test_complex_moment_near_zero_matches_mpmath(s):
    """At R = 0.999 and |s| near 1e-4 the difference ``1 - R^s`` cancels to
    about seven digits; ``expm1`` keeps the full precision.  A direct
    ``1 - exp`` reads the first point to a relative error of 2.6e-9."""
    with mpmath.workdps(40):
        want = complex((1 - mpmath.power(mpmath.mpf(0.999), s)) / mpmath.mpc(s))
    assert abs(monomial_moment(s, 0.999) - want) <= 1e-14 * abs(want)


def test_zero_locate_monomial_has_no_roots():
    assert mellin_zero_locate(PolyProfile({3: 1.0}), -10.0, 20.0, R) == []


def test_zero_locate_constructed_root():
    c = 6.0 * (1.0 - R**5) / (5.0 * (1.0 - R**6))
    witness = PolyProfile({0: 1.0, 1: -c})
    roots = mellin_zero_locate(witness, -10.0, 20.0, R)
    assert len(roots) == 1
    assert roots[0] == pytest.approx(5.0, abs=1e-10)


def _no_moments(monkeypatch):
    """Make any moment the locate takes fail the test."""
    def refuse(*args):
        raise AssertionError("a moment was taken")
    monkeypatch.setattr(mellin, "mellin_transform", refuse)
    monkeypatch.setattr(mellin, "monomial_moment", refuse)


def _counted_transform(monkeypatch) -> list:
    """Count the locate's transform calls, in the returned list's length."""
    calls, transform = [], mellin.mellin_transform
    def counted(*args):
        calls.append(args)
        return transform(*args)
    monkeypatch.setattr(mellin, "mellin_transform", counted)
    return calls


@pytest.mark.parametrize("coeffs", [
    # one-term profiles, whatever the coefficient's phase
    {3: 1.0}, {0: -2.5j}, {-4: 0.3 - 0.7j}, {7: -1e-300 + 1e300j}, {2: -0.0 - 1.0j},
    # real parts >= 0 with one > 0, imaginary parts of both signs
    {0: 1.0 + 1.0j, 1: 0.0 - 3.0j, 2: 2.0 + 0.5j},
    {-2: 0.5 - 4.0j, 5: 1e-12 + 9.0j},
    # imaginary parts <= 0 with one < 0, real parts of both signs
    {0: 1.0 - 1.0j, 1: -2.0 - 0.5j, 2: 3.0 + 0.0j},
    {1: -7.0 + 0.0j, 4: 7.0 - 1e-9j},
])
def test_zero_locate_sign_certificate_takes_no_moment(coeffs, monkeypatch):
    """Each moment ``(1 - R^s) / s`` is positive for real s, so a part whose
    coefficients share one strict sign never vanishes: no real zero."""
    _no_moments(monkeypatch)
    assert mellin_zero_locate(PolyProfile(coeffs), -40.0, 40.0, R) == []


def test_zero_locate_witnesses_of_mixed_sign_still_scan(monkeypatch):
    """The shipped mellin run's witness ``1 - c r`` and item 13's psi have
    mixed signs in both parts: they scan and locate the roots they did
    before the certificate."""
    calls = _counted_transform(monkeypatch)
    for radius in (0.5, 0.1):
        c = 6.0 * (1.0 - radius**5) / (5.0 * (1.0 - radius**6))
        assert mellin_zero_locate(PolyProfile({0: 1.0, 1: -c}), -10.0, 20.0, radius) == [5.0]
        assert calls
        calls.clear()
    psi = adversarial_radial_pair(R)[1].bands[0]
    roots = mellin_zero_locate(psi, -18.0, 30.0, R)
    assert calls
    # psi's transform vanishes at z = 2n + 2, n = -1 .. 5, by construction;
    # the scan reads them to within 3e-3 (11.99983 for the last)
    assert roots == pytest.approx(range(0, 13, 2), abs=3e-3)


def test_zero_locate_rejects_zero_profile(monkeypatch):
    _no_moments(monkeypatch)
    for coeffs in ({}, {0: 0.0, 3: -0.0j}):
        with pytest.raises(ZeroProfileError):
            mellin_zero_locate(PolyProfile(coeffs), 0.0, 1.0, R)


def test_zero_locate_refuses_a_transform_that_vanishes_on_its_grid():
    """Subnormal coefficients of both signs (no sign certificate) make
    every moment product underflow to zero on the scan grid: the scan has
    no scale to find a zero against, and refuses rather than report none."""
    profile = PolyProfile({0: 5e-324, 1: -5e-324})
    with pytest.raises(ZeroProfileError, match="vanished identically"):
        mellin_zero_locate(profile, 10.0, 20.0, R)


def test_bisection_stops_at_its_step_cap_where_floats_are_coarser_than_its_tolerance():
    """Near z = 2^21 neighbouring floats lie 2^-31 (4.7e-10) apart, more
    than ``ZERO_BISECT_TOL``: the bracket stops shrinking at two adjacent
    floats, and the 200-step cap ends the loop there, one float from the
    sign change."""
    assert math.ulp(2.0**21) > ZERO_BISECT_TOL
    c, calls = 2.0**21 + 0.1, []

    def sign(x):
        calls.append(x)
        return -1.0 if x <= c else 1.0

    root = mellin._bisect(sign, 2.0**21, 2.0**21 + 0.25)
    assert len(calls) == 201
    assert c <= root <= math.nextafter(c, math.inf)


def test_zero_locate_nan_coefficient_takes_the_scan(monkeypatch):
    calls = _counted_transform(monkeypatch)
    mellin_zero_locate(PolyProfile({0: float("nan"), 1: 1.0}), -10.0, 20.0, R)
    assert calls


def test_find_n0_refuses_moments_past_the_float_range_before_the_certificate(monkeypatch):
    """A monomial top is certified, yet on R 0.1 the window's lowest
    exponent 2 lo + N + 2 = -397 leaves the float range: still refused."""
    _no_moments(monkeypatch)
    with pytest.raises(FloatRangeError):
        find_n0_bergman(PolyProfile({3: 1.0 + 0.5j}), 1, 0.1, (-200, 10))
    assert find_n0_bergman(PolyProfile({3: 1.0 + 0.5j}), 1, 0.1, (-100, 10)) == "unconstrained"


def test_reconstruct_zero_values_gives_zero_polynomial():
    # the lab's degree-6 progression on the thin annulus, which the
    # round-trip rule admits (condition times eps 4.0e-10)
    rec = mellin_poly_reconstruct([0.0] * 7, -10.5, 4.0, 0.1)
    assert len(rec.coeffs) == 7
    assert all(c == 0.0 for c in rec.coeffs.values())


def test_reconstruct_affine_profile():
    prof = PolyProfile({0: 1.0, 1: 1.0})
    values = [mellin_transform(prof, z, R) for z in (2.0, 4.0)]
    rec = mellin_poly_reconstruct(values, 2.0, 2.0, R)
    assert rec.coeffs[0] == pytest.approx(1.0, abs=1e-10)
    assert rec.coeffs[1] == pytest.approx(1.0, abs=1e-10)


def test_reconstruct_degree_six_on_thin_annulus():
    """The documented sampling progression recovers degree-6 data to 1e-8.

    The samples must straddle the region where the R^z term dominates;
    that keeps the row-scaled moment system well conditioned.
    """
    thin = 0.1
    rng = Lcg(2)
    prof = PolyProfile({d: rng.coefficient() for d in range(7)})
    values = [mellin_transform(prof, -10.5 + 4.0 * j, thin) for j in range(7)]
    rec = mellin_poly_reconstruct(values, -10.5, 4.0, thin)
    worst = max(abs(rec.coeffs[d] - prof.coeffs[d]) for d in range(7))
    assert worst <= 1e-8


def test_reconstruct_degree_six_thick_annulus_loses_digits():
    # at R=0.5 every arithmetic progression leaves the degree-6 system
    # too ill conditioned for eight digits; here condition times eps is
    # 2.0e-4, so the solve is refused instead of returning a lossy profile
    rng = Lcg(2)
    prof = PolyProfile({d: rng.coefficient() for d in range(7)})
    values = [mellin_transform(prof, 3.0 + 2.0 * j, R) for j in range(7)]
    with pytest.raises(IllConditionedError, match="reconstruction tolerance") as err:
        mellin_poly_reconstruct(values, 3.0, 2.0, R)
    assert err.value.cond * np.finfo(float).eps > RECONSTRUCT_TOLERANCE


def test_reconstruct_rejects_singular_progression():
    with pytest.raises(IllConditionedError) as err:
        mellin_poly_reconstruct([1.0, 1.0, 1.0], 2.0, 0.0, R)
    assert err.value.cond > 1e12 or not math.isfinite(err.value.cond)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_reconstruct_refuses_moments_past_the_float_range():
    # the progression of `lab mellin`: at R = 1e-40 the moment at z = -10.5
    # is about 1e420, so the matrix holds inf and has no condition number
    with pytest.raises(IllConditionedError, match="not finite") as err:
        mellin_poly_reconstruct([1.0] * 7, -10.5, 4.0, 1e-40)
    assert err.value.cond == math.inf


@settings(max_examples=60, deadline=None)
@given(st.floats(-20.0, 20.0, allow_nan=False))
def test_moment_satisfies_defining_relation(s):
    # s * moment(s) = 1 - R^s, with the removable point handled apart
    val = monomial_moment(s, R)
    assert s * val == pytest.approx(1.0 - R**s, abs=1e-11, rel=1e-11)


@settings(max_examples=30, deadline=None)
@given(
    st.dictionaries(st.integers(0, 6), st.floats(-2, 2, allow_nan=False), max_size=4),
    st.dictionaries(st.integers(0, 6), st.floats(-2, 2, allow_nan=False), max_size=4),
    st.floats(-4.0, 6.0, allow_nan=False),
)
def test_transform_is_linear(ca, cb, z):
    fa, fb = PolyProfile(dict(ca)), PolyProfile(dict(cb))
    both = PolyProfile(
        {m: ca.get(m, 0.0) + cb.get(m, 0.0) for m in set(ca) | set(cb)}
    )
    lhs = mellin_transform(both, z, R)
    rhs = mellin_transform(fa, z, R) + mellin_transform(fb, z, R)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("s_max", [1.0, 10.5, 21.0, 700.0])
def test_moment_range_rule_is_where_the_moments_overflow(s_max):
    """Just inside the rule the moment at -s_max is finite, within a factor
    1e-6 of the float max times 1/s_max; just outside it is refused."""
    edge = math.exp(-LOG_FLOAT_MAX / s_max)
    inside, outside = edge * (1 + 1e-9), edge * (1 - 1e-9)
    check_moment_range(s_max, inside)
    moment = monomial_moment(np.array([-s_max, s_max]), inside)
    assert np.all(np.isfinite(moment))
    assert moment[0] * s_max > np.finfo(float).max * (1 - 1e-6)
    with pytest.raises(FloatRangeError, match="leave the float range"):
        check_moment_range(s_max, outside)
