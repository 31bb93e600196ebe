"""Bergman-space sections driven by banded polar symbols."""

import json
import math

import numpy as np
import pytest

from annulab.bergman import (
    apply_polar_to_monomial,
    build_bergman_section_quadrature,
    build_bergman_toeplitz,
    find_n0_bergman,
    polar_symbol_grid,
    quasi_homogeneous_apply,
    zero_product_experiment_bergman,
)
from annulab.cli import _HARNESSES, main
from annulab.errors import WindowTooSmallError, ZeroProfileError
from annulab.geometry import AnnulusGeometry, bergman_norm_const
from annulab.hardy import _coeff_vector, _span_residual
from annulab.randgen import Lcg, random_polar_symbol
from annulab.symbols import PolarSymbol, PolyProfile

R = 0.5
one = PolyProfile({0: 1.0 + 0.0j})


def area_geo() -> AnnulusGeometry:
    return AnnulusGeometry(R=R, m_circle=64, m_radial=48)


def area_pairing(u, v, geo):
    """Angular trapezoid mean, then the radial Gauss sum with the area
    weight ``r``, of ``u conj(v)`` on the (radial, angular) grid."""
    r, w = geo.radial_nodes()
    return complex(np.sum(w * r * np.mean(u * np.conj(v), axis=1)))


def coeff_by_quadrature(p, profile, n, geo):
    """Image coefficient recovered from the area pairing directly."""
    t = geo.angles()
    r, _ = geo.radial_nodes()
    sym = polar_symbol_grid(PolarSymbol({p: profile}), geo)
    mono = np.outer(r**n, np.exp(1j * n * t))
    out = p + n
    target = np.outer(r**out, np.exp(1j * out * t))
    tn = bergman_norm_const(out, geo.R)
    return area_pairing(sym * mono, target, geo) * tn * tn


# ---------------------------------------------------------------------------
# single-band action


def test_radial_constant_band_cancels_to_one():
    for n in (-1, 0, 3, 7):
        coeff, deg = quasi_homogeneous_apply(0, one, n, R)
        assert deg == n
        assert coeff == pytest.approx(1.0, abs=1e-14)


def test_band_action_frozen_values():
    coeff, deg = quasi_homogeneous_apply(1, one, 0, R)
    assert deg == 1
    assert coeff == pytest.approx(1.2444444444444442, abs=1e-13)
    coeff, deg = quasi_homogeneous_apply(-2, one, 1, R)
    assert deg == -1
    assert coeff == pytest.approx(0.5410106403333612, abs=1e-13)
    assert coeff == pytest.approx((1.0 - R**2) / (2.0 * math.log(2.0)), abs=1e-13)


def test_band_action_matches_area_quadrature():
    geo = area_geo()
    for p, profile, n in [
        (1, one, 0),
        (-2, one, 1),
        (2, PolyProfile({2: 1.0 + 0.0j}), 3),
        (0, PolyProfile({1: 0.5 + 0.0j}), -1),
    ]:
        coeff, _ = quasi_homogeneous_apply(p, profile, n, R)
        assert coeff == pytest.approx(coeff_by_quadrature(p, profile, n, geo), abs=1e-10)


def test_band_action_annihilates_below_basis():
    coeff, deg = quasi_homogeneous_apply(-3, one, 0, R)
    assert coeff == 0.0
    assert deg == -3


def test_band_action_rejects_degrees_below_basis():
    with pytest.raises(ValueError):
        quasi_homogeneous_apply(1, one, -2, R)


def test_apply_polar_collects_band_images():
    sym = PolarSymbol({0: one, 2: PolyProfile({1: 1.0 + 0.0j})})
    table = apply_polar_to_monomial(sym, 1, R)
    assert set(table) == {1, 3}
    assert table[1] == pytest.approx(1.0, abs=1e-14)


# ---------------------------------------------------------------------------
# section assembly


def test_constant_symbol_gives_identity_section():
    sec = build_bergman_toeplitz(PolarSymbol({0: one}), (-1, 12), R)
    assert np.max(np.abs(sec.entries - np.eye(14))) <= 1e-12


def test_radial_symbol_is_diagonal():
    sec = build_bergman_toeplitz(PolarSymbol({0: PolyProfile({2: 1.0 + 0.0j})}), (-1, 8), R)
    off = sec.entries - np.diag(np.diag(sec.entries))
    assert np.max(np.abs(off)) == 0.0
    assert sec.band_offsets == frozenset({0})


def test_band_offsets_shape_the_section():
    sym = PolarSymbol(
        {-1: one, 0: PolyProfile({1: 1.0 + 0.0j}), 2: PolyProfile({2: 1.0 + 0.0j})}
    )
    sec = build_bergman_toeplitz(sym, (-1, 8), R)
    assert sec.band_offsets == frozenset({-1, 0, 2})
    for a, m in enumerate(range(-1, 9)):
        for b, n in enumerate(range(-1, 9)):
            if m - n not in (-1, 0, 2):
                assert sec.entries[a, b] == 0.0


def test_single_band_is_weighted_subdiagonal():
    sec = build_bergman_toeplitz(PolarSymbol({3: PolyProfile({3: 1.0 + 0.0j})}), (-1, 8), R)
    for a, m in enumerate(range(-1, 9)):
        for b, n in enumerate(range(-1, 9)):
            if m - n != 3:
                assert sec.entries[a, b] == 0.0
            else:
                assert abs(sec.entries[a, b]) > 0.0


def test_window_clamps_to_basis_floor():
    sec = build_bergman_toeplitz(PolarSymbol({0: one}), (-6, 6), R)
    assert sec.row_window == (-1, 6)
    assert sec.col_window == (-1, 6)


def test_section_matches_area_quadrature():
    geo = area_geo()
    sym = PolarSymbol({3: PolyProfile({2: 1.0 + 0.0j})})
    sec = build_bergman_toeplitz(sym, (-6, 6), R)
    quad = build_bergman_section_quadrature(sym, (-6, 6), geo)
    assert np.max(np.abs(sec.entries - quad)) <= 1e-10


def test_mixed_band_section_matches_area_quadrature():
    geo = area_geo()
    rng = Lcg(51)
    sym = random_polar_symbol(rng, -2, 2, 2)
    sec = build_bergman_toeplitz(sym, (-1, 6), R)
    quad = build_bergman_section_quadrature(sym, (-1, 6), geo)
    assert np.max(np.abs(sec.entries - quad)) <= 1e-10


def test_holomorphic_sections_compose_on_the_interior():
    """Multiplying by a holomorphic monomial maps the space into itself,
    so the composed sections agree with the product-symbol section on
    columns whose images stay inside the window."""
    zb = lambda p: PolarSymbol({p: PolyProfile({p: 1.0 + 0.0j})})
    win = (-1, 12)
    a = build_bergman_toeplitz(zb(1), win, R)
    b = build_bergman_toeplitz(zb(2), win, R)
    c = build_bergman_toeplitz(zb(3), win, R)
    prod = a.entries @ b.entries
    assert np.max(np.abs(prod[:, :-2] - c.entries[:, :-2])) <= 1e-13


def test_radial_sections_commute_exactly():
    f = build_bergman_toeplitz(PolarSymbol({0: PolyProfile({1: 1.0 + 0.0j})}), (-1, 10), R)
    g = build_bergman_toeplitz(
        PolarSymbol({0: PolyProfile({0: 0.5 + 0.0j, 2: 1.0 + 0.0j})}), (-1, 10), R
    )
    assert np.array_equal(f.entries @ g.entries, g.entries @ f.entries)


def test_window_missing_every_band_image_raises():
    with pytest.raises(WindowTooSmallError):
        build_bergman_toeplitz(PolarSymbol({5: one}), (-1, 2), R)


# ---------------------------------------------------------------------------
# first unobstructed column


def test_monomial_profile_is_unconstrained():
    assert find_n0_bergman(PolyProfile({2: 1.0 + 0.0j}), 1, R) == "unconstrained"


def test_constructed_zero_pins_the_column():
    c = 6.0 * (1.0 - R**5) / (5.0 * (1.0 - R**6))
    profile = PolyProfile({0: 1.0 + 0.0j, 1: -c})
    assert find_n0_bergman(profile, 1, R) == 2


def test_zero_profile_has_no_column():
    with pytest.raises(ZeroProfileError):
        find_n0_bergman(PolyProfile({}), 1, R)


# ---------------------------------------------------------------------------
# zero-product probe


def test_probe_zero_factor_is_trivially_consistent():
    g = PolarSymbol({1: one})
    report = zero_product_experiment_bergman(PolarSymbol({}), g, (-1, 12), R)
    assert report.verdict == "ConsistentWithTheorem"
    assert report.top_band_f is None
    assert report.top_band_g == 1
    assert report.min_product_column_norm == 0.0


def test_probe_identity_times_shift():
    report = zero_product_experiment_bergman(
        PolarSymbol({0: one}), PolarSymbol({1: one}), (-1, 14), R
    )
    assert report.n0 == "unconstrained"
    assert report.n0_effective == -1
    assert max(report.ladder_residuals) <= 1e-10
    assert report.min_product_column_norm > 1e-6
    assert report.verdict == "ConsistentWithTheorem"


def test_probe_seeded_pair_reports_certificates():
    rng = Lcg(53)
    f = random_polar_symbol(rng, -2, 2, 2)
    g = random_polar_symbol(rng, -1, 2, 2, monomial_top=True)
    report = zero_product_experiment_bergman(f, g, (-1, 20), R)
    assert report.verdict == "ConsistentWithTheorem"
    assert max(report.ladder_residuals) <= 1e-10
    assert report.min_product_column_norm > 1e-6


def cli_trial(seed, trial):
    """The ``f``, ``g`` that ``lab zero-product-bergman`` draws at ``trial``."""
    _, draw_f, draw_g = _HARNESSES["zero-product-bergman"]
    rng = Lcg(seed)
    for _ in range(trial + 1):
        f, g = draw_f(rng), draw_g(rng)
    return f, g


def test_ill_conditioned_ladder_keeps_its_inclusions():
    # seed 2, trial 9: the ladder columns reach condition 1e15, where a
    # least-squares certificate gave residual 0.83 for a true inclusion
    f, g = cli_trial(2, 9)
    report = zero_product_experiment_bergman(f, g, (-24, 24), R)
    assert max(report.ladder_residuals) <= 1e-10


def test_ladder_without_its_image_column_stays_far():
    """Negative control: the image column of ``z^(n0+l)`` is the first to
    reach degree ``n0+N+l``; without it the target is outside the span."""
    f, g = cli_trial(2, 9)
    report = zero_product_experiment_bergman(f, g, (-24, 24), R)
    lo, hi, n0, N = -1, 24, report.n0_effective, report.top_band_g
    image = [
        _coeff_vector(apply_polar_to_monomial(g, n0 + l, R), (lo, hi)) for l in range(9)
    ]
    base = [_coeff_vector({m: 1.0}, (lo, hi)) for m in range(lo, n0 + N)]
    for l in range(9):
        target = _coeff_vector({n0 + N + l: 1.0}, (lo, hi))
        assert _span_residual(target, base + image[:l]) > 1e-3


@pytest.mark.parametrize("seed", [2, 9, 26])
def test_bergman_harness_passes_where_the_ladder_degenerates(tmp_path, seed):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"R": 0.5, "seed": seed}))
    out = tmp_path / "out"
    assert main(["zero-product-bergman", "--config", str(cfg), "--out", str(out)]) == 0


def test_probe_rejects_short_ladder_window():
    with pytest.raises(WindowTooSmallError):
        zero_product_experiment_bergman(
            PolarSymbol({0: one}), PolarSymbol({1: one}), (-1, 4), R
        )
