"""Bergman-space sections driven by banded polar symbols."""

import json
import math

import numpy as np
import pytest
from conftest import adversarial_radial_pair, grid_angles

from annulab.bergman import (
    build_bergman_section_quadrature,
    build_bergman_toeplitz,
    find_n0_bergman,
    polar_symbol_grid,
    zero_product_experiment_bergman,
)
from annulab.cli import _HARNESSES, main
from annulab.errors import WindowTooSmallError, ZeroProfileError
from annulab.geometry import AnnulusGeometry, bergman_norm_const
from annulab.hardy import ZERO_DIVISOR_FLOOR, _ladder, dense
from annulab.randgen import Lcg, random_polar_symbol
from annulab.symbols import PolarSymbol, PolyProfile

R = 0.5
one = PolyProfile({0: 1.0 + 0.0j})


def area_geo() -> AnnulusGeometry:
    return AnnulusGeometry(R=R, m_circle=64)


def area_pairing(u, v, geo):
    """Angular trapezoid mean, then the radial Gauss sum with the area
    weight ``r``, of ``u conj(v)`` on the (radial, angular) grid."""
    r, w = geo.radial_nodes()
    return complex(np.sum(w * r * np.mean(u * np.conj(v), axis=1)))


def coeff_by_quadrature(p, profile, n, geo):
    """Image coefficient recovered from the area pairing directly."""
    t = grid_angles(geo)
    r, _ = geo.radial_nodes()
    sym = polar_symbol_grid(PolarSymbol({p: profile}), geo)
    mono = np.outer(r**n, np.exp(1j * n * t))
    out = p + n
    target = np.outer(r**out, np.exp(1j * out * t))
    tn = bergman_norm_const(out, geo.R)
    return area_pairing(sym * mono, target, geo) * tn * tn


# ---------------------------------------------------------------------------
# single-band action, read from section entries


def monomial_coeff(p, profile, n, R):
    """Coefficient of ``z^(p+n)`` in the image of ``z^n`` under one band:
    the section entry at (row p+n, column n) rescaled by ``t_(p+n) / t_n``
    out of the orthonormal basis."""
    m = p + n
    lo = -1
    sec = dense(build_bergman_toeplitz(PolarSymbol({p: profile}), (lo, max(m, n)), R))
    return sec[m - lo, n - lo] * bergman_norm_const(m, R) / bergman_norm_const(n, R)


def test_radial_constant_band_cancels_to_one():
    sec = dense(build_bergman_toeplitz(PolarSymbol({0: one}), (-1, 7), R))
    for n in (-1, 0, 3, 7):
        assert sec[n + 1, n + 1] == pytest.approx(1.0, abs=1e-14)


def test_band_action_frozen_values():
    assert monomial_coeff(1, one, 0, R) == pytest.approx(1.2444444444444442, abs=1e-13)
    coeff = monomial_coeff(-2, one, 1, R)
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
        coeff = monomial_coeff(p, profile, n, R)
        assert coeff == pytest.approx(coeff_by_quadrature(p, profile, n, geo), abs=1e-10)


def test_band_action_annihilates_below_basis():
    # z^0 would go to z^-3, below the section's basis z^-1 .. z^6: its
    # column is empty, while z^2 lands on z^-1
    sec = dense(build_bergman_toeplitz(PolarSymbol({-3: one}), (-1, 6), R))
    assert np.all(sec[:, 0 + 1] == 0.0)
    assert sec[-1 + 1, 2 + 1] != 0.0


def test_builders_reject_an_empty_window():
    with pytest.raises(ValueError, match="empty window"):
        build_bergman_toeplitz(PolarSymbol({1: one}), (-2, -6), R)
    with pytest.raises(ValueError, match="empty window"):
        build_bergman_section_quadrature(PolarSymbol({1: one}), (-2, -6), area_geo())


def test_apply_polar_collects_band_images():
    sym = PolarSymbol({0: one, 2: PolyProfile({1: 1.0 + 0.0j})})
    sec = dense(build_bergman_toeplitz(sym, (-1, 6), R))
    column = sec[:, 1 + 1]
    assert set(np.flatnonzero(column) - 1) == {1, 3}
    assert column[1 + 1] == pytest.approx(1.0, abs=1e-14)


# ---------------------------------------------------------------------------
# section assembly


def test_constant_symbol_gives_identity_section():
    sec = dense(build_bergman_toeplitz(PolarSymbol({0: one}), (-1, 12), R))
    assert np.max(np.abs(sec - np.eye(14))) <= 1e-12


def test_radial_symbol_is_diagonal():
    sec = dense(build_bergman_toeplitz(PolarSymbol({0: PolyProfile({2: 1.0 + 0.0j})}), (-1, 8), R))
    off = sec - np.diag(np.diag(sec))
    assert np.max(np.abs(off)) == 0.0


def test_band_offsets_shape_the_section():
    sym = PolarSymbol(
        {-1: one, 0: PolyProfile({1: 1.0 + 0.0j}), 2: PolyProfile({2: 1.0 + 0.0j})}
    )
    sec = dense(build_bergman_toeplitz(sym, (-1, 8), R))
    for a, m in enumerate(range(-1, 9)):
        for b, n in enumerate(range(-1, 9)):
            if m - n not in (-1, 0, 2):
                assert sec[a, b] == 0.0


def test_single_band_is_weighted_subdiagonal():
    sec = dense(build_bergman_toeplitz(PolarSymbol({3: PolyProfile({3: 1.0 + 0.0j})}), (-1, 8), R))
    for a, m in enumerate(range(-1, 9)):
        for b, n in enumerate(range(-1, 9)):
            if m - n != 3:
                assert sec[a, b] == 0.0
            else:
                assert abs(sec[a, b]) > 0.0


def test_window_covers_its_degrees_as_given():
    """Every z^n, n in Z, is a basis vector: the constant symbol's section
    over (-6, 6) is the identity on all 13 degrees."""
    sec = dense(build_bergman_toeplitz(PolarSymbol({0: one}), (-6, 6), R))
    assert sec.shape == (13, 13)
    assert np.max(np.abs(sec - np.eye(13))) <= 1e-12


def test_product_interior_columns_do_not_depend_on_the_window_floor():
    """ROADMAP item 1's reproducer, the first trial pair of seed 1: a
    column whose image under ``T_g``, and that image's under ``T_f``, stays
    inside the window is the true product's column, so lowering the floor
    by M changes no interior column, -1 and 0 among them, beyond rounding."""
    f, g = cli_trial(1, 0)
    lo, hi, M = -8, 20, 10
    margin = f.bandwidth() + g.bandwidth()
    cols = np.arange(lo + margin, hi - margin + 1)
    assert {-1, 0} <= set(cols.tolist())
    small, wide = (dense(build_bergman_toeplitz(f, w, R)) @ dense(build_bergman_toeplitz(g, w, R))
                   for w in ((lo, hi), (lo - M, hi)))
    dev = np.max(np.abs(wide[M:, cols - lo + M] - small[:, cols - lo]))
    assert dev <= 1e-13 * np.max(np.abs(small))


def test_section_matches_area_quadrature():
    geo = area_geo()
    sym = PolarSymbol({3: PolyProfile({2: 1.0 + 0.0j})})
    sec = dense(build_bergman_toeplitz(sym, (-6, 6), R))
    quad = build_bergman_section_quadrature(sym, (-6, 6), geo)
    assert np.max(np.abs(sec - quad)) <= 1e-10


def test_mixed_band_section_matches_area_quadrature():
    geo = area_geo()
    rng = Lcg(51)
    sym = random_polar_symbol(rng, -2, 2, 2)
    sec = dense(build_bergman_toeplitz(sym, (-1, 6), R))
    quad = build_bergman_section_quadrature(sym, (-1, 6), geo)
    assert np.max(np.abs(sec - quad)) <= 1e-10


def test_holomorphic_sections_compose_on_the_interior():
    """Multiplying by a holomorphic monomial maps the space into itself,
    so the composed sections agree with the product-symbol section on
    columns whose images stay inside the window."""
    zb = lambda p: PolarSymbol({p: PolyProfile({p: 1.0 + 0.0j})})
    win = (-1, 12)
    a = dense(build_bergman_toeplitz(zb(1), win, R))
    b = dense(build_bergman_toeplitz(zb(2), win, R))
    c = dense(build_bergman_toeplitz(zb(3), win, R))
    prod = a @ b
    assert np.max(np.abs(prod[:, :-2] - c[:, :-2])) <= 1e-13


def test_radial_sections_commute_exactly():
    f = dense(build_bergman_toeplitz(PolarSymbol({0: PolyProfile({1: 1.0 + 0.0j})}), (-1, 10), R))
    g = dense(build_bergman_toeplitz(
        PolarSymbol({0: PolyProfile({0: 0.5 + 0.0j, 2: 1.0 + 0.0j})}), (-1, 10), R
    ))
    assert np.array_equal(f @ g, g @ f)


def test_window_missing_every_band_image_raises():
    with pytest.raises(WindowTooSmallError):
        build_bergman_toeplitz(PolarSymbol({5: one}), (-1, 2), R)


# ---------------------------------------------------------------------------
# first unobstructed column


def test_monomial_profile_is_unconstrained():
    assert find_n0_bergman(PolyProfile({2: 1.0 + 0.0j}), 1, R, (-32, 32)) == "unconstrained"


def test_constructed_zero_pins_the_column():
    c = 6.0 * (1.0 - R**5) / (5.0 * (1.0 - R**6))
    profile = PolyProfile({0: 1.0 + 0.0j, 1: -c})
    assert find_n0_bergman(profile, 1, R, (-32, 32)) == 2


def test_zero_profile_has_no_column():
    with pytest.raises(ZeroProfileError):
        find_n0_bergman(PolyProfile({}), 1, R, (-32, 32))


# ---------------------------------------------------------------------------
# zero-product probe


def test_probe_zero_factor_is_trivially_consistent():
    g = PolarSymbol({1: one})
    [report] = zero_product_experiment_bergman([(PolarSymbol({}), g)], (-1, 12), R)
    assert report.verdict == "ConsistentWithTheorem"
    assert report.top_degree == 1
    assert report.min_product_column_norm == 0.0


def test_probe_identity_times_shift():
    [report] = zero_product_experiment_bergman(
        [(PolarSymbol({0: one}), PolarSymbol({1: one}))], (-1, 14), R
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
    [report] = zero_product_experiment_bergman([(f, g)], (-1, 20), R)
    assert report.verdict == "ConsistentWithTheorem"
    assert max(report.ladder_residuals) <= 1e-10
    assert report.min_product_column_norm > 1e-6


@pytest.mark.parametrize("radius", [0.2, 0.5])
def test_probe_reports_on_a_negative_top_band(radius):
    """A g whose top band N is negative puts its ladder's base below the
    window unless the first rung sits ``g.neg_reach() >= -N`` above the
    floor; every such pair must come back as a report, not a traceback,
    and no interior product column may read zero: the interior margin
    keeps out the columns whose image falls below the window."""
    for window in ((-1, 24), (-8, 24)):
        lo = window[0]
        g = PolarSymbol({-2: one, -1: one})
        [report] = zero_product_experiment_bergman(
            [(PolarSymbol({0: one}), g)], window, radius
        )
        assert report.verdict == "ConsistentWithTheorem"
        assert report.n0_effective == lo + 2
        assert max(report.ladder_residuals) == 0.0 == report.ladder_band_leak
        rng = Lcg(7)
        pairs = [
            (random_polar_symbol(rng, -2, 3, 3), random_polar_symbol(rng, -3, top, 3))
            for top in (-1, -2) for _ in range(4)
        ]
        reports = zero_product_experiment_bergman(pairs, window, radius)
        assert len(reports) == len(pairs)
        for (_, g), rep in zip(pairs, reports):
            first = lo + g.neg_reach()
            n0 = first if rep.n0 == "unconstrained" else max(rep.n0, first)
            assert rep.n0_effective == n0
            assert max(rep.ladder_residuals) <= 1e-15
            assert rep.ladder_band_leak == 0.0
            assert rep.min_product_column_norm > ZERO_DIVISOR_FLOOR


def cli_trial(seed, trial):
    """The ``f``, ``g`` that ``lab zero-product-bergman`` draws at ``trial``."""
    *_, draw_f, draw_g = _HARNESSES["zero-product-bergman"]
    rng = Lcg(seed)
    for _ in range(trial + 1):
        f, g = draw_f(rng), draw_g(rng)
    return f, g


def test_ill_conditioned_ladder_keeps_its_inclusions():
    # seed 2, trial 9: the ladder columns reach condition 1e15, where a
    # least-squares certificate gave residual 0.83 for a true inclusion
    f, g = cli_trial(2, 9)
    [report] = zero_product_experiment_bergman([(f, g)], (-24, 24), R)
    assert max(report.ladder_residuals) <= 1e-10


def test_ladder_without_its_image_column_stays_far():
    """Negative control: the image column of ``z^(n0+l)`` is the first to
    reach degree ``n0+N+l``; without it the target is outside the span."""
    f, g = cli_trial(2, 9)
    [report] = zero_product_experiment_bergman([(f, g)], (-24, 24), R)
    lo, hi, n0, N = -24, 24, report.n0_effective, report.top_degree
    tg = dense(build_bergman_toeplitz(g, (lo, hi), R))
    # rung l reads the images of z^(n0) .. z^(n0+l-1): one column behind
    first = n0 - lo
    behind = np.zeros_like(tg)
    behind[:, first + 1 :] = tg[:, first:-1]
    S = np.eye(hi - lo + 1)[None]
    [restricted], _, _ = _ladder(S, behind[None], tg[None], first, N, 8)
    assert min(restricted) > 1e-3


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_out_of_span_target_breaks_the_band_certificate():
    """Seed 2, trial 9, with each image of ``z^(n0+l)`` as the target
    against the unit base and the images of rungs 0 .. l-1: about 0.3% of
    each target lies outside that span, yet the scaled residual falls
    below the tolerance by rung 8.  The operator ``G`` with ``P = S G`` on
    the rung columns then has no top-degree entry (condition (b)), so the
    band leak reads inf where the harness's own ladder reads 0."""
    f, g = cli_trial(2, 9)
    [report] = zero_product_experiment_bergman([(f, g)], (-24, 24), R)
    assert report.ladder_band_leak == 0.0
    lo, hi, n0, N, L = -24, 24, report.n0_effective, report.top_degree, 8
    tg = dense(build_bergman_toeplitz(g, (lo, hi), R))
    first, size = n0 - lo, hi - lo + 1
    rungs = np.arange(first, first + L + 1)
    S = np.eye(size, dtype=complex)
    S[:, rungs + N] = tg[:, rungs]
    P = np.zeros_like(tg)
    P[:, rungs[1:]] = tg[:, rungs[:-1]]
    G = np.zeros((size, size))
    G[rungs[1:] + N - 1, rungs[1:]] = 1.0
    assert np.array_equal(P[:, rungs], (S @ G)[:, rungs])
    [residuals], _, [leak] = _ladder(S[None], P[None], G[None], first, N, L)
    assert residuals[-1] <= 1e-10
    assert leak == np.inf


def test_smallest_relative_pivot_of_the_degenerate_ladder():
    """Seed 2, trial 9: the top-degree entry of each ladder image is only
    about 0.3% of its column, the factor the certificate grows by."""
    f, g = cli_trial(2, 9)
    [report] = zero_product_experiment_bergman([(f, g)], (-24, 24), R)
    assert report.min_relative_pivot == pytest.approx(3.07e-3, rel=5e-3)


@pytest.mark.parametrize("seed", [2, 9, 26])
def test_bergman_harness_passes_where_the_ladder_degenerates(tmp_path, seed):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"R": 0.5, "seed": seed}))
    out = tmp_path / "out"
    assert main(["zero-product-bergman", "--config", str(cfg), "--out", str(out)]) == 0


#: (window, R) where item 13's pair has product columns in the window's
#: interior above the floor, and where its whole interior is below it
ESCAPES = [((-10, 14), 0.3), ((-10, 14), 0.5), ((-10, 14), 0.8), ((-4, 14), 0.3), ((-4, 14), 0.5)]
HELD = [((-1, 14), 0.3), ((-1, 14), 0.5), ((-1, 14), 0.8), ((-4, 14), 0.8)]
HOLD = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 2: an absolute floor reads a small product as zero"
)


@pytest.mark.parametrize("window, radius", [
    pytest.param(w, r, marks=[HOLD] if (w, r) in HELD else [], id=f"{w[0]}..{w[1]}-R{r}")
    for w, r in ESCAPES + HELD
])
def test_adversarial_radial_pair_is_not_a_zero_divisor(window, radius):
    """The pair's product vanishes on degrees -1 .. 14 but not below, where
    the whole-space window reaches (largest interior column 0.19, 1.6e-2
    and 2.2e-5 on (-10, 14) at R 0.3, 0.5 and 0.8).  On (-1, 14), and on
    (-4, 14) at R 0.8, every interior column is below 1e-6 and the verdict
    is a wrong ``Violation`` until item 2's scale-aware rule lands."""
    f, g = adversarial_radial_pair(radius)
    [report] = zero_product_experiment_bergman([(f, g)], window, radius)
    assert max(report.ladder_residuals) == 0.0 == report.ladder_band_leak
    assert report.verdict == "ConsistentWithTheorem"


@pytest.mark.parametrize("radius", [
    0.3,
    pytest.param(0.5, marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP items 2 and 13: n0 keeps no margin from the located root"
    )),
    0.8,
])
def test_n0_clears_the_last_annihilated_column_of_the_radial_g(radius):
    """Item 13's g annihilates ``z^-1 .. z^5``: its Mellin transform
    vanishes at ``2n + 2`` for those n, so the first unobstructed column is
    6.  At R 0.5 the scan locates the zero at 12 as 11.99983, and
    ``floor(n* + 1e-9) + 1`` puts n0 at 5, on a column where
    ``T_g[5, 5]`` is 7.0e-10 against 1.7e-5 at n = 6."""
    _, g = adversarial_radial_pair(radius)
    assert find_n0_bergman(g.bands[0], 0, radius, (-10, 14)) >= 6


def test_probe_rejects_short_ladder_window():
    with pytest.raises(WindowTooSmallError):
        zero_product_experiment_bergman(
            [(PolarSymbol({0: one}), PolarSymbol({1: one}))], (-1, 4), R
        )
