"""Deterministic generator stream and documented draw orders."""

import struct

import pytest

from annulab.randgen import Lcg, random_boundary_symbol, random_polar_symbol


def uniform(rng: Lcg) -> float:
    """The scalar reference stream: one LCG step of ``rng``, its top 53
    bits mapped to [-1, 1), as the module docstring documents them."""
    rng.state = (rng.state * 6364136223846793005 + 1442695040888963407) % 2**64
    return 2.0 * ((rng.state >> 11) / 2**53) - 1.0


def test_seed_one_stream_is_frozen():
    rng = Lcg(1)
    got = [uniform(rng) for _ in range(4)]
    want = [
        -0.15358165825457348,
        0.01881488576744128,
        0.2967187879268611,
        -0.23427321898347975,
    ]
    assert got == want


def test_same_seed_same_stream():
    a, b = Lcg(99), Lcg(99)
    assert [uniform(a) for _ in range(50)] == [uniform(b) for _ in range(50)]


def test_uniform_range():
    rng = Lcg(7)
    for _ in range(2000):
        u = uniform(rng)
        assert -1.0 <= u < 1.0


def test_coefficient_draws_real_then_imaginary():
    rng = Lcg(5)
    probe = Lcg(5)
    re, im = uniform(probe), uniform(probe)
    assert rng.coefficient() == complex(re, im)


def test_boundary_symbol_draw_order():
    rng = Lcg(11)
    sym = random_boundary_symbol(rng, 2)
    probe = Lcg(11)
    for n in range(-2, 3):
        assert sym.coeffs_C[n] == probe.coefficient()
    for n in range(-2, 3):
        assert sym.coeffs_C0[n] == probe.coefficient()


def test_polar_symbol_draw_order():
    rng = Lcg(13)
    sym = random_polar_symbol(rng, -1, 2, 3)
    probe = Lcg(13)
    for k in range(-1, 3):
        for d in range(4):
            assert sym.bands[k].coeffs[d] == probe.coefficient()


def test_polar_symbol_monomial_top_is_single_draw():
    rng = Lcg(17)
    sym = random_polar_symbol(rng, 0, 2, 3, monomial_top=True)
    probe = Lcg(17)
    for k in (0, 1):
        for d in range(4):
            assert sym.bands[k].coeffs[d] == probe.coefficient()
    assert list(sym.bands[2].coeffs) == [3]
    assert sym.bands[2].coeffs[3] == probe.coefficient()


def _bits(values) -> list[bytes]:
    return [struct.pack("<dd", v.real, v.imag) for v in values]


@pytest.mark.parametrize("seed", [0, 1, 4511, 2**64 - 1])
def test_block_draws_are_the_scalar_stream_bit_for_bit(seed):
    """The constructors' block draws (uint64 array arithmetic) give the
    scalar stream's bits and leave its state, so scalar and block draws
    continue one sequence."""
    for reach in (0, 1, 4, 48):
        rng, probe = Lcg(seed), Lcg(seed)
        sym = random_boundary_symbol(rng, reach)
        degrees = range(-reach, reach + 1)
        want = [probe.coefficient() for _ in range(2 * len(degrees))]
        assert list(sym.coeffs_C) == list(degrees) == list(sym.coeffs_C0)
        assert _bits([*sym.coeffs_C.values(), *sym.coeffs_C0.values()]) == _bits(want)
        assert rng.state == probe.state
        assert uniform(rng) == uniform(probe)
    for monomial_top in (False, True):
        rng, probe = Lcg(seed), Lcg(seed)
        sym = random_polar_symbol(rng, -2, 3, 4, monomial_top=monomial_top)
        for k, band in sym.bands.items():
            top = monomial_top and k == 3
            assert list(band.coeffs) == ([4] if top else list(range(5)))
            assert _bits(band.coeffs.values()) == _bits(
                [probe.coefficient() for _ in band.coeffs]
            )
        assert rng.state == probe.state
    for count in (0, 1, 7, 100):
        rng, probe = Lcg(seed), Lcg(seed)
        block = rng.coefficients(count)
        assert all(type(c) is complex for c in block)
        assert _bits(block) == _bits([probe.coefficient() for _ in range(count)])
        assert rng.state == probe.state
        assert rng.coefficient() == probe.coefficient()


def test_generator_rejects_bad_shapes():
    rng = Lcg(1)
    with pytest.raises(ValueError):
        random_boundary_symbol(rng, -1)
    with pytest.raises(ValueError):
        random_polar_symbol(rng, 2, 1, 3)
    with pytest.raises(ValueError):
        random_polar_symbol(rng, 0, 1, -2)
