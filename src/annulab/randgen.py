"""Seed-deterministic symbol generation for the falsification harnesses.

A fixed 64-bit linear congruential generator drives every random draw so
that independent implementations can reproduce the exact trial symbols
from the seed alone.  The generator is

    state <- (state * 6364136223846793005 + 1442695040888963407) mod 2**64

and a draw maps the top 53 bits of the new state to [0, 1), then affinely
to [-1, 1).  A coefficient draws its real part first, then its imaginary
part.  Generation order is documented on each constructor; all draws come
from one stream, so consecutive constructions continue the sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

from .symbols import ExactSymbol, PolarSymbol, PolyProfile

_MULT = 6364136223846793005
_INC = 1442695040888963407
_MASK = (1 << 64) - 1
_UNIT = float(1 << 53)


@dataclass
class Lcg:
    """The documented 64-bit linear congruential stream."""

    state: int

    def __post_init__(self):
        self.state &= _MASK

    def uniform(self) -> float:
        """One draw in [-1, 1) from the top 53 bits of the next state."""
        self.state = (self.state * _MULT + _INC) & _MASK
        return 2.0 * ((self.state >> 11) / _UNIT) - 1.0

    def coefficient(self) -> complex:
        """Two draws, real part first (:meth:`uniform` twice, inlined)."""
        re = self.state = (self.state * _MULT + _INC) & _MASK
        im = self.state = (re * _MULT + _INC) & _MASK
        return complex(2.0 * ((re >> 11) / _UNIT) - 1.0, 2.0 * ((im >> 11) / _UNIT) - 1.0)


def random_boundary_symbol(rng: Lcg, reach: int) -> ExactSymbol:
    """Band-limited two-circle symbol with coefficients on [-reach, reach].

    Draw order: the full outer-circle table with degrees ascending, then
    the full inner-circle table with degrees ascending.
    """
    if reach < 0:
        raise ValueError("reach must be nonnegative")
    cC = {n: rng.coefficient() for n in range(-reach, reach + 1)}
    cC0 = {n: rng.coefficient() for n in range(-reach, reach + 1)}
    return ExactSymbol(coeffs_C=cC, coeffs_C0=cC0)


def random_polar_symbol(
    rng: Lcg,
    band_lo: int,
    band_hi: int,
    profile_degree: int,
    monomial_top: bool = False,
) -> PolarSymbol:
    """Banded symbol with polynomial radial profiles.

    Draw order: bands ascending; within a band, radial degrees ascending.
    With ``monomial_top`` the highest band draws a single coefficient at
    the top radial degree, so its Mellin moment has no real zeros.
    """
    if band_hi < band_lo:
        raise ValueError("empty band range")
    if profile_degree < 0:
        raise ValueError("profile degree must be nonnegative")
    bands: dict[int, PolyProfile] = {}
    for k in range(band_lo, band_hi + 1):
        if monomial_top and k == band_hi:
            bands[k] = PolyProfile({profile_degree: rng.coefficient()})
        else:
            bands[k] = PolyProfile(
                {d: rng.coefficient() for d in range(profile_degree + 1)}
            )
    return PolarSymbol(bands=bands)
