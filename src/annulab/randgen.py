"""Seed-deterministic symbol generation for the falsification harnesses.

A fixed 64-bit linear congruential generator drives every random draw so
that independent implementations can reproduce the exact trial symbols
from the seed alone.  The generator is

    state <- (state * 6364136223846793005 + 1442695040888963407) mod 2**64

and a draw maps the top 53 bits of the new state to [0, 1), then affinely
to [-1, 1).  A coefficient draws its real part first, then its imaginary
part.  Generation order is documented on each constructor; all draws come
from one stream, so consecutive constructions continue the sequence.  The
constructors take their draws as one block (:meth:`Lcg.coefficients`),
which gives the same draws and the same final state as the scalar stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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

    def coefficient(self) -> complex:
        """Two draws, real part first, each in [-1, 1) from the top 53
        bits of the next state."""
        re = self.state = (self.state * _MULT + _INC) & _MASK
        im = self.state = (re * _MULT + _INC) & _MASK
        return complex(2.0 * ((re >> 11) / _UNIT) - 1.0, 2.0 * ((im >> 11) / _UNIT) - 1.0)

    def coefficients(self, count: int) -> list[complex]:
        """``count`` :meth:`coefficient` draws as one block of the stream.

        The i-th next state is ``A_i s + C_i mod 2**64``, with ``A_i`` the
        multiplier's i-th power and ``C_i`` the increment ``c`` times ``1 +
        A_1 + ... + A_(i-1)``, that is ``A_i (s - c) + c (1 + A_1 + ... +
        A_i)``, formed in place on uint64 arrays, which wrap silently.  The
        map of a draw to [-1, 1) is exact in float64 (``2 (x / 2**53)`` and
        ``x (2 / 2**53)`` are one power-of-two scaling of an integer below
        2**53), so draws and final state have the scalar stream's bits.
        """
        a = np.full(2 * count, _MULT, dtype=np.uint64).cumprod()
        states = a.cumsum()
        states += 1
        states *= _INC
        a *= (self.state - _INC) & _MASK
        states += a
        if count:
            self.state = int(states[-1])
        states >>= 11
        u = states * (2.0 / _UNIT)
        u -= 1.0
        return u.view(complex).tolist()


def random_boundary_symbol(rng: Lcg, reach: int) -> ExactSymbol:
    """Band-limited two-circle symbol with coefficients on [-reach, reach].

    Draw order: the full outer-circle table with degrees ascending, then
    the full inner-circle table with degrees ascending.
    """
    if reach < 0:
        raise ValueError("reach must be nonnegative")
    degrees = range(-reach, reach + 1)
    draws = rng.coefficients(2 * len(degrees))
    return ExactSymbol(coeffs_C=dict(zip(degrees, draws)),
                       coeffs_C0=dict(zip(degrees, draws[len(degrees):])))


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
    degrees = range(profile_degree + 1)
    top = 1 if monomial_top else len(degrees)
    # zip stops at the end of ``degrees`` before it takes a further draw
    draws = iter(rng.coefficients((band_hi - band_lo) * len(degrees) + top))
    bands = {k: PolyProfile(dict(zip(degrees, draws))) for k in range(band_lo, band_hi)}
    bands[band_hi] = PolyProfile(
        {profile_degree: next(draws)} if monomial_top else dict(zip(degrees, draws))
    )
    return PolarSymbol(bands=bands)
