"""Built-in reference symbols with exactly known coefficient tables.

These cover the calibration points of the singular-value diagnostics: a
conjugated singular inner function whose Hankel sections keep a growing
cluster of large singular values, a smooth symbol whose sections decay,
and small exact symbols for the algebraic identities.
"""

from __future__ import annotations

import math

import numpy as np

from .symbols import ExactSymbol, laurent_symbol


def singular_inner_coeffs(count: int) -> np.ndarray:
    """Taylor coefficients of ``exp((z + 1) / (z - 1))`` at the origin.

    Uses the Laguerre three-term recurrence at argument 2: the n-th
    coefficient equals ``exp(-1) * (L_n(2) - L_(n-1)(2))``.  The
    recurrence is numerically benign because ``L_n(2)`` stays bounded.
    """
    if count < 1:
        raise ValueError("count must be positive")
    out = np.empty(count)
    prev, cur = 0.0, 1.0  # L_(-1), L_0 at x = 2
    scale = math.exp(-1.0)
    out[0] = scale * (cur - prev)
    for n in range(1, count):
        prev, cur = cur, ((2.0 * (n - 1) + 1.0 - 2.0) * cur - (n - 1) * prev) / n
        out[n] = scale * (cur - prev)
    return out


def conjugated_singular_inner_symbol(count: int = 1025) -> ExactSymbol:
    """Boundary symbol whose outer trace conjugates a singular inner function.

    The outer-circle table carries the reflected coefficients (index ``-n``
    holds the n-th Taylor coefficient); the inner circle is zero.  Unimodular
    on the outer circle, with an essential boundary singularity at 1, so its
    Hankel sections do not flatten out as the truncation grows.
    """
    coeffs = singular_inner_coeffs(count)
    table = {-n: complex(c) for n, c in enumerate(coeffs) if c != 0.0}
    return ExactSymbol(coeffs_C=table, coeffs_C0={})


def hilbert_symbol(count: int = 1025) -> ExactSymbol:
    """Boundary symbol whose outer pullback's disc Hankel sections are the
    Hilbert matrix ``[1 / (j + k + 1)]``.

    The outer-circle table holds ``1/n`` at index ``-n`` for
    ``n = 1 .. count - 1``; the inner circle is zero.  The infinite matrix
    is bounded with norm pi and not compact (Magnus), while every
    truncation of the table gives compact sections.
    """
    table = {-n: complex(1.0 / n) for n in range(1, count)}
    return ExactSymbol(coeffs_C=table, coeffs_C0={})


def smooth_decay_symbol() -> ExactSymbol:
    """Two-sided symbol with geometrically shrinking coefficient tables:
    ``0.75^|n|`` on the outer circle and half that on the inner one, for
    ``|n| <= 25``.

    Smooth on both circles, so every associated Hankel section has rapidly
    decaying singular values; serves as the positive calibration point of
    the decay indicator and as plot material.
    """
    ratio, reach = 0.75, 25
    cC = {n: complex(ratio ** abs(n)) for n in range(-reach, reach + 1)}
    cC0 = {n: complex(0.5 * ratio ** abs(n)) for n in range(-reach, reach + 1)}
    return ExactSymbol(coeffs_C=cC, coeffs_C0=cC0)


def split_sign_symbol() -> ExactSymbol:
    """Constant 1 on the outer circle and -1 on the inner circle."""
    return ExactSymbol(coeffs_C={0: 1.0 + 0.0j}, coeffs_C0={0: -1.0 + 0.0j})


def analytic_square_symbol(R: float) -> ExactSymbol:
    """Boundary trace of ``z**2``, holomorphic across the annulus."""
    return laurent_symbol({2: 1.0 + 0.0j}, R)


#: references whose table truncates an infinite one to ``count`` coefficients
TRUNCATED = ("conjugated-singular-inner", "hilbert")


def reference_symbol(name: str, R: float, count: int = 1025) -> ExactSymbol:
    """Look up a built-in symbol by its registry name."""
    if name == "conjugated-singular-inner":
        return conjugated_singular_inner_symbol(count)
    if name == "hilbert":
        return hilbert_symbol(count)
    if name == "smooth-decay":
        return smooth_decay_symbol()
    if name == "split-sign":
        return split_sign_symbol()
    if name == "analytic-square":
        return analytic_square_symbol(R)
    raise KeyError(f"unknown reference symbol {name!r}")
