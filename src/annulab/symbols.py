"""Symbols on the annulus boundary and in polar form, plus their transforms.

A boundary symbol carries one Fourier coefficient sequence per boundary
circle; the two sequences are independent, and ``ExactSymbol`` stores
each as a finite coefficient dictionary.  Polar symbols for the area
(Bergman) theory are finite sums of angular bands, each with a
polynomial radial profile.  Grid samples are made only for the
quadrature oracles (:func:`sample_symbol`), and :func:`_analyze` is the
one route from grid samples back to coefficients.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import AliasingError, FloatRangeError
from .geometry import AnnulusGeometry, BoundaryData


# ---------------------------------------------------------------------------
# boundary symbols


class _Degrees:
    """One view of a symbol's coefficient tables, which the degree queries
    and the algebra (:func:`multiply_symbols`, :func:`conjugate_symbol`)
    read for every kind: ``_tables`` holds the tables, each keyed by an
    angular degree, or by ``(band, radial degree)`` for a polar symbol;
    ``_of`` builds the symbol of the same kind from tables in that layout;
    ``_band`` reads a key's angular degree and ``_reflect`` negates it.
    ``_live`` holds the sorted degrees with a nonzero coefficient: the
    support of a boundary symbol, the live bands of a polar one.  No code
    mutates a table after construction, so each symbol computes them once."""

    _band = staticmethod(lambda n: n)
    _reflect = staticmethod(lambda n: -n)
    _of = classmethod(lambda cls, *tables: cls(*tables))

    @cached_property
    def _live(self) -> list[int]:
        return sorted({self._band(n) for t in self._tables for n, c in t.items() if c != 0.0})

    def is_zero(self) -> bool:
        return not self._live

    def top_degree(self) -> int:
        return self._live[-1]

    def bandwidth(self) -> int:
        return max(-self._live[0], self._live[-1]) if self._live else 0

    def neg_reach(self) -> int:
        """How far below zero the degrees extend (0 for analytic-type support)."""
        return max(0, -self._live[0]) if self._live else 0


@dataclass(frozen=True)
class ExactSymbol(_Degrees):
    """Boundary symbol given by finite coefficient tables, one per circle.

    ``coeffs_C[n]`` is the coefficient of ``exp(i n t)`` for the values on
    the unit circle, ``coeffs_C0[n]`` the same for the values on the inner
    circle (as a function of its own angle).
    """

    coeffs_C: dict[int, complex] = field(default_factory=dict)
    coeffs_C0: dict[int, complex] = field(default_factory=dict)

    _tables = property(lambda self: (self.coeffs_C, self.coeffs_C0))
    support = property(lambda self: self._live)


def laurent_symbol(coeffs: dict[int, complex], R: float) -> ExactSymbol:
    """Boundary trace of a single Laurent polynomial ``sum c_n z^n``.

    On the inner circle the monomial ``z^n`` contributes ``R^n exp(i n t)``,
    so the two coefficient tables are locked together; symbols of this form
    multiply the Hardy space into itself.
    """
    return ExactSymbol(
        coeffs_C={n: complex(c) for n, c in coeffs.items()},
        coeffs_C0={n: complex(c) * R**n for n, c in coeffs.items()},
    )


def sample_symbol(sym: ExactSymbol, geo: AnnulusGeometry) -> BoundaryData:
    """Boundary grid samples of a symbol, synthesized from its tables.

    Refuses, with :class:`FloatRangeError`, a table whose samples the grid's
    FFTs cannot take.  A sample is at most the table's absolute coefficient
    sum ``S`` in modulus.  An FFT on ``m = m_circle`` nodes, whatever its
    normalization, first forms unscaled partial sums of at most ``m`` terms,
    each a sample times a unit phase, so every value it forms is at most
    ``m S`` in modulus; the same holds for the samples times basis functions,
    which are at most 1 in modulus.  Every such FFT therefore stays finite
    when ``m S <= float max``, and a table past that is refused before the
    first one is taken.
    """
    for table in sym._tables:
        total = sum(abs(c) for c in table.values())
        if not geo.m_circle * total <= np.finfo(float).max:  # NaN fails too
            raise FloatRangeError(
                f"samples up to {total:.6g} in modulus leave the float range in "
                f"an FFT on m_circle={geo.m_circle} nodes: m_circle times the "
                f"absolute coefficient sum exceeds float max"
            )
    return BoundaryData(*(_synthesize(table, geo.m_circle) for table in sym._tables))


def _synthesize(coeffs: dict[int, complex], m: int) -> np.ndarray:
    for n in coeffs:
        if abs(n) >= m // 2:
            raise AliasingError(f"coefficient index {n} out of range for grid size {m}")
    # the spectrum at the FFT bins' degrees; + 0.0 turns a -0.0 part into
    # +0.0, as adding it to a zero spectrum did, and the FFT keeps that sign
    spectrum = _read([coeffs], np.fft.fftfreq(m, 1 / m))[0] + 0.0
    return np.fft.ifft(spectrum) * m


def _read(tables, n) -> np.ndarray:
    """Each table of ``tables`` read at the integer ``n`` (scalar or array),
    zero off the table, stacked along a leading axis: one scatter of every
    table's entries between ``min(n)`` and ``max(n)``, then one gather at
    ``n``, so no Python step runs per index."""
    n = np.asarray(n, dtype=int)
    low, high = (int(n.min()), int(n.max())) if n.size else (0, -1)
    rows = np.repeat(np.arange(len(tables)), [len(t) for t in tables])
    keys = np.array([k for t in tables for k in t], dtype=int)
    vals = np.array([c for t in tables for c in t.values()], dtype=complex)
    out = np.zeros((len(tables), high - low + 1), dtype=complex)
    at = (keys >= low) & (keys <= high)
    out[rows[at], keys[at] - low] = vals[at]
    return out[:, n - low]


def _analyze(values: np.ndarray, n):
    """The one route from grid samples to coefficients: the trapezoid sums
    ``mean(values * exp(-i n t))`` over the last axis, by one FFT, a gather
    at the integer ``n`` (scalar or array, same bits) and the gathered
    values divided by ``m``: the elementwise division of the whole spectrum,
    bit for bit, on only the bins read.
    Raises :class:`AliasingError` when any ``|n| >= m / 2``."""
    values = np.asarray(values)
    m = values.shape[-1]
    n = np.asarray(n)
    if n.size and np.max(np.abs(n)) >= m // 2:
        worst = int(n.flat[np.argmax(np.abs(n))])
        raise AliasingError(f"Fourier index {worst} is aliased on a grid of {m} nodes")
    return np.take(np.fft.fft(values, axis=-1), n % m, axis=-1) / m


def fourier_pair(sym: ExactSymbol, n) -> tuple:
    """The pair of n-th Fourier coefficients (unit circle, inner circle),
    read from the tables at the integer or integer array ``n``."""
    return tuple(_read(sym._tables, n))


def multiply_symbols(a, b):
    """Pointwise product of two symbols of one kind: their tables convolve
    pairwise (:func:`_convolve`).  A polar key adds as a pair, so the bands
    convolve and the radial profiles multiply as polynomials."""
    if type(a) is not type(b):
        raise TypeError(f"cannot multiply a {type(a).__name__} by a {type(b).__name__}")
    return a._of(*map(_convolve, a._tables, b._tables))


def _convolve(a: dict, b: dict) -> dict:
    out: dict = {}
    for n, ca in a.items():
        for k, cb in b.items():
            key = (n[0] + k[0], n[1] + k[1]) if isinstance(n, tuple) else n + k
            out[key] = out.get(key, 0.0) + ca * cb
    return {n: c for n, c in out.items() if c != 0.0}


# ---------------------------------------------------------------------------
# circle symbols (for the disc-space operators)


@dataclass(frozen=True)
class ExactCircle(_Degrees):
    """Function on the unit circle with a finite Fourier table."""

    coeffs: dict[int, complex] = field(default_factory=dict)

    _tables = property(lambda self: (self.coeffs,))

    def hat(self, n):
        return _read(self._tables, n)[0]


def conjugate_symbol(sym):
    """Complex conjugate of a symbol of any kind: each table's keys reflect
    their angular degree (a polar key ``(k, d)`` goes to ``(-k, d)``) and
    its coefficients conjugate."""
    return sym._of(*({sym._reflect(n): np.conj(c) for n, c in t.items()} for t in sym._tables))


def pullback_symbols(sym: ExactSymbol) -> tuple[ExactCircle, ExactCircle]:
    """Transplant both boundary restrictions to the unit circle.

    The unit-circle restriction is kept as is.  The inner-circle
    restriction is composed with ``theta -> R / z`` viewed on angles,
    i.e. the angle is negated: coefficient index ``n`` of the inner table
    lands at index ``-n`` of the transplanted circle function (on grid
    samples this is :func:`_flip`).
    """
    return (
        ExactCircle(dict(sym.coeffs_C)),
        ExactCircle({-n: c for n, c in sym.coeffs_C0.items()}),
    )


def _flip(values: np.ndarray) -> np.ndarray:
    """Grid samples composed with ``t -> -t``: node ``j`` takes the value at
    node ``-j mod m`` of the last axis."""
    return np.concatenate((values[..., :1], values[..., :0:-1]), axis=-1)


# ---------------------------------------------------------------------------
# radial profiles and polar symbols (Bergman side)


@dataclass(frozen=True)
class PolyProfile:
    """Radial profile that is a polynomial ``sum_m c_m r^m`` on [R, 1]."""

    coeffs: dict[int, complex] = field(default_factory=dict)

    def is_zero(self) -> bool:
        return all(c == 0.0 for c in self.coeffs.values())

    def eval(self, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r, dtype=complex)
        for m, c in self.coeffs.items():
            out += c * r ** float(m)
        return out


@dataclass(frozen=True)
class PolarSymbol(_Degrees):
    """Finite sum of angular bands ``f_k(r) exp(i k theta)``; its one table
    holds the coefficient of ``r^d exp(i k theta)`` at ``(k, d)``."""

    bands: dict[int, PolyProfile] = field(default_factory=dict)

    _band = staticmethod(lambda key: key[0])
    _reflect = staticmethod(lambda key: (-key[0], key[1]))
    _tables = property(lambda self: (
        {(k, d): c for k, p in self.bands.items() for d, c in p.coeffs.items()},))
    live_bands = property(lambda self: self._live)

    @classmethod
    def _of(cls, table):
        bands: dict[int, dict] = {}
        for (k, d), c in table.items():
            bands.setdefault(k, {})[d] = c
        return cls({k: PolyProfile(p) for k, p in bands.items()})


# ---------------------------------------------------------------------------
# file formats


def _coeff_rows(coeffs: dict[int, complex]) -> list[list]:
    return [
        [int(n), float(np.real(c)), float(np.imag(c))]
        for n, c in sorted(coeffs.items())
        if c != 0.0
    ]


MAX_INDEX = 2**61 - 1  # the largest index magnitude a symbol file holds; see _keyed


def _keyed(pairs, what: str) -> dict:
    """The ``(index, value)`` pairs as a dict; refuses an index that is not
    an integer (``true`` included), repeats (a dict would fold it) or is past
    ``MAX_INDEX`` in magnitude.  The deepest int64 index step is one
    :func:`_convolve` sum, at most ``2 MAX_INDEX``, less an offset as large
    (the lowest degree :func:`_read` subtracts, or a ``hardy._band_sections``
    offset, at most a product's bandwidth): no index passes ``2^63 - 4``."""
    out: dict = {}
    for n, v in pairs:
        if isinstance(n, bool) or not isinstance(n, int):
            raise ValueError(f"{what} {n!r} is not an integer")
        if abs(n) > MAX_INDEX:
            raise ValueError(f"{what} {n} is past the bound {MAX_INDEX} in magnitude")
        if n in out:
            raise ValueError(f"{what} {n} is repeated")
        out[n] = v
    return out


def _rows_to_coeffs(rows) -> dict[int, complex]:
    out = _keyed(((n, complex(float(re), float(im))) for n, re, im in rows), "index")
    # bounds every grid sample; a NaN or infinite part makes it non-finite too
    if not np.isfinite(sum(abs(c.real) + abs(c.imag) for c in out.values())):
        raise ValueError("the absolute coefficient sum is not finite")
    return out


def symbol_from_json(doc: dict):
    """Parse a symbol document; returns ``(symbol, R)``."""
    if not isinstance(doc, dict):
        raise ValueError("a symbol document must be a JSON object")
    kind = doc.get("repr")
    if kind == "exact":
        return (
            ExactSymbol(
                _rows_to_coeffs(doc.get("coeffs_C", [])),
                _rows_to_coeffs(doc.get("coeffs_C0", [])),
            ),
            float(doc["R"]),
        )
    if kind == "polar":
        bands = _keyed(
            ((k, PolyProfile(_rows_to_coeffs(rows))) for k, rows in doc.get("bands", [])),
            "band key",
        )
        return PolarSymbol(bands), float(doc["R"])
    raise ValueError(f"unknown symbol repr {kind!r}")


def write_symbol(path, sym, R: float) -> None:
    if isinstance(sym, ExactSymbol):
        doc = {"repr": "exact", "R": float(R), "coeffs_C": _coeff_rows(sym.coeffs_C),
               "coeffs_C0": _coeff_rows(sym.coeffs_C0)}
    elif isinstance(sym, PolarSymbol):
        bands = [[int(k), _coeff_rows(sym.bands[k].coeffs)] for k in sorted(sym.bands)]
        doc = {"repr": "polar", "R": float(R), "bands": bands}
    else:
        raise ValueError("only exact boundary or polar symbols can be written")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def read_symbol(path):
    with open(path, "r", encoding="utf-8") as fh:
        return symbol_from_json(json.load(fh))
