"""Annulus geometry, boundary quadrature grids, and the two boundary bases.

The domain is the annulus ``R < |z| < 1``.  Its boundary has two circles:
the unit circle (component ``"C"``) and the inner circle of radius ``R``
(component ``"C0"``).  Boundary functions are stored as samples on uniform
angular grids, one array per component, and all inner products use the
normalized arc-length measure that gives each circle mass one (total mass
two).  Points on the boundary are always addressed as (component, angle);
no complex arithmetic crosses from one component to the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import AliasingError

COMPONENTS = ("C", "C0")


def _is_power_of_two(m: int) -> bool:
    return m >= 1 and (m & (m - 1)) == 0


@dataclass(frozen=True)
class AnnulusGeometry:
    """Quadrature configuration for one annulus.

    Parameters
    ----------
    R : float
        Inner radius, ``0 < R < 1``.
    m_circle : int
        Number of uniform angular nodes per boundary circle.  Must be a
        power of two, at least 8, so the trapezoid rule integrates
        ``exp(i k t)`` exactly for ``|k| < m_circle``.
    m_radial : int
        Number of Gauss-Legendre nodes on ``[R, 1]`` for area integrals.
    """

    R: float = 0.5
    m_circle: int = 4096
    m_radial: int = 128

    def __post_init__(self):
        if not 0.0 < self.R < 1.0:
            raise ValueError(f"inner radius must satisfy 0 < R < 1, got {self.R}")
        if self.m_circle < 8 or not _is_power_of_two(self.m_circle):
            raise ValueError(
                f"m_circle must be a power of two >= 8, got {self.m_circle}"
            )
        if self.m_radial < 1:
            raise ValueError(f"m_radial must be positive, got {self.m_radial}")

    def angles(self) -> np.ndarray:
        """Uniform angular grid ``t_j = 2 pi j / m_circle``."""
        return 2.0 * np.pi * np.arange(self.m_circle) / self.m_circle

    def radial_nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """Gauss-Legendre nodes and weights mapped from [-1, 1] to [R, 1]."""
        x, w = np.polynomial.legendre.leggauss(self.m_radial)
        half = 0.5 * (1.0 - self.R)
        mid = 0.5 * (1.0 + self.R)
        return mid + half * x, half * w


class BoundaryData(NamedTuple):
    """Samples of one boundary function on the two angular grids."""

    on_C: np.ndarray
    on_C0: np.ndarray


def basis_weights(n, R: float) -> tuple[np.ndarray, np.ndarray]:
    """Weights ``B = 1/sqrt(1 + R^(2n))`` and ``A = R^n B`` at the integer
    ``n`` (scalar or array): the n-th power basis function is ``B exp(i n t)``
    on the unit circle and ``A exp(i n t)`` on the inner one.

    Only ``R^|n|`` is raised, so both weights lie in [0, 1] at every index
    (``R^(2n)`` leaves the float range at R = 0.1, n = -155).  No other
    module computes this normalization; the basis definition it encodes is
    certified separately by the orthonormality check (``gram``, criterion 01).
    """
    n = np.asarray(n)
    # an array power even for one index: numpy's scalar power can round
    # differently, and a row must not depend on how it was asked for
    p = (R ** np.abs(np.atleast_1d(n)).astype(float)).reshape(n.shape)
    s = np.sqrt(1.0 + p * p)
    return np.where(n < 0, p, 1.0) / s, np.where(n < 0, 1.0, p) / s


def _on_circle(n, component: str, angles, on_C, on_C0) -> np.ndarray:
    """``exp(i n t)`` times the weight of ``component``; an array ``n``
    gives one row per degree."""
    if component not in COMPONENTS:
        raise ValueError(f"unknown boundary component {component!r}")
    n, t = np.asarray(n), np.asarray(angles, dtype=float)
    w = np.reshape(on_C if component == "C" else on_C0, n.shape + (1,) * t.ndim)
    return np.exp(1j * np.multiply.outer(n, t)) * w


def hardy_basis_eval(n, component: str, angles: np.ndarray, R: float) -> np.ndarray:
    """Evaluate the n-th normalized power basis function on one boundary circle.

    The function is ``z^n / sqrt(1 + R^(2n))``; on the inner circle the
    monomial contributes an extra factor ``R^n``.

    Parameters
    ----------
    n : int or ndarray of int
        Fourier degree (any integer); an array gives one row per degree.
    component : str
        ``"C"`` for the unit circle or ``"C0"`` for the inner circle.
    angles : ndarray
        Angles at which to evaluate.
    R : float
        Inner radius.
    """
    B, A = basis_weights(n, R)
    return _on_circle(n, component, angles, B, A)


def complement_basis_eval(n, component: str, angles: np.ndarray, R: float) -> np.ndarray:
    """Evaluate the n-th basis function of the orthogonal complement.

    On the unit circle this is ``R^n z^n / sqrt(1 + R^(2n))``; on the inner
    circle it is ``-z^n / (R^n sqrt(1 + R^(2n)))``, where ``z^n`` carries
    the factor ``R^n`` from ``z = R exp(it)``, leaving a bare phase: the
    weights are ``A`` and ``-B``.  Together with the functions from
    :func:`hardy_basis_eval` these form an orthonormal basis of boundary L2.
    """
    B, A = basis_weights(n, R)
    return _on_circle(n, component, angles, A, -B)


#: angles per block of the Gram oracle, which bounds its sample buffers
_GRAM_BLOCK = 1024


def gram_matrix(geo: AnnulusGeometry, half_window: int) -> np.ndarray:
    """Quadrature Gram matrix of the combined basis over ``|n| <= half_window``.

    Rows/columns are ordered as the hardy family for n = -W..W followed by
    the complement family for n = -W..W.  For an orthonormal system the
    result is the identity up to quadrature rounding; callers assert the
    deviation.  Requires ``half_window <= m_circle / 4`` so no products
    alias on the grid.

    The trapezoid sums run over blocks of ``_GRAM_BLOCK`` angles per circle,
    as real symmetric rank-k products: with ``F`` a block of samples,
    ``Re(F F^H)`` is ``V V^T`` for ``V`` the interleaved real and imaginary
    parts, and ``Im(F F^H)`` is ``K - K^T`` with ``K = Im(F) Re(F)^T``.
    The result is exactly Hermitian.
    """
    W = int(half_window)
    if W > geo.m_circle // 4:
        raise AliasingError(
            f"half_window {W} too large for m_circle={geo.m_circle}; need <= m_circle/4"
        )
    t = geo.angles()
    ns = np.arange(-W, W + 1)
    re = np.zeros((2 * len(ns), 2 * len(ns)))
    im = np.zeros_like(re)
    for comp in COMPONENTS:
        for start in range(0, len(t), _GRAM_BLOCK):
            tb = t[start : start + _GRAM_BLOCK]
            F = np.concatenate(
                (
                    hardy_basis_eval(ns, comp, tb, geo.R),
                    complement_basis_eval(ns, comp, tb, geo.R),
                )
            )
            V = F.view(np.float64)
            re += V @ V.T
            K = np.ascontiguousarray(F.imag) @ np.ascontiguousarray(F.real).T
            im += K - K.T
    return (re + 1j * im) / geo.m_circle


def bergman_norm_const(n: int, R: float) -> float:
    """Normalizer making ``const * z^n`` a unit vector in the Bergman space.

    The area measure is normalized so the squared monomial norm is the
    radial moment ``integral_R^1 r^(2n+1) dr``; the closed form for its
    inverse square root is ``sqrt(2(n+1) / (1 - R^(2(n+1))))`` with the
    logarithmic limit at ``n = -1``.
    """
    if n == -1:
        return float(1.0 / np.sqrt(np.log(1.0 / R)))
    k = 2 * (n + 1)
    return float(np.sqrt(k / (1.0 - R**k)))

