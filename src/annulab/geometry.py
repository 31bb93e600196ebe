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
    gives one row per degree.  ``exp(i |n| t)`` is taken once per ``|n|`` and
    conjugated for ``n < 0``: ``(-n) t = -(n t)`` exactly, so the bits agree."""
    if component not in COMPONENTS:
        raise ValueError(f"unknown boundary component {component!r}")
    n, t = np.asarray(n), np.asarray(angles, dtype=float)
    w = np.reshape(on_C if component == "C" else on_C0, n.shape + (1,) * t.ndim)
    a, inv = np.unique(np.abs(n), return_inverse=True)
    e = np.exp(1j * np.multiply.outer(a, t))[inv.reshape(-1)].reshape(n.shape + t.shape)
    np.negative(e.imag, out=e.imag, where=n.reshape(w.shape) < 0)
    return np.multiply(e, w, out=e)[()]


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


#: degrees per Gram evaluation block, bounding its buffers; even, to hold both signs of |n|
_GRAM_BLOCK = 256


def gram_matrix(geo: AnnulusGeometry, half_window: int) -> np.ndarray:
    """Quadrature Gram matrix of the combined basis over ``|n| <= half_window``.

    Rows/columns are ordered as the hardy family for n = -W..W followed by
    the complement family for n = -W..W.  For an orthonormal system the
    result is the identity up to quadrature rounding; callers assert the
    deviation.  Requires ``half_window <= m_circle / 4`` so no products
    alias on the grid.

    The trapezoid sums are taken by Parseval: per circle, one FFT divided
    by ``m = m_circle`` turns each function's samples into coefficients with
    ``mean(f_j conj(f_k)) = sum_b c_j[b] conj(c_k[b])`` over the ``m`` bins.
    A bin is dropped only when all its coefficients have ``|c| <= tau =
    sqrt(eps / m)``, ``eps`` the machine epsilon (a NaN keeps its bin).  By
    Cauchy-Schwarz a dropped set ``D`` moves an entry by at most
    ``(sum_D |c_j|^2 sum_D |c_k|^2)^(1/2) <= |D| tau^2 <= eps`` per circle.
    The kept bins of both circles meet in one real product: for
    ``V = [Re(C), Im(C)]``, ``Re(C C^H) = V V^T`` and ``Im(C C^H) = K - K^T``
    with ``K = Im(C) Re(C)^T``, so the result is exactly Hermitian.
    """
    W = int(half_window)
    if W > geo.m_circle // 4:
        raise AliasingError(
            f"half_window {W} too large for m_circle={geo.m_circle}; need <= m_circle/4"
        )
    t, m, ns = geo.angles(), geo.m_circle, np.arange(-W, W + 1)
    N, order = len(ns), np.argsort(abs(ns), kind="stable")  # 0, -1, 1, -2, 2, ...
    rows = np.argsort(np.concatenate((order, N + order)))  # where row r is evaluated
    edges = [0, *range(_GRAM_BLOCK + 1, N, _GRAM_BLOCK), N]
    c = np.empty((2 * N, m), dtype=complex)
    kept = []
    for comp in COMPONENTS:
        drop = np.ones(m, dtype=bool)
        for lo, hi in zip(edges, edges[1:]):
            for at, ev in ((0, hardy_basis_eval), (N, complement_basis_eval)):
                block = c[at + lo : at + hi]
                np.fft.fft(ev(ns[order[lo:hi]], comp, t, geo.R), norm="forward", out=block)
                drop &= np.all(np.abs(block) <= np.sqrt(np.finfo(float).eps / m), axis=0)
        kept.append(c[np.ix_(rows, np.flatnonzero(~drop))])
    del c, block
    V = np.concatenate([k.real for k in kept] + [k.imag for k in kept], axis=1)
    del kept
    K = V[:, V.shape[1] // 2 :] @ V[:, : V.shape[1] // 2].T
    G = (V @ V.T).astype(complex)
    np.subtract(K, K.T, out=G.imag)
    return G


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

