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
    ``np.float_power`` gives the bits of Python's scalar ``**``.
    """
    n = np.asarray(n)
    p = np.float_power(R, np.abs(n))
    s = np.sqrt(1.0 + p * p)
    return np.where(n < 0, p, 1.0) / s, np.where(n < 0, 1.0, p) / s


#: the last phase table and its key: dtype, shape and bytes of ``a`` and
#: ``t``, not their values (``0.0 == -0.0``, but ``sin(-0.0)`` is ``-0.0``)
_PHASE_SLOT: list = [None, None]


def _phases(a: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Read-only ``exp(i a t)`` over ``np.multiply.outer(a, t)``, built once per key."""
    key = tuple((x.dtype.str, x.shape, x.tobytes()) for x in (a, t))
    if _PHASE_SLOT[0] != key:
        _PHASE_SLOT[:] = key, np.exp(1j * np.multiply.outer(a, t))
        _PHASE_SLOT[1].flags.writeable = False
    return _PHASE_SLOT[1]


def _on_circle(n, component: str, angles, on_C, on_C0) -> np.ndarray:
    """``exp(i n t)`` times the weight of ``component``; an array ``n``
    gives one row per degree.  ``exp(i |n| t)`` is taken once per ``|n|`` and
    conjugated for ``n < 0``: ``(-n) t = -(n t)`` exactly, so the bits agree.
    Calls for the same ``|n|`` and angles share one :func:`_phases` table."""
    if component not in COMPONENTS:
        raise ValueError(f"unknown boundary component {component!r}")
    n, t = np.asarray(n), np.asarray(angles, dtype=float)
    w = np.reshape(on_C if component == "C" else on_C0, n.shape + (1,) * t.ndim)
    a, inv = np.unique(np.abs(n), return_inverse=True)
    e = _phases(a, t)[inv.reshape(-1)].reshape(n.shape + t.shape)
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


#: degrees per row block of the pairing kernel, bounding its sample buffers;
#: even, so a block holds both signs of |n|
_GRAM_BLOCK = 256


def _pair_on_grid(
    geo: AnnulusGeometry, ns: np.ndarray, weight: BoundaryData | None = None,
    reach: int = 0,
):
    """Trapezoid pairings of the two basis families over the degrees ``ns``.

    Every sum is the mean over one circle's grid, added over both circles.
    With ``f`` running over the hardy family at ``ns`` followed by the
    complement family at ``ns``, and ``N = len(ns)``:

    - no ``weight``: the ``2N x 2N`` Gram ``G[j, k] = sum mean(f_j conj(f_k))``;
    - a sampled ``weight`` ``w``: the ``2N x N`` pairings
      ``P[j, k] = sum mean(w h_k conj(f_j))`` of the weighted hardy columns
      ``w h_k`` against both row families.

    Aliasing: an entry is the mean of products of frequency ``k + q - j``,
    with ``|k - j| <= max(ns) - min(ns)`` and ``|q| <= reach``, the band
    reach of ``w`` (0 without one).  The trapezoid rule on ``m_circle``
    nodes is exact for ``|n| < m_circle``, so a span plus reach that
    reaches ``m_circle`` is refused with :class:`AliasingError`.

    Samples are read only through the module-level ``hardy_basis_eval`` and
    ``complement_basis_eval``, once per family, block of degrees and
    circle.  In the order 0, -1, 1, -2, 2, ... the first block holds
    ``_GRAM_BLOCK + 1`` degrees and each later one at most ``_GRAM_BLOCK``,
    which bounds the sample buffers.  No block splits a pair ``n, -n``:
    every block's ``|n|`` set is closed under sign, so both families on
    both circles of a block share one phase table.  The hardy block is
    multiplied by ``w`` in place once its own spectrum is taken.

    Parseval: the FFT of a row divided by ``m = m_circle`` gives
    coefficients with ``mean(a conj(b)) = sum_q A[q] conj(B[q])`` over the
    ``m`` bins ``q``, exactly, on any samples.  A bin is dropped only when every
    coefficient in it, of every row and of every weighted column, has
    ``|c| <= tau = sqrt(eps / m)``, ``eps`` the machine epsilon (a NaN keeps
    its bin).  A dropped set ``D`` then moves an entry by at most
    ``sum_D |A[q]| |B[q]| <= |D| tau^2 <= eps`` per circle.  Both sides must
    be small: a rule on the rows alone leaves ``|A[q]|`` free, and
    Cauchy-Schwarz then bounds the move only by ``sqrt(eps) ||w h_k||``.
    The kept bins of both circles meet in one product.  For the Gram it is
    real: with ``V = [Re(C), Im(C)]``, ``Re(C C^H) = V V^T`` and
    ``Im(C C^H) = K - K^T`` for ``K = Im(C) Re(C)^T``, so ``G`` is exactly
    Hermitian.
    """
    t, m, N = geo.angles(), geo.m_circle, len(ns)
    if np.ptp(ns) + reach >= m:
        raise AliasingError(
            f"degrees {ns.min()}..{ns.max()} with band reach {reach} are not "
            f"resolved by m_circle={m}"
        )
    order = np.argsort(abs(ns), kind="stable")
    # hardy, complement and weighted hardy spectra, each in evaluation order
    c = np.empty((2 if weight is None else 3, N, m), dtype=complex)
    rows = np.argsort((order + N * np.arange(len(c))[:, None]).ravel())
    edges = [0, *range(_GRAM_BLOCK + 1, N, _GRAM_BLOCK), N]
    tau = np.sqrt(np.finfo(float).eps / m)
    kept = []
    for comp, w in zip(COMPONENTS, weight or (None, None)):
        for lo, hi in zip(edges, edges[1:]):
            for i, ev in enumerate((hardy_basis_eval, complement_basis_eval)):
                f = ev(ns[order[lo:hi]], comp, t, geo.R)
                np.fft.fft(f, norm="forward", out=c[i, lo:hi])
                if i == 0 and w is not None:
                    np.fft.fft(np.multiply(f, w, out=f), norm="forward", out=c[2, lo:hi])
                del f
        flat = c.reshape(-1, m)
        drop = np.ones(m, dtype=bool)
        for lo in range(0, len(flat), _GRAM_BLOCK):
            drop &= np.all(np.abs(flat[lo : lo + _GRAM_BLOCK]) <= tau, axis=0)
        kept.append(flat[np.ix_(rows, np.flatnonzero(~drop))])
    del c, flat
    if weight is not None:
        C = np.concatenate(kept, axis=1)
        return C[: 2 * N].conj() @ C[2 * N :].T
    V = np.concatenate([k.real for k in kept] + [k.imag for k in kept], axis=1)
    del kept
    K = V[:, V.shape[1] // 2 :] @ V[:, : V.shape[1] // 2].T
    G = (V @ V.T).astype(complex)
    np.subtract(K, K.T, out=G.imag)
    return G


def gram_matrix(geo: AnnulusGeometry, half_window: int) -> np.ndarray:
    """Quadrature Gram matrix of the combined basis over ``|n| <= half_window``.

    Rows/columns are ordered as the hardy family for n = -W..W followed by
    the complement family for n = -W..W.  For an orthonormal system the
    result is the identity up to quadrature rounding; callers assert the
    deviation.  The sums are the unweighted call of the pairing kernel
    :func:`_pair_on_grid`, so the result is exactly Hermitian, and its
    aliasing rule refuses ``2 half_window >= m_circle``.
    """
    W = int(half_window)
    return _pair_on_grid(geo, np.arange(-W, W + 1))


def bergman_norm_const(n, R: float):
    """Normalizer making ``const * z^n`` a unit vector in the Bergman space,
    at the integer ``n`` (scalar or array).

    The area measure is normalized so the squared monomial norm is the
    radial moment ``integral_R^1 r^(2n+1) dr``; the closed form for its
    inverse square root is ``sqrt(2(n+1) / (1 - R^(2(n+1))))`` with the
    logarithmic limit at ``n = -1`` (``k = 0``, where the quotient is 0/0).
    ``np.float_power`` gives the bits of Python's scalar ``**``.
    """
    k = 2.0 * (n + 1)
    q = k / np.where(k == 0, 1.0, 1.0 - np.float_power(R, k))
    return np.where(k == 0, 1.0 / np.sqrt(np.log(1.0 / R)), np.sqrt(q))[()]
