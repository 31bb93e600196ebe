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

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import AliasingError

COMPONENTS = ("C", "C0")
#: Gauss-Legendre node count, in log r, of every radial integral (see ``radial_nodes``)
RADIAL_NODES = 128


@functools.cache
def _legendre() -> tuple[np.ndarray, np.ndarray]:
    """``leggauss(RADIAL_NODES)`` on ``[-1, 1]``, built on first use (not at
    import) and shared, read-only, by every later call."""
    x, w = np.polynomial.legendre.leggauss(RADIAL_NODES)
    x.flags.writeable = w.flags.writeable = False
    return x, w


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
    """

    R: float = 0.5
    m_circle: int = 4096

    def __post_init__(self):
        if not 0.0 < self.R < 1.0:
            raise ValueError(f"inner radius must satisfy 0 < R < 1, got {self.R}")
        if self.m_circle < 8 or self.m_circle & (self.m_circle - 1):
            raise ValueError(
                f"m_circle must be a power of two >= 8, got {self.m_circle}"
            )

    def phases(self, n) -> np.ndarray:
        """Grid samples ``exp(i n t_j)``, ``t_j = 2 pi j / m``, ``m = m_circle``,
        one fresh row per integer degree of ``n`` (scalar or array): each is
        ``w^((n mod m) j mod m)``, ``w = exp(2 pi i / m)``, one gather from
        the table of the ``m`` roots of unity at an exact integer index, so no
        rounded angle ``n t_j`` is formed (as ``m`` is a power of two, ``& (m
        - 1)`` is exact even on a product that wrapped modulo ``2^64``).  The
        table is built per call: the first quarter from ``m / 4`` exps (within
        2 eps of the exact roots), the second its exact rotation by ``i``, the
        lower half the conjugate mirror.  So the axis points are exactly ``1,
        i, -1, -i``, and the row of ``-n`` is the conjugate of the row of
        ``n``, bit for bit but for the sign of a zero imaginary part."""
        m, q = self.m_circle, self.m_circle // 4
        roots = np.empty(m, dtype=complex)
        roots[:q] = np.exp(2j * np.pi / m * np.arange(q))
        roots[q : 2 * q] = 1j * roots[:q]  # exact: 0 a - b + (0 b + a) i
        roots[2 * q] = -1.0
        roots[2 * q + 1 :] = roots[2 * q - 1 : 0 : -1].conj()
        k = np.multiply.outer(np.asarray(n, dtype=np.int64) % m, np.arange(m))
        return roots[np.bitwise_and(k, m - 1, out=k)]

    def radial_nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """Nodes ``r`` on ``[R, 1]`` and weights for ``integral dr``: the
        ``RADIAL_NODES`` Gauss-Legendre nodes ``x`` placed in ``s = log r``
        on ``[log R, 0]``, ``r = e^s`` and weights ``(L / 2) w r`` (``dr = r
        ds``), ``L = log(1/R)``.  The nodes ``x`` and weights ``w`` on ``[-1,
        1]`` are built once per process; ``r`` and the weights are formed
        fresh on every call, so a caller may write to them.

        On ``s`` a moment ``integral r^(lambda - 1) dr`` is ``integral
        e^(lambda s) ds``, which maps onto ``[-1, 1]`` as ``e^(Lambda x / 2)``
        up to a constant factor, with ``Lambda = |lambda| L``.  Gauss
        quadrature on ``n`` nodes of an ``f`` analytic in the Bernstein
        ellipse ``E_rho`` errs by at most ``(64/15) M rho^(-2n) / (rho^2 -
        1)``, ``M`` the largest ``|f|`` on it (Trefethen, *Approximation
        Theory and Approximation Practice*, Thm 19.3).  Here ``M = e^(Lambda
        (rho + 1/rho) / 4)``, against an integral of ``e^(Lambda / 2) 2 (1 -
        e^(-Lambda)) / Lambda`` for real ``lambda``.  At ``n = 128`` the
        relative bound, minimized over ``rho``, is 1.4e-36 at ``Lambda =
        log(float max) = 709.8``, the largest ``Lambda`` that
        ``mellin.check_moment_range`` admits, whatever ``R``; it is 2.2e-17
        at 1400, 4.2e-17 at twice 709.8 and 2.8e-12 at 1851.  So every
        moment a run may read is resolved to rounding by this one count.
        """
        x, w = _legendre()
        half = -0.5 * np.log(self.R)
        r = np.exp(half * (x - 1.0))
        return r, half * w * r


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


def _on_circle(n, component: str, geo: AnnulusGeometry, on_C, on_C0, rows=None) -> np.ndarray:
    """The grid samples :meth:`AnnulusGeometry.phases` of ``n`` times the
    weight of ``component``; an array ``n`` gives one row per degree.  The
    caller's ``rows``, if given, stand for ``geo.phases(n)`` and are
    weighted out of place; the sampler's own rows are weighted in place."""
    if component not in COMPONENTS:
        raise ValueError(f"unknown boundary component {component!r}")
    e = geo.phases(n) if rows is None else rows
    w = on_C if component == "C" else on_C0
    return np.multiply(e, np.reshape(w, np.shape(n) + (1,)), out=e if rows is None else None)


def hardy_basis_eval(n, component: str, geo: AnnulusGeometry, rows=None) -> np.ndarray:
    """Evaluate the n-th normalized power basis function on one boundary circle.

    The function is ``z^n / sqrt(1 + R^(2n))``; on the inner circle the
    monomial contributes an extra factor ``R^n``.

    Parameters
    ----------
    n : int or ndarray of int
        Fourier degree (any integer); an array gives one row per degree.
    component : str
        ``"C"`` for the unit circle or ``"C0"`` for the inner circle.
    geo : AnnulusGeometry
        Inner radius ``geo.R`` and the grid of ``geo.m_circle`` nodes.
    rows : ndarray, optional
        The caller's ``geo.phases(n)``, read and never written, so that one
        gather serves several calls at the same degrees; without it the
        call gathers its own.  Either way the samples have the same bits.
    """
    B, A = basis_weights(n, geo.R)
    return _on_circle(n, component, geo, B, A, rows)


def complement_basis_eval(n, component: str, geo: AnnulusGeometry, rows=None) -> np.ndarray:
    """Evaluate the n-th basis function of the orthogonal complement.

    On the unit circle this is ``R^n z^n / sqrt(1 + R^(2n))``; on the inner
    circle it is ``-z^n / (R^n sqrt(1 + R^(2n)))``, where ``z^n`` carries
    the factor ``R^n`` from ``z = R exp(it)``, leaving a bare phase: the
    weights are ``A`` and ``-B``.  Together with the functions from
    :func:`hardy_basis_eval` these form an orthonormal basis of boundary L2.
    The optional ``rows`` are the caller's ``geo.phases(n)``, read and never
    written, as for :func:`hardy_basis_eval`.
    """
    B, A = basis_weights(n, geo.R)
    return _on_circle(n, component, geo, A, -B, rows)


#: degrees per row block of the pairing kernel: it sizes the sample buffers,
#: the owner chunks and the gather chunks.  In the Gram's C pass a block's
#: shared rows, its samples and their C0 mate take 48 m bytes per degree: at
#: m = 2048, 6 MiB for 64 degrees, 24 MiB for 257.  Traced peaks, MiB, at
#: 257 / 128 / 64 / 32 degrees: the Gram at +-256 on 2048 nodes 56.7 / 44.3
#: / 40.6 / 40.6 (from 96 down the owner test, spectra beside the kept bins,
#: sets it), the section pair at +-64 on 4096 nodes 37.3 / 37.2 / 31.2 /
#: 28.2.  64 takes the Gram's floor and most of the pair's fall in few
#: blocks.  Each row's FFT and owners are its own, so no pairing changes
#: with the block size.
_GRAM_BLOCK = 64


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
    circle.  A block is ``_GRAM_BLOCK`` consecutive degrees of ``ns`` (the
    last one shorter), which bounds the sample buffers, and its spectra are
    the output rows of its degrees.  Samples are gathered from the grid's
    roots of unity, ``m / 4`` exps per gather
    (:meth:`AnnulusGeometry.phases`).  The Gram's C pass gathers each
    block's rows once and hands them to its four calls (both families on C
    and their C0 mates), which weight them out of place; every other call
    gathers its own.  The hardy block is multiplied by ``w`` in place once
    its own spectrum is taken.

    Mirror (the Gram only): on C0 the hardy samples are ``A e_n``, the
    complement's on C, and the complement samples are ``-B e_n``, the
    hardy's on C negated.  So in C's pass each block, after each family's
    call on C, calls the other family on C0 (complement after hardy, hardy
    after complement) and compares the samples with ``np.array_equal``
    against the negated, or own, C samples.  When every block matches, C0's
    ``(E, own)`` is C's with the hardy and complement halves of the rows
    swapped and the new complement half negated, and C0 is neither
    transformed nor scanned for owners.  Each step is exact: the FFT with
    ``norm="forward"`` (a power-of-two scale) commutes with negation, as
    rounding to nearest does; ``E = C - S / 2`` negates exactly; the owner
    test reads ``|c|``, so the owners and the kept bins are C's.  Only a
    zero may differ in sign from C0's own pass; a zero is no owner, and a
    sum that starts at +0 takes the same bits whatever the sign of its zero
    terms, so the Gram keeps the per-circle path's bits.  The Gram at
    +-256 on 2048 nodes then takes 18 FFTs (two per block of 64 degrees)
    and 1 owner pass, not 36 and 2.
    If any block fails to match (a defect on one circle, a NaN sample), C0
    takes its own pass as C does.  The weighted pairings take both passes.

    Parseval: the FFT of a row divided by ``m = m_circle`` gives
    coefficients with ``mean(a conj(b)) = sum_q A[q] conj(B[q])`` over the
    ``m`` bins ``q``, exactly, on any samples.  A product is dropped only
    when both coefficients have ``|c| <= tau = sqrt(eps / m)``, ``eps`` the
    machine epsilon, so an entry moves by at most ``m tau^2 = eps`` per
    circle; a rule on one side alone would bound the move only by
    ``sqrt(eps) ||w h_k||``.  The test is ``not |c| <= tau``: a NaN counts
    as large, and reaches its row and column even in a bin nothing else
    holds.  With ``S`` the large coefficients (the owners), per circle the
    Gram sums ``S C^H + C S^H - S S^H`` over all coefficients ``C``, and the
    pairings of rows ``R`` with weighted columns ``W`` sum ``conj(S_R) W^T +
    conj(R) S_W^T - conj(S_R) S_W^T``: both are ``Z_AB + Z_BA^H`` for
    ``Z_AB = conj(S_A) (B - S_B / 2)^T``, which :func:`_gather` takes owner
    by owner.  The Gram ``G = conj(Z_CC) + Z_CC^T`` equals ``G^H`` exactly.

    Cost: owners times rows.  A healthy basis has at most one owner per row
    and circle (576 per circle for the Gram at +-256 on 2048 nodes); when
    every coefficient is large (a broken basis) that Gram gathers
    ``(2N)^2 m`` entries without BLAS, about 15 s against 0.8 s for a dense
    product.  Only bins holding an owner are kept, the spectra are freed
    before the gather, and owners are gathered ``_GRAM_BLOCK`` rows at a
    time: that Gram peaks at 40.7 MiB traced, in the owner test, where C's
    spectra are held beside their kept bins (a block's C0 samples, held
    beside its C samples and shared rows for the mirror's comparison, peak
    at 56.7 MiB with 257 degrees per block).  The owner masks are boolean,
    one byte per kept coefficient beside its sixteen.  The weighted
    pairings free the kept bins before ``Q``'s conjugate is added into
    ``P`` in place: the section pair at +-500 on 1024 nodes peaks at 163.2
    MiB traced.
    """
    m, N = geo.m_circle, len(ns)
    if np.ptp(ns) + reach >= m:
        raise AliasingError(
            f"degrees {ns.min()}..{ns.max()} with band reach {reach} are not "
            f"resolved by m_circle={m}"
        )
    # hardy, complement and weighted hardy spectra, one row per degree of ns
    c = np.empty((2 if weight is None else 3, N, m), dtype=complex)
    edges = [*range(0, N, _GRAM_BLOCK), N]
    evals = (hardy_basis_eval, complement_basis_eval)
    kept = []
    # unweighted: whether every C0 sample so far is C's, families swapped,
    # the new complement negated
    mirror = weight is None
    for comp, w in zip(COMPONENTS, weight or (None, None)):
        if comp == "C0" and mirror:
            break
        for lo, hi in zip(edges, edges[1:]):
            block = ns[lo:hi]
            # the Gram's C pass gathers the block's rows once for its four
            # calls, and frees them with the block
            rows = geo.phases(block) if weight is None and comp == "C" else None
            for i, ev in enumerate(evals):
                f = ev(block, comp, geo, rows)
                np.fft.fft(f, norm="forward", out=c[i, lo:hi])
                if i == 0 and w is not None:
                    np.fft.fft(np.multiply(f, w, out=f), norm="forward", out=c[2, lo:hi])
                if mirror:  # in C's pass
                    mate = evals[1 - i](block, "C0", geo, rows)
                    if i == 0:
                        np.negative(mate, out=mate)
                    mirror = np.array_equal(mate, f)
                    del mate
                del f
            del rows
        kept.append(_owners(c.reshape(-1, m)))
    del c
    if mirror:
        # C0's rows are C's with the halves swapped, the new complement negated
        E, own = (np.roll(a, N, axis=0) for a in kept[0])
        np.negative(E[N:], out=E[N:])
        kept.append((E, own))
    if weight is not None:
        # the hardy and complement rows against the weighted hardy columns
        P, Q = np.zeros((2 * N, N), dtype=complex), np.zeros((N, 2 * N), dtype=complex)
        for E, own in kept:
            _gather(P, E[: 2 * N], own[: 2 * N], E[2 * N :])
            _gather(Q, E[2 * N :], own[2 * N :], E[: 2 * N])
        del kept, E, own
        P += np.conjugate(Q, out=Q).T
        return P
    Z = np.zeros((2 * N, 2 * N), dtype=complex)
    for E, own in kept:
        _gather(Z, E, own, E)
    del kept, E, own
    # G[k, j] has the real part of G[j, k], summed in the other order, and
    # its imaginary part negated, so G equals G^H exactly
    G = Z.conj()
    G += Z.T
    return G


def _owners(flat: np.ndarray):
    """One circle's ``(E, own)`` over the bins holding an owner, for the
    spectrum rows ``flat``: ``E = C - S / 2`` and the boolean owner mask."""
    m = flat.shape[1]
    tau = np.sqrt(np.finfo(float).eps / m)
    faint = np.concatenate([
        np.abs(flat[lo : lo + _GRAM_BLOCK]) <= tau for lo in range(0, len(flat), _GRAM_BLOCK)
    ])
    bins = np.flatnonzero(~faint.all(axis=0))
    own = ~faint[:, bins]
    del faint
    E = flat[:, bins]
    np.multiply(E, 0.5, out=E, where=own)
    return E, own


def _gather(Z: np.ndarray, A: np.ndarray, own: np.ndarray, E: np.ndarray):
    """``Z[j] += conj(S[j]) E^T`` for the owners ``S = 2 A[own]`` of each row
    ``j`` of ``A``, ``_GRAM_BLOCK`` rows at a time and by slot: slot ``s``
    holds each row's ``s``-th owner, so no row repeats within a slot."""
    for lo in range(0, len(A), _GRAM_BLOCK):
        j, q = np.nonzero(own[lo : lo + _GRAM_BLOCK])
        j += lo
        v = 2 * A[j, q].conj()
        first = np.flatnonzero(np.diff(j, prepend=-1))
        count = np.diff(first, append=len(j))
        for s in range(count.max(initial=0)):
            i = first[count > s] + s
            # out of place: numpy's in-place complex product of one element
            # can round unlike the same product in a longer loop, which made
            # a one-degree section depend on the block size
            p = E[:, q[i]].T * v[i, None]
            Z[j[i]] += p
            del p  # so the next slot's product is not made beside it


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
