"""Planted defects that the shipped configs catch (ROADMAP item 4's table).

Each row plants one mutation in the program by rebinding a module
attribute, runs one shipped config through ``lab`` and expects exit 1: a
check row FAILs.  The unmutated run of every config the table names exits
0, so each FAIL is its mutation's.  A defect that no shipped config
catches has no row here; it stays a FOUND until a check catches it.
"""

from pathlib import Path

import numpy as np
import pytest

from annulab import geometry, hardy, mellin, reduction, symbols
from annulab.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _one_offset_off(phi, size):
    """The disc Hankel section read at ``phihat(-j - k)``, not at
    ``phihat(-(j+1) - k)``."""
    hats = phi.hat(np.arange(0, -2 * size + 1, -1))
    return np.lib.stride_tricks.sliding_window_view(hats, size).copy()


def _c0_one_degree_on(evaluate):
    """A basis family's inner-circle samples one degree further round: the
    angle shift ``t -> t + pi / 180`` as its phase factor ``exp(i n pi /
    180)``."""
    def shifted(n, component, geo):
        vals = evaluate(n, component, geo)
        if component == "C0":
            vals *= np.exp(1j * np.pi / 180 * np.asarray(n))[..., None]
        return vals
    return shifted


def _lower_half_one_index_off(phases):
    """A sampler that reads its roots table one index off on the lower
    half-circle, as a conjugate mirror built one place off would: index
    ``k + 1`` for every ``k`` past ``m / 2``."""
    def sample(geo, n):
        m = geo.m_circle
        k = np.multiply.outer(np.asarray(n) % m, np.arange(m)) % m
        return np.where(k > m // 2, phases(geo, 1)[(k + 1) % m], phases(geo, n))
    return sample


def _without_jacobian(nodes):
    """Radial weights for ``integral ds``, not ``integral dr``: the factor
    ``r`` of ``dr = r ds`` dropped from the log-radial weights."""
    def radial_nodes(geo):
        r, w = nodes(geo)
        return r, w / r
    return radial_nodes


def _negative_bands_one_row_lower(entries):
    """The section entry map with every entry of a negative band one row
    lower, the entries that leave the section dropped."""
    def shifted(bands, size):
        band, row, col = entries(bands, size)
        row = np.where(bands[band] < 0, row + 1, row)
        keep = row < size
        return band[keep], row[keep], col[keep]
    return shifted


def _adjoint_one_diagonal_off(adjoint):
    """The band conjugate transpose reading every entry from the next
    diagonal (band ``2w - k + 1`` for band ``k``, the last one cyclically
    from the first)."""
    def shifted(band):
        return adjoint(np.roll(band, -1, axis=-2))
    return shifted


def _products_one_degree_off(convolve):
    """A table product with every pair product one degree off: the sum at
    each degree moved to the next degree of the product's support, the top
    one's to the bottom, so the product keeps its band (a shift past the
    band would break the residual's layout rather than fail its row)."""
    def shifted(a, b):
        out = convolve(a, b)
        keys = sorted(out)
        return {k: out[n] for n, k in zip(keys, keys[1:] + keys[:1])}
    return shifted


#: per row: the shipped config that must FAIL, the module and attribute the
#: mutation rebinds, and the mutation as a function of the original
DEFECTS = {
    "toeplitz-hardy-times-1.001": (
        "toeplitz-build", hardy, "build_toeplitz_hardy",
        lambda build: lambda *a: build(*a) * 1.001,
    ),
    "swapped-basis-weights": (
        "toeplitz-build", hardy, "basis_weights",
        lambda weights: lambda n, R: weights(n, R)[::-1],
    ),
    "negated-hankel-annulus": (
        "toeplitz-build", hardy, "build_hankel_annulus",
        lambda build: lambda *a: -build(*a),
    ),
    "disc-hankel-one-offset-off": (
        "semicommutator", reduction, "build_disc_hankel",
        lambda build: _one_offset_off,
    ),
    "c0-hardy-samples-one-degree-on": (
        "gram", geometry, "hardy_basis_eval", _c0_one_degree_on,
    ),
    "c0-complement-samples-one-degree-on": (
        "gram", geometry, "complement_basis_eval", _c0_one_degree_on,
    ),
    "roots-table-one-index-off-gram": (
        "gram", geometry.AnnulusGeometry, "phases", _lower_half_one_index_off,
    ),
    "roots-table-one-index-off-toeplitz-build": (
        "toeplitz-build", geometry.AnnulusGeometry, "phases", _lower_half_one_index_off,
    ),
    "radial-weights-without-jacobian": (
        "mellin", geometry.AnnulusGeometry, "radial_nodes", _without_jacobian,
    ),
    "band-entries-one-row-off": (
        "toeplitz-build", hardy, "_band_entries", _negative_bands_one_row_lower,
    ),
    "band-adjoint-one-diagonal-off": (
        "semicommutator", hardy, "_adjoint", _adjoint_one_diagonal_off,
    ),
    "symbol-products-one-degree-off": (
        "semicommutator", symbols, "_convolve", _products_one_degree_off,
    ),
    "sign-certificate-for-every-profile": (
        "mellin", mellin, "_sign_certified", lambda certified: lambda profile: True,
    ),
}


def _run_shipped(config, tmp_path):
    return main([config, "--config", str(CONFIGS / f"{config}.json"),
                 "--out", str(tmp_path / "out")])


@pytest.mark.parametrize("config", sorted({row[0] for row in DEFECTS.values()}))
def test_unmutated_config_passes(config, tmp_path):
    assert _run_shipped(config, tmp_path) == 0


@pytest.mark.parametrize("config, module, name, mutate", DEFECTS.values(), ids=DEFECTS)
def test_planted_defect_fails_its_config(config, module, name, mutate, tmp_path,
                                         monkeypatch, capsys):
    monkeypatch.setattr(module, name, mutate(getattr(module, name)))
    assert _run_shipped(config, tmp_path) == 1
    assert any(line.startswith(f"FAIL {config}/")
               for line in capsys.readouterr().out.splitlines())
