"""End-to-end runs of the ``lab`` command through its Python entry point."""

import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from conftest import adversarial_radial_pair, read_decay_csv
from hypothesis import given, settings, strategies as st, target

import annulab
from annulab.cli import (
    _FIELDS, _HARNESSES, EXPERIMENTS, TRIAL_REACH, ConfigError, _reads,
    _resolve_boundary, load_config, main, parse_config, run,
)
from annulab.randgen import Lcg, random_boundary_symbol, random_polar_symbol
from annulab.reduction import DecayProfile, classify_decay, tail_index
from annulab.symbols import (
    MAX_INDEX, ExactSymbol, PolarSymbol, PolyProfile, write_symbol,
)

FAST = {"R": 0.5, "seed": 1, "m_circle": 512, "window": [-10, 10]}


def run_lab(tmp_path, experiment, doc, name="cfg.json", out="out"):
    cfg = tmp_path / name
    cfg.write_text(json.dumps(doc))
    outdir = tmp_path / out
    code = main([experiment, "--config", str(cfg), "--out", str(outdir)])
    return code, outdir


def test_gram_runs_clean(tmp_path, capsys):
    code, outdir = run_lab(tmp_path, "gram", FAST)
    assert code == 0
    assert (outdir / "results.csv").exists()
    assert (outdir / "report.json").exists()
    assert "PASS gram/max_abs_deviation" in capsys.readouterr().out


def test_toeplitz_build_runs_clean(tmp_path):
    code, outdir = run_lab(tmp_path, "toeplitz-build", FAST)
    assert code == 0
    assert (outdir / "section.csv").exists()
    rows = (outdir / "results.csv").read_text().strip().split("\n")[1:]
    assert [r.split(",")[1] for r in rows] == [
        "closed_form_vs_quadrature", "complement_closed_form_vs_quadrature"
    ]


def test_toeplitz_build_writes_exact_indices_past_2_53(tmp_path):
    """At window ``[2^53, 2^53 + 2]``, where a float64 index rounds,
    section.csv carries each of the nine (j, k) pairs once and exactly."""
    lo = 2**53
    code, outdir = run_lab(tmp_path, "toeplitz-build", dict(FAST, m_circle=64, window=[lo, lo + 2]))
    assert code == 0
    rows = (outdir / "section.csv").read_text().splitlines()[1:]
    assert [tuple(map(int, r.split(",")[:2])) for r in rows] == [
        (lo + j, lo + k) for j in range(3) for k in range(3)
    ]


def test_warm_mellin_run_builds_no_gauss_legendre_nodes(tmp_path, monkeypatch):
    """The radial nodes are built once per process: after a first run, a
    ``mellin`` run makes no ``leggauss`` call and writes the same bytes."""
    doc = {"R": 0.1, "seed": 1}
    assert run_lab(tmp_path, "mellin", doc, out="first")[0] == 0
    calls = []
    leggauss = np.polynomial.legendre.leggauss
    monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                        lambda n: calls.append(n) or leggauss(n))
    code, outdir = run_lab(tmp_path, "mellin", doc, out="warm")
    assert code == 0 and calls == []
    first = tmp_path / "first" / "results.csv"
    assert (outdir / "results.csv").read_bytes() == first.read_bytes()


def test_identities_runs_clean(tmp_path):
    code, _ = run_lab(tmp_path, "identities", FAST)
    assert code == 0


def test_semicommutator_runs_clean(tmp_path):
    code, _ = run_lab(tmp_path, "semicommutator", {"R": 0.5, "seed": 1})
    assert code == 0


def test_zero_product_hardy_runs_clean(tmp_path):
    code, _ = run_lab(tmp_path, "zero-product-hardy", {"R": 0.5, "seed": 1})
    assert code == 0


def test_zero_product_bergman_runs_clean(tmp_path):
    code, _ = run_lab(tmp_path, "zero-product-bergman", {"R": 0.5, "seed": 1})
    assert code == 0


def test_zero_product_calls_the_probe_bound_at_run_time(tmp_path, monkeypatch):
    """A probe rebound on its module after import (as the benchmark's
    tracer does) is the one the harness calls, once with all 20 pairs."""
    probe = annulab.hardy.zero_product_experiment_hardy
    calls = []

    def spy(*args, **kwargs):
        calls.append((len(args[0]), args[1]))
        return probe(*args, **kwargs)

    monkeypatch.setattr(annulab.hardy, "zero_product_experiment_hardy", spy)
    code, _ = run_lab(tmp_path, "zero-product-hardy", {"R": 0.5, "seed": 1})
    assert code == 0
    assert calls == [(20, (-24, 24))]


def _poison(values):
    """The list with its second entry replaced by NaN."""
    return [values[0], float("nan"), *values[2:]]


#: per report field: the trial row and the aggregate row that read it
NAN_ROWS = {
    "ladder_residuals": ["trial00_max_ladder_residual", "worst_ladder_residual"],
    "product_column_norms": [
        "trial00_min_product_column_norm_floor",
        "smallest_product_column_norm_floor",
    ],
}


@pytest.mark.parametrize("field", sorted(NAN_ROWS))
def test_zero_product_nan_fails_the_rows(tmp_path, monkeypatch, field):
    """A NaN in one trial's ladder or product norms must reach the trial
    row and the aggregate row, not be dropped by a running max or min."""
    probe = annulab.hardy.zero_product_experiment_hardy

    def poisoned(*args, **kwargs):
        return [
            dataclasses.replace(rep, **{field: _poison(getattr(rep, field))})
            for rep in probe(*args, **kwargs)
        ]

    monkeypatch.setattr(annulab.hardy, "zero_product_experiment_hardy", poisoned)
    doc = {"R": 0.5, "seed": 1, "window": [-24, 24]}
    code, outdir = run_lab(tmp_path, "zero-product-hardy", doc)
    assert code == 1
    lines = (outdir / "results.csv").read_text().strip().split("\n")[1:]
    table = {line.split(",")[1]: line.split(",")[2:] for line in lines}
    for name in NAN_ROWS[field]:
        assert table[name][0] == "nan" and table[name][2] == "false", name


def _nan_at_the_band_edge(monkeypatch):
    """Rebind the seeded two-circle draw so that the first symbol drawn
    holds a NaN outer coefficient at its top degree, the edge of its band."""
    draw = annulab.randgen.random_boundary_symbol
    drawn = []

    def first_with_nan(rng, reach):
        sym = draw(rng, reach)
        if not drawn:
            sym = type(sym)({**sym.coeffs_C, reach: complex("nan")}, sym.coeffs_C0)
        drawn.append(sym)
        return sym

    monkeypatch.setattr(annulab.randgen, "random_boundary_symbol", first_with_nan)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_nan_coefficient_inside_the_band_still_fails(tmp_path, monkeypatch):
    """A dense product spread a NaN section entry over its whole product
    row (0 x NaN is NaN); the band product keeps it inside the band, where
    it still reaches every interior column: the trial whose ``f`` holds it
    reads Inconclusive, the other trials of its stack keep their verdict,
    and the run exits 1.  ``semicommutator``, whose ``phi`` holds it on
    the unit circle, fails both residual rows."""
    _nan_at_the_band_edge(monkeypatch)
    code, outdir = run_lab(tmp_path, "zero-product-hardy", {"R": 0.5, "seed": 1})
    assert code == 1
    verdicts = json.loads((outdir / "report.json").read_text())["extra"]["verdicts"]
    assert verdicts == ["Inconclusive"] + ["ConsistentWithTheorem"] * 19
    _nan_at_the_band_edge(monkeypatch)
    code, outdir = run_lab(tmp_path, "semicommutator", {"R": 0.5, "seed": 1}, out="semi")
    assert code == 1
    rows = _results(outdir)
    for name in ("annulus_interior_residual", "disc_interior_residual"):
        assert rows[name][::2] == ["nan", "false"], name


def _top_band_one_row_lower(build):
    """``build`` with the top band of every stacked section moved one row
    down, in a band layout one diagonal wider each way."""

    def shifted(syms, window, R):
        ops = np.pad(build(syms, window, R), ((0, 0), (1, 1), (0, 0)))
        w = ops.shape[1] // 2
        for sym, op in zip(syms, ops):
            N, size = sym.top_degree(), op.shape[-1]
            cols = np.arange(max(0, -N), size - N - 1)
            op[w + N + 1, cols] = op[w + N, cols]
            op[w + N, cols] = 0.0
        return ops

    return shifted


#: per harness: the module and name of the section builder its probe calls
SECTION_BUILDERS = {
    "zero-product-hardy": (annulab.hardy, "build_toeplitz_hardy"),
    "zero-product-bergman": (annulab.bergman, "build_bergman_toeplitz"),
}


@pytest.mark.parametrize("experiment", sorted(SECTION_BUILDERS))
def test_band_one_row_off_fails_the_band_leak_rows(tmp_path, monkeypatch, experiment):
    """Every ladder column of a correct section ends at its top-degree
    entry, so each trial's band leak reads 0; a builder that places the
    top band one row low fails every such row."""
    doc = {"R": 0.5, "seed": 1}
    names = [f"trial{t:02d}_ladder_band_leak" for t in range(20)]
    code, outdir = run_lab(tmp_path, experiment, doc, out="clean")
    rows = _results(outdir)
    assert code == 0
    assert [rows[n] for n in names] == [["0", "0", "true"]] * 20
    module, name = SECTION_BUILDERS[experiment]
    monkeypatch.setattr(module, name, _top_band_one_row_lower(getattr(module, name)))
    code, outdir = run_lab(tmp_path, experiment, doc, out="shifted")
    rows = _results(outdir)
    assert code == 1
    assert all(rows[n][2] == "false" for n in names)


def test_zero_product_stacks_keep_memory_bounded(tmp_path):
    """A zero-product-hardy run at +-48 peaks at 0.83 MiB traced with its
    trials run one at a time.  Stacked, a chunk's T_f, T_g and product,
    each at most 1 MiB (``hardy._STACK_BYTES``), are alive together with
    the ladders' working arrays: 3.92 MiB.  The cap is the 0.83 MiB plus
    four such stacks; one unbounded stack of all 20 trials peaks at
    12.7 MiB, a 2 MiB bound at 8.4 MiB."""
    doc = {"R": 0.5, "seed": 1, "window": [-48, 48]}
    tracemalloc.start()
    try:
        code, _ = run_lab(tmp_path, "zero-product-hardy", doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= (0.83 + 4) * 2**20


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_mellin_at_a_tiny_radius_is_refused_without_a_traceback(tmp_path, capsys):
    """At R = 1e-40 the moments the run reads would overflow; the range
    rule refuses before the first one is taken, so no overflow warning
    fires, and the run exits 2 with one line before any directory exists."""
    code, outdir = run_lab(tmp_path, "mellin", {"R": 1e-40})
    assert code == 2
    assert not outdir.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "leave the float range at R=1e-40" in err[0]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("R, reason", [
    (2.0e-15, "leave the float range"),
    (2.2e-15, "reconstruction tolerance"),
    (1e-300, "leave the float range"),
])
def test_mellin_moment_range_rule_meets_the_reconstruction_rule(tmp_path, capsys, R, reason):
    """The run reads moments at |s| <= 21 (the zero scan's 20 plus the
    witness's degree 1), so the range rule refuses R below
    exp(-log(float max) / 21) = 2.0951e-15; just above it the run reaches
    the reconstruction, whose conditioning rule refuses it instead."""
    code, outdir = run_lab(tmp_path, "mellin", {"R": R})
    assert code == 2 and not outdir.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and reason in err[0]


@pytest.mark.parametrize("experiment", ["toeplitz-build", "gram", "zero-product-hardy"])
def test_small_radius_wide_window_runs_clean(tmp_path, capsys, experiment):
    """At R = 0.1 on [-160, 160] the basis norms sqrt(1 + R^(2n)) leave the
    float range; the bounded weights keep every row finite."""
    doc = {"R": 0.1, "window": [-160, 160], "m_circle": 1024}
    code, _ = run_lab(tmp_path, experiment, doc)
    lines = [ln for ln in capsys.readouterr().out.splitlines() if not ln.startswith("note")]
    assert code == 0
    assert lines and all(ln.startswith("PASS ") for ln in lines)


SHIPPED = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))


@pytest.mark.parametrize("config", SHIPPED, ids=lambda p: p.stem)
def test_shipped_config_runs_clean(tmp_path, config):
    experiment = json.loads(config.read_text())["experiment"]
    code = main([experiment, "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("R, code", [
    (1e-40, 2), (1e-20, 2), (1e-6, 2), (0.001, 2), (0.005, 0), (0.5, 2), (0.7, 2),
    (0.9, 2), (0.99, 2), (None, 2),
])
def test_mellin_passes_or_is_refused_at_every_radius(tmp_path, R, code):
    """The log-radial nodes resolve every moment the range rule admits, so
    no radius FAILs the closed-form row: a run passes, or the range or
    conditioning rule refuses it (``None``: the default R).  R 0.005 is
    where nodes linear in r would FAIL the row (1.02e-10 against 1e-10)."""
    got, outdir = run_lab(tmp_path, "mellin", {} if R is None else {"R": R})
    assert got == code
    assert outdir.exists() == (code == 0)


def test_mellin_runs_clean_on_thin_annulus(tmp_path):
    code, _ = run_lab(tmp_path, "mellin", {"R": 0.1, "seed": 1})
    assert code == 0


def test_mellin_nan_quadrature_fails_the_sweep(tmp_path, monkeypatch):
    """A NaN at one z of the sweep must reach the row, not be dropped by
    the running maximum."""
    quadrature = annulab.mellin.mellin_quadrature

    def nan_at_half(profile, z, geo):
        vals = np.asarray(quadrature(profile, z, geo))
        return np.where(np.asarray(z) == 0.5, np.nan, vals)

    monkeypatch.setattr(annulab.mellin, "mellin_quadrature", nan_at_half)
    code, outdir = run_lab(tmp_path, "mellin", {"R": 0.1, "seed": 1})
    assert code == 1
    rows = (outdir / "results.csv").read_text().strip().split("\n")[1:]
    table = {line.split(",")[1]: line.split(",")[2:] for line in rows}
    assert table["closed_form_vs_quadrature"] == ["nan", "1e-10", "false"]


def test_mellin_nan_reconstruction_fails_its_row(tmp_path, monkeypatch):
    """A NaN coefficient past the first degree must reach the round-trip
    row, not be dropped by the built-in max."""
    reconstruct = annulab.mellin.mellin_poly_reconstruct

    def nan_top(*args, **kwargs):
        rec = reconstruct(*args, **kwargs)
        return PolyProfile({**rec.coeffs, 6: float("nan")})

    monkeypatch.setattr(annulab.mellin, "mellin_poly_reconstruct", nan_top)
    code, outdir = run_lab(tmp_path, "mellin", {"R": 0.1, "seed": 1})
    assert code == 1
    assert _results(outdir)["poly_reconstruct_roundtrip"][::2] == ["nan", "false"]


def test_identities_nan_transfer_map_fails_its_row(tmp_path, monkeypatch):
    """A NaN in the second transfer map must reach the unitarity row, not
    be dropped by the built-in max of the two maps' defects."""
    assemble = annulab.reduction.assemble_transfer_unitaries

    def nan_in_p0(size, geo):
        U0, P0 = assemble(size, geo)
        P0[0, 0] = np.nan
        return U0, P0

    monkeypatch.setattr(annulab.reduction, "assemble_transfer_unitaries", nan_in_p0)
    code, outdir = run_lab(tmp_path, "identities", FAST)
    assert code == 1
    assert _results(outdir)["transfer_unitarity"][::2] == ["nan", "false"]


def test_identities_reads_the_diagram_row_from_diagram_residual(tmp_path, monkeypatch):
    """The diagram row is the value of ``reduction.diagram_residual``, the
    function the tests check, not of a second route."""
    monkeypatch.setattr(annulab.reduction, "diagram_residual", lambda *a: float("nan"))
    code, outdir = run_lab(tmp_path, "identities", FAST)
    assert code == 1
    assert _results(outdir)["diagram_residual"][::2] == ["nan", "false"]


def test_gram_nan_sample_fails_its_row(tmp_path, monkeypatch):
    """One NaN sample of one basis function must reach the Gram row: its
    coefficients are NaN in every bin, and a NaN is an owner."""
    evaluate = annulab.geometry.hardy_basis_eval

    def nan_sample(n, component, geo, rows=None):
        vals = evaluate(n, component, geo, rows)
        if component == "C0":
            vals[np.flatnonzero(np.asarray(n) == 3)[:1], 5] = np.nan
        return vals

    monkeypatch.setattr(annulab.geometry, "hardy_basis_eval", nan_sample)
    code, outdir = run_lab(tmp_path, "gram", FAST)
    assert code == 1
    assert _results(outdir)["max_abs_deviation"][::2] == ["nan", "false"]


@pytest.mark.parametrize(
    "name, failed",
    [
        ("complement_basis_eval", ["complement_closed_form_vs_quadrature"]),
        ("hardy_basis_eval",
         ["closed_form_vs_quadrature", "complement_closed_form_vs_quadrature"]),
    ],
)
def test_toeplitz_build_nan_sample_fails_the_rows_it_reaches(
    tmp_path, monkeypatch, name, failed
):
    """One NaN sample of one inner-circle basis function: a complement row
    reaches only the Hankel section, a hardy function is both a row of the
    Toeplitz section and, weighted, a column of both sections."""
    evaluate = getattr(annulab.geometry, name)

    def nan_sample(n, component, geo, rows=None):
        vals = evaluate(n, component, geo, rows)
        if component == "C0":
            vals[np.flatnonzero(np.asarray(n) == 3)[:1], 5] = np.nan
        return vals

    monkeypatch.setattr(annulab.geometry, name, nan_sample)
    code, outdir = run_lab(tmp_path, "toeplitz-build", FAST)
    assert code == 1
    rows = _results(outdir)
    assert sorted(k for k, v in rows.items() if v[2] == "false") == sorted(failed)
    assert all(rows[k][0] == "nan" for k in failed)


def test_toeplitz_build_nan_symbol_sample_fails_both_rows(tmp_path, monkeypatch):
    """One NaN sample of the symbol on the inner circle makes every weighted
    column NaN in every bin there, so both sections carry it to their rows."""
    sample = annulab.hardy.sample_symbol

    def nan_sample(f, geo):
        vals = sample(f, geo)
        vals.on_C0[5] = np.nan
        return vals

    monkeypatch.setattr(annulab.hardy, "sample_symbol", nan_sample)
    code, outdir = run_lab(tmp_path, "toeplitz-build", FAST)
    assert code == 1
    rows = _results(outdir)
    for name in ("closed_form_vs_quadrature", "complement_closed_form_vs_quadrature"):
        assert rows[name][::2] == ["nan", "false"]


def test_toeplitz_build_sees_a_negated_hankel(tmp_path, monkeypatch):
    """The shipped config's complement row compares the closed-form Hankel
    section with its quadrature twin, so a sign error in the closed form
    exits 1; the Toeplitz row is untouched."""
    build = annulab.hardy.build_hankel_annulus
    monkeypatch.setattr(annulab.hardy, "build_hankel_annulus", lambda *a: -build(*a))
    config = Path(__file__).resolve().parents[1] / "configs" / "toeplitz-build.json"
    outdir = tmp_path / "out"
    assert main(["toeplitz-build", "--config", str(config), "--out", str(outdir)]) == 1
    table = _results(outdir)
    assert table["complement_closed_form_vs_quadrature"][2] == "false"
    assert table["closed_form_vs_quadrature"][2] == "true"


def test_mellin_fails_honestly_on_thick_annulus(tmp_path, capsys):
    """Rounding the degree-6 moment samples at R = 0.5 already costs more
    than the round-trip tolerance (condition times eps is 1.1e-6), so the
    reconstruction refuses the system and the run exits 2 with one line."""
    code, outdir = run_lab(tmp_path, "mellin", {"R": 0.5, "seed": 1})
    assert code == 2
    assert not outdir.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "reconstruction tolerance 1e-08" in err[0]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("R, code", [(0.3, 0), (0.35, 2), (0.99, 2)])
def test_mellin_round_trip_runs_only_where_its_tolerance_is_reachable(tmp_path, R, code):
    """Condition times eps is 9.1e-9 at R = 0.3, below the round trip's
    1e-8, and 2.6e-8 at R = 0.35: the first is run and passes, the others
    are refused before any directory exists."""
    got, outdir = run_lab(tmp_path, "mellin", {"R": R})
    assert got == code
    assert outdir.exists() == (code == 0)


def test_hankel_decay_runs_and_emits_files(tmp_path):
    code, outdir = run_lab(
        tmp_path, "hankel-decay", {"R": 0.5, "seed": 1, "sizes": [16, 32]}
    )
    assert code == 0
    for name in ("decay.csv", "decay.svg", "decay-inner.svg"):
        assert (outdir / name).exists()


def test_decay_outputs_are_byte_deterministic(tmp_path):
    doc = {"R": 0.5, "seed": 1, "sizes": [16, 32]}
    _, out1 = run_lab(tmp_path, "hankel-decay", doc, name="a.json", out="o1")
    _, out2 = run_lab(tmp_path, "hankel-decay", doc, name="b.json", out="o2")
    for name in ("results.csv", "decay.csv", "decay.svg", "decay-inner.svg"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def _drawn_files(*names):
    """The run's seeded reach-``TRIAL_REACH`` draws, one per field of
    ``names`` in order, written as symbol files."""
    def write(tmp_path):
        rng, doc = Lcg(FAST["seed"]), {}
        for name in names:
            doc[name] = str(tmp_path / f"{name}.json")
            write_symbol(doc[name], random_boundary_symbol(rng, TRIAL_REACH), FAST["R"])
        return doc
    return write


@pytest.mark.parametrize("experiment, base, named, files", [
    ("identities", FAST, _drawn_files("symbol"), ["results.csv"]),
    ("toeplitz-build", FAST, _drawn_files("symbol"), ["results.csv", "section.csv"]),
    ("semicommutator", FAST, _drawn_files("symbol", "symbol2"), ["results.csv"]),
    ("hankel-decay", {"R": 0.5, "seed": 1, "sizes": [16, 32]},
     lambda tmp_path: {"symbol": "builtin:smooth-decay"}, ["results.csv", "decay.csv"]),
], ids=["identities", "toeplitz-build", "semicommutator", "hankel-decay"])
def test_unset_symbol_is_the_default_it_names(tmp_path, experiment, base, named, files):
    """An unset symbol field is the run's seeded draw, field by field in
    order, and in hankel-decay the calibration table ``builtin:smooth-decay``:
    a config that names the default writes the same bytes.  report.json
    echoes the table a decay sweep read."""
    doc = named(tmp_path)
    code, unset = run_lab(tmp_path, experiment, base, name="unset.json", out="unset")
    assert code == 0
    code, given = run_lab(tmp_path, experiment, {**base, **doc}, name="given.json", out="given")
    assert code == 0
    for name in files:
        assert (unset / name).read_bytes() == (given / name).read_bytes()
    echo = json.loads((unset / "report.json").read_text())["config"]
    assert echo["symbol"] == (doc["symbol"] if experiment == "hankel-decay" else None)


#: prints both thread variables after ``import annulab`` and the thread
#: count of numpy's OpenBLAS as the library reports it ("none" if not found)
BLAS_THREADS = """\
import ctypes, glob, os
import annulab.cli
import numpy
count = "none"
for path in glob.glob(os.path.dirname(numpy.__file__) + ".libs/*openblas*"):
    lib = ctypes.CDLL(path)
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
        if hasattr(lib, sym):
            fn = getattr(lib, sym)
            fn.argtypes, fn.restype = [], ctypes.c_int
            count = str(fn())
print(os.environ["OPENBLAS_NUM_THREADS"], os.environ["OMP_NUM_THREADS"], count)
"""


@pytest.mark.parametrize(
    "preset, want", [({}, ["1", "1"]), ({"OPENBLAS_NUM_THREADS": "2"}, ["2", "1"])]
)
def test_package_import_pins_one_blas_thread_unless_the_caller_set_one(preset, want):
    """Blocked LAPACK kernels split their sums by thread, so the decay
    artifacts' bytes hold at any host's core count only when the package
    pins one thread before numpy loads; a caller's own setting is kept."""
    pins = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in pins}
    env.update(preset, PYTHONPATH=str(Path(annulab.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", BLAS_THREADS], env=env, capture_output=True, text=True, check=True
    )
    *pinned, count = done.stdout.split()
    assert pinned == want
    if not preset:
        assert count in ("1", "none")


def test_decay_svg_is_wellformed_xml(tmp_path):
    _, outdir = run_lab(
        tmp_path, "hankel-decay", {"R": 0.5, "seed": 1, "sizes": [16, 32]}
    )
    root = ET.fromstring((outdir / "decay.svg").read_text())
    assert root.tag.endswith("svg")
    assert any(child.tag.endswith("polyline") for child in root.iter())


def test_decay_csv_reproduces_the_verdict(tmp_path):
    doc = {
        "R": 0.5,
        "seed": 1,
        "sizes": [64, 128, 256],
        "symbol": "builtin:conjugated-singular-inner",
    }
    _, outdir = run_lab(tmp_path, "hankel-decay", doc)
    reported = json.loads((outdir / "report.json").read_text())["extra"]["verdict"]
    blocks = read_decay_csv(outdir / "decay.csv")
    sizes = [s for s, _ in blocks]
    profiles = [
        DecayProfile(pullback=pb, sizes=sizes, epsilon=0.5)
        for pb in ("C", "C0")
    ]
    for s, per_size in blocks:
        for p, sig in zip(profiles, per_size):
            p.singular_values[s] = sig
            p.tail_indices[s] = tail_index(sig, 0.5)
    assert classify_decay(profiles) == reported


def test_builtin_symbol_lookup(tmp_path):
    code, outdir = run_lab(
        tmp_path,
        "hankel-decay",
        {"R": 0.5, "seed": 1, "sizes": [16, 32], "symbol": "builtin:split-sign"},
    )
    assert code == 0
    assert json.loads((outdir / "report.json").read_text())["extra"]["verdict"] == (
        "DecayObserved"
    )


def test_unknown_builtin_symbol_exits_2(tmp_path, capsys):
    doc = {"R": 0.5, "sizes": [16], "symbol": "builtin:nope"}
    code, _ = run_lab(tmp_path, "hankel-decay", doc)
    assert code == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("experiment", ["hankel-decay", "semicommutator"])
def test_parse_config_refuses_an_unknown_builtin(experiment):
    """The memory rule looks each built-in table up to size the run, and
    the lookup refuses an unknown name, so the refusal comes at parse time."""
    with pytest.raises(ConfigError, match=r"^unknown reference symbol 'nope'$"):
        parse_config({"symbol": "builtin:nope"}, experiment, None)


def test_symbol_file_round_trip_and_R_mismatch(tmp_path):
    path = tmp_path / "sym.json"
    write_symbol(path, ExactSymbol({0: 1}, {0: -1}), 0.5)
    doc = dict(FAST, symbol=str(path))
    code, _ = run_lab(tmp_path, "toeplitz-build", doc, name="ok.json", out="ok")
    assert code == 0
    write_symbol(path, ExactSymbol({0: 1}, {0: -1}), 0.25)
    code, _ = run_lab(tmp_path, "toeplitz-build", doc, name="bad.json", out="bad")
    assert code == 2


def test_symbol_file_with_a_nan_radius_exits_2(tmp_path, capsys):
    """NaN compares false both ways, so it must not pass the radius check."""
    path = tmp_path / "sym.json"
    path.write_text('{"repr": "exact", "R": NaN, "coeffs_C": [[0, 1, 0]]}')
    code, outdir = run_lab(tmp_path, "toeplitz-build", dict(FAST, symbol=str(path)))
    assert code == 2
    assert not outdir.exists()
    assert "was written for R=nan" in capsys.readouterr().err


def test_wrong_symbol_kind_exits_2(tmp_path):
    path = tmp_path / "polar.json"
    write_symbol(path, PolarSymbol({0: PolyProfile({0: 1.0 + 0.0j})}), 0.5)
    code, _ = run_lab(tmp_path, "toeplitz-build", dict(FAST, symbol=str(path)))
    assert code == 2


#: symbol files ``read_symbol`` cannot parse or refuses (None: no such file;
#: "": a directory); a table that is not finite would sample to NaN or inf
UNREADABLE_SYMBOLS = {
    "missing": None,
    "directory": "",
    "no-radius": '{"repr": "exact"}',
    "non-numeric-row": '{"repr": "exact", "R": 0.5, "coeffs_C": [[1, "x", 0]]}',
    "short-row": '{"repr": "exact", "R": 0.5, "coeffs_C": [[1, 2]]}',
    "nan-part": '{"repr": "exact", "R": 0.5, "coeffs_C": [[0, NaN, 0]]}',
    "infinite-part": '{"repr": "exact", "R": 0.5, "coeffs_C": [[0, Infinity, 0]]}',
    "overflowing-sum":
        '{"repr": "exact", "R": 0.5, "coeffs_C": [[0, 1e308, 0], [1, 1e308, 0]]}',
    "overflowing-part": '{"repr": "exact", "R": 0.5, "coeffs_C": [[0, 1e308, 1e308]]}',
    # indices a table would misread: repeated, fractional, boolean, infinite
    "misread-indices": '{"repr": "exact", "R": 0.5, "coeffs_C": [[1, 1, 0], [1, 2, 0], '
                       '[1.5, 3, 0]], "coeffs_C0": [[true, 1, 0]]}',
    "fractional-index": '{"repr": "exact", "R": 0.5, "coeffs_C": [[1.5, 3, 0]]}',
    "boolean-index": '{"repr": "exact", "R": 0.5, "coeffs_C0": [[true, 1, 0]]}',
    "infinite-index": '{"repr": "exact", "R": 0.5, "coeffs_C": [[Infinity, 1, 0]]}',
    "list": "[1]",
    "invalid-json": "{not json",
}


@pytest.mark.parametrize("text", UNREADABLE_SYMBOLS.values(), ids=UNREADABLE_SYMBOLS)
def test_unreadable_symbol_file_exits_2(tmp_path, capsys, text):
    path = tmp_path / "sym.json"
    if text == "":
        path.mkdir()
    elif text is not None:
        path.write_text(text)
    code, outdir = run_lab(tmp_path, "toeplitz-build", dict(FAST, symbol=str(path)))
    assert code == 2
    assert not outdir.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")
    assert f"symbol file {str(path)!r}" in err[0]


#: indices past ``MAX_INDEX``: one no int64 holds, and the first one past
PAST_THE_BOUND = {"1e30": 10**30, "-1e30": -(10**30), "bound+1": MAX_INDEX + 1,
                  "-(bound+1)": -(MAX_INDEX + 1)}


def _index_symbol(tmp_path, index):
    path = tmp_path / "sym.json"
    path.write_text(json.dumps(
        {"repr": "exact", "R": 0.5, "coeffs_C": [[index, 1, 0]], "coeffs_C0": [[0, 1, 0]]}
    ))
    return str(path)


@pytest.mark.parametrize("experiment", ["toeplitz-build", "semicommutator"])
@pytest.mark.parametrize("index", PAST_THE_BOUND.values(), ids=PAST_THE_BOUND)
def test_symbol_index_past_the_bound_exits_2(tmp_path, capsys, experiment, index):
    """An index past the bound is refused as the file is read, with one
    line, before any int64 step could overflow."""
    path = _index_symbol(tmp_path, index)
    code, outdir = run_lab(tmp_path, experiment, dict(FAST, symbol=path, symbol2=path))
    assert code == 2
    assert not outdir.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")
    assert "past the bound" in err[0]


@pytest.mark.parametrize("experiment", ["toeplitz-build", "semicommutator"])
@pytest.mark.parametrize("index", [MAX_INDEX, -MAX_INDEX], ids=["bound", "-bound"])
def test_symbol_index_at_the_bound_computes_or_exits_2(tmp_path, capsys, experiment, index):
    """An index at the bound, in both factors of the semicommutator's
    product, reaches the builders: the run computes or is refused with one
    line, and no int64 step overflows into a traceback."""
    path = _index_symbol(tmp_path, index)
    code, _ = run_lab(tmp_path, experiment, dict(FAST, symbol=path, symbol2=path))
    err = capsys.readouterr().err.splitlines()
    assert code in (0, 2)
    if code == 2:
        assert len(err) == 1 and err[0].startswith("config error: ")


@pytest.mark.parametrize("window", [[10**30, 10**30 + 1], [2**63 - 2, 2**63 - 1]],
                         ids=["1e30", "int64-top"])
def test_window_past_the_index_bound_exits_2(tmp_path, capsys, window):
    """A window bound past ``MAX_INDEX`` is refused as the config is read,
    with one line: at 10^30 the degrees would form an object array, and at
    2^63 - 1 the window's top would overflow int64."""
    code, outdir = run_lab(tmp_path, "toeplitz-build", dict(FAST, window=window))
    assert code == 2
    assert not outdir.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: config field 'window'")


@pytest.mark.parametrize("experiment", ["toeplitz-build", "zero-product-hardy"])
@pytest.mark.parametrize("window", [[MAX_INDEX - 20, MAX_INDEX], [-MAX_INDEX, 20 - MAX_INDEX]],
                         ids=["bound", "-bound"])
def test_window_at_the_index_bound_computes(tmp_path, experiment, window):
    """A window that reaches the bound itself is read by the builders, the
    oracle and the probe without an int64 step overflowing, and passes."""
    code, _ = run_lab(tmp_path, experiment, dict(FAST, window=window))
    assert code == 0


@pytest.mark.parametrize("window", [[10**10, 10**10 + 30], [2**61 - 29, 2**61 - 1]],
                         ids=["1e10", "bound"])
def test_far_bergman_window_computes(tmp_path, window):
    """The Bergman builder's tables of ``R^E`` and of the moments span the
    window's width, not its magnitude (ROADMAP item 10): a far window of 31
    or 29 degrees computes and passes."""
    code, _ = run_lab(tmp_path, "zero-product-bergman", dict(FAST, window=window))
    assert code == 0


def test_radial_node_count_is_not_a_config_field(tmp_path, capsys):
    """The radial quadrature takes a fixed node count
    (``geometry.RADIAL_NODES``): a config that sets ``m_radial`` is refused
    as an unknown field, with one line, before any directory exists."""
    code, outdir = run_lab(tmp_path, "mellin", {"R": 0.1, "m_radial": 32})
    assert code == 2
    assert not outdir.exists()
    err = capsys.readouterr().err.splitlines()
    assert err == ["config error: unknown config field 'm_radial'"]


def test_unknown_config_field_exits_2(tmp_path, capsys):
    code, _ = run_lab(tmp_path, "gram", {"R": 0.5, "radius": 0.5})
    assert code == 2
    assert "unknown config field" in capsys.readouterr().err


def test_experiment_field_mismatch_exits_2(tmp_path):
    code, _ = run_lab(tmp_path, "gram", {"R": 0.5, "experiment": "mellin"})
    assert code == 2


def test_matching_experiment_field_is_accepted(tmp_path):
    code, _ = run_lab(tmp_path, "gram", dict(FAST, experiment="gram"))
    assert code == 0


def test_bad_window_exits_2(tmp_path):
    code, _ = run_lab(tmp_path, "gram", {"R": 0.5, "window": [10, -10]})
    assert code == 2
    code, _ = run_lab(tmp_path, "gram", {"R": 0.5, "window": [0.5, 2]})
    assert code == 2


def _field_cases():
    """(field, value, message) for a wrong type, an out-of-range value and
    ``True`` in every config field."""
    wrong_type = "config field '{}' has the wrong type"
    out_of_range = "config field '{}' is out of range"
    window = "config field 'window' must be two integers [lo, hi]"
    sizes = "config field 'sizes' must hold positive integers"
    unknown_out = "unknown config field 'out'"
    cases = [
        ("R", "0.5", wrong_type), ("R", 1.5, out_of_range), ("R", 0, out_of_range),
        ("window", "[-3, 3]", wrong_type), ("window", [1, 2, 3], out_of_range),
        ("window", [3, 1], window), ("window", [0.5, 2], window),
        ("window", [True, 2], window),
        ("m_circle", 512.0, wrong_type), ("m_circle", 4, out_of_range),
        ("m_circle", 100, "m_circle must be a power of two >= 8, got 100"),
        # the radial node count is a constant, and a window bound an index
        ("m_radial", 32, "unknown config field 'm_radial'"),
        ("window", [MAX_INDEX, MAX_INDEX + 1],
         f"config field 'window' is past the bound {MAX_INDEX} in magnitude"),
        ("seed", 1.5, wrong_type), ("seed", -1, out_of_range),
        # here, so the generated ids of the list cases below keep their indices
        ("R", float("nan"), out_of_range), ("symbol", None, wrong_type),
        ("experiment", 3, wrong_type),
        ("experiment", "mellin",
         "config field 'experiment' ('mellin') disagrees with the subcommand"),
        ("symbol", 3, wrong_type), ("symbol2", [], wrong_type),
        ("sizes", 64, wrong_type), ("sizes", [], out_of_range), ("sizes", [0], sizes),
        ("sizes", [64, True], sizes),
        ("sizes", [64, 64, 32], "config field 'sizes' must not repeat a size"),
        # the output directory is --out's alone
        ("out", 1, unknown_out), ("out", True, unknown_out), ("out", "lab-out", unknown_out),
    ]
    cases += [(name, True, wrong_type) for name in _FIELDS]
    return [(f, v, msg.format(f)) for f, v, msg in cases]


@pytest.mark.parametrize("field, value, message", _field_cases())
def test_bad_config_field_names_the_field(tmp_path, field, value, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({field: value}))
    with pytest.raises(ConfigError) as exc:
        load_config(cfg, "gram")
    assert str(exc.value) == message
    assert field in message


def test_bad_json_exits_2(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    assert main(["gram", "--config", str(cfg)]) == 2
    assert "config error" in capsys.readouterr().err


def test_config_that_is_not_an_object_exits_2_and_writes_nothing(tmp_path, capsys):
    """Valid JSON that is not an object (a list here) has no fields to
    read: one line on stderr, exit 2, and no output directory."""
    code, outdir = run_lab(tmp_path, "gram", [1])
    assert code == 2
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]
    assert capsys.readouterr().err.splitlines() == ["config error: config must be a JSON object"]


def test_missing_config_exits_2(tmp_path):
    assert main(["gram", "--config", str(tmp_path / "absent.json")]) == 2


#: a symbol document whose absolute coefficient sum, 8e307 per circle, is
#: finite, while an FFT of its samples on 64 nodes would reach 64 times that
NEAR_FLOAT_MAX = {
    "repr": "exact", "R": 0.5, "coeffs_C": [[0, 8e307, 0]], "coeffs_C0": [[1, 8e307, 0]],
}


def run_lab_process(tmp_path, experiment, doc):
    """``lab`` in a child process that turns a numeric RuntimeWarning into
    an error; a ``symbol`` given as a document is written to a file first."""
    if isinstance(doc.get("symbol"), dict):
        path = tmp_path / "sym.json"
        path.write_text(json.dumps(doc["symbol"]))
        doc = {**doc, "symbol": str(path)}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    src = str(Path(annulab.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "annulab.cli", experiment,
         "--config", str(cfg), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )


@pytest.mark.parametrize(
    "experiment, doc",
    [
        # the margin is the bandwidth sum, larger than any window the table fits
        ("semicommutator", {"symbol": "builtin:conjugated-singular-inner"}),
        # the ladder reaches index 12, past the window top
        ("zero-product-hardy", {"window": [-4, 4]}),
        # the size-12 transfer diagram reads index 23, past m_circle / 2
        ("identities", {"m_circle": 32}),
        # half-window 24 spans 48 frequencies, not below m_circle 32
        ("gram", {"m_circle": 32}),
        # row, column and symbol frequencies reach 60 + 4 = m_circle
        ("toeplitz-build", {"m_circle": 64, "window": [-30, 30]}),
        # a repeated size would write its rows and blocks twice
        ("hankel-decay", {"sizes": [64, 64, 32]}),
        # the Mellin-zero scan's R^(2 lo + N + 2) = 0.1^-315 leaves the float range
        ("zero-product-bergman", {"R": 0.1, "window": [-160, 24]}),
        # 64 nodes times the absolute coefficient sum 8e307 leaves the float
        # range, so the samples' FFTs would overflow
        ("toeplitz-build",
         {"R": 0.5, "window": [-4, 4], "m_circle": 64, "symbol": NEAR_FLOAT_MAX}),
        ("identities",
         {"R": 0.5, "window": [-4, 4], "m_circle": 64, "symbol": NEAR_FLOAT_MAX}),
    ],
)
def test_domain_error_exits_2_with_one_line(tmp_path, experiment, doc):
    proc = run_lab_process(tmp_path, experiment, doc)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: ")


#: (R, window, exit code): the bounded sections compute every window, so
#: the boundary is the Mellin-zero scan's, whose plain moments read R down
#: to the exponent 2 lo + N + 2 with the trials' top band N = 3: at R 0.1
#: lo -156 reads R^-307 (|307 log R| = 706.9) and -157 reads R^-309
#: (711.5); the default window's R^-43 stays finite at R 7e-8 (708.4) and
#: overflows at 6.7e-8 (710.3)
BERGMAN_RANGE = [
    (0.1, [-156, 24], 0),
    (0.1, [-157, 24], 2),
    (0.1, [-160, 24], 2),
    (0.1, [-400, 24], 2),
    (7e-8, [-24, 24], 0),
    (6.7e-8, [-24, 24], 2),
    (1e-10, [-24, 24], 2),
    (1e-300, [-24, 24], 2),
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("R, window, code", BERGMAN_RANGE)
def test_bergman_window_computes_or_is_refused(tmp_path, capsys, R, window, code):
    """The whole-space Bergman sections stay bounded at every window, and
    the scan refuses one whose moments would leave the float range: a
    window either runs clean or is refused with one line before the first
    power leaves the float range."""
    got, outdir = run_lab(tmp_path, "zero-product-bergman", {"R": R, "window": window})
    assert got == code
    err = capsys.readouterr().err.splitlines()
    if code == 2:
        assert not outdir.exists()
        assert len(err) == 1 and err[0].startswith("config error: ")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bergman_negative_top_band_scan_is_range_checked(tmp_path, capsys, monkeypatch):
    """At a window the trials' top band N = 3 scans in range, a top band
    N = -1 starts the Mellin-zero scan of ``find_n0_bergman`` at 2 lo + N +
    2 = -309, one power past the float range: the scan's own check refuses
    the run."""
    module, name, kind, draw_f, _ = _HARNESSES["zero-product-bergman"]
    draw_g = lambda rng: random_polar_symbol(rng, -3, -1, 3)
    monkeypatch.setitem(_HARNESSES, "zero-product-bergman", (module, name, kind, draw_f, draw_g))
    got, _ = run_lab(tmp_path, "zero-product-bergman", {"R": 0.1, "window": [-155, 24]})
    assert got == 2
    [line] = capsys.readouterr().err.splitlines()
    assert "|s| <= 309 " in line


@pytest.mark.parametrize("half, code", [(29, 0), (30, 2)])
def test_toeplitz_build_refuses_the_first_aliased_window(tmp_path, capsys, half, code):
    """At m_circle 64 and symbol reach 4, window +-29 is resolved and
    passes; at +-30 the frequencies reach 64 and would fold on the grid."""
    doc = {"R": 0.5, "seed": 1, "m_circle": 64, "window": [-half, half]}
    assert run_lab(tmp_path, "toeplitz-build", doc)[0] == code
    if code == 0:
        assert "PASS toeplitz-build/closed_form_vs_quadrature" in capsys.readouterr().out


@pytest.mark.parametrize("reach", [12, 13])
def test_identities_refuses_the_first_aliased_read(tmp_path, capsys, reach):
    """At m_circle 64 the split relations read the inner table up to index
    2 * 10 + reach - 1: reach 12 reads 31 and passes, reach 13 reads 32
    and the grid analysis refuses it before any directory exists."""
    path = tmp_path / "sym.json"
    write_symbol(path, random_boundary_symbol(Lcg(7), reach), 0.5)
    doc = {"R": 0.5, "m_circle": 64, "window": [-120, 120], "symbol": str(path)}
    code, outdir = run_lab(tmp_path, "identities", doc)
    if reach == 12:
        assert code == 0
        rows = {r.split(",")[1]: float(r.split(",")[2])
                for r in (outdir / "results.csv").read_text().splitlines()[1:]}
        for name in ("diagram_residual", "split_relation_1", "split_relation_2"):
            assert rows[name] <= 1e-13
    else:
        assert code == 2
        assert not outdir.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ")
        assert "index 32 " in err[0]


@pytest.mark.parametrize(
    "experiment, doc",
    [
        ("toeplitz-build", {"m_circle": 64, "window": [-30, 30]}),
        ("identities", {"m_circle": 32}),
    ],
)
def test_refused_run_leaves_no_directory(tmp_path, experiment, doc):
    code, outdir = run_lab(tmp_path, experiment, doc, out="out/nested")
    assert code == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "experiment, doc",
    [
        ("toeplitz-build", {"m_circle": 64, "window": [-30, 30]}),
        ("identities", {"m_circle": 32}),
    ],
)
def test_refused_run_never_creates_its_directory(tmp_path, monkeypatch, experiment, doc):
    """The refusal comes before any directory exists, not after a clean-up."""
    made = []
    mkdir = Path.mkdir

    def spy(self, *args, **kwargs):
        made.append(self)
        return mkdir(self, *args, **kwargs)

    monkeypatch.setattr(Path, "mkdir", spy)
    code, _ = run_lab(tmp_path, experiment, doc, out="out/nested")
    assert code == 2
    assert made == []


def test_refused_run_keeps_a_directory_it_did_not_create(tmp_path):
    (tmp_path / "out").mkdir()
    code, outdir = run_lab(tmp_path, "identities", {"m_circle": 32})
    assert code == 2
    assert outdir.is_dir()


def test_decay_sizes_past_physical_memory_exit_2_before_any_work(
    tmp_path, capsys, monkeypatch
):
    """A 2**22 section needs 256 TiB; the refusal comes before the table,
    the section or the output directory exists."""
    from annulab import reduction, reference

    def boom(*args, **kwargs):
        raise AssertionError("allocated past the preflight")

    monkeypatch.setattr(reference, "reference_symbol", boom)
    monkeypatch.setattr(reduction, "build_disc_hankel", boom)
    doc = {"sizes": [64, 2**22], "symbol": "builtin:conjugated-singular-inner"}
    code, outdir = run_lab(tmp_path, "hankel-decay", doc)
    assert code == 2
    assert not outdir.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: config field 'sizes'")
    assert "physical memory" in err[0]
    # the rule belongs to the decay sweep; other experiments ignore sizes
    assert load_config(tmp_path / "cfg.json", "gram").sizes == (64, 2**22)


@pytest.mark.parametrize(
    "experiment, doc, field",
    [
        # 17 diagonals of a 2 * 10^8 + 1 wide band: 516 GiB
        ("semicommutator", {"window": [-10**8, 10**8]}, "window"),
        # a 200001-wide section: 596 GiB
        ("zero-product-hardy", {"window": [-100000, 100000]}, "window"),
        # 2**40 samples per degree row: the angular grid alone is 8 TiB
        ("gram", {"m_circle": 2**40}, "m_circle"),
        # three spectrum rows of 2**40 samples for each of 49 degrees: 2.3 PiB
        ("toeplitz-build", {"m_circle": 2**40}, "m_circle"),
        # the 13 x 2**40 transfer table: 208 TiB
        ("identities", {"m_circle": 2**40}, "m_circle"),
    ],
)
def test_arrays_past_physical_memory_exit_2_before_any_work(
    tmp_path, capsys, experiment, doc, field
):
    code, outdir = run_lab(tmp_path, experiment, doc)
    assert code == 2
    assert not outdir.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: config field '{field}'")
    assert "physical memory" in err[0]


def test_memory_rule_counts_ten_rows_per_toeplitz_build_degree(monkeypatch):
    """toeplitz-build counts its one phase of ``cli._PEAKS``, ``m (a n + b)
    + c n^2`` bytes, more than ten rows of m_circle samples per degree: a
    host one byte short of it refuses the run, naming m_circle, and one
    that holds it exactly accepts it."""
    doc = {"window": [-10, 10], "m_circle": 4096}
    ((a, b, c),) = annulab.cli._PEAKS["toeplitz-build"][1]
    need = 4096 * (a * 21 + b) + c * 21**2
    assert need > 16 * 4096 * 10 * 21
    pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": need - 1}
    monkeypatch.setattr(os, "sysconf", lambda name: pages[name])
    with pytest.raises(ConfigError, match="config field 'm_circle'.*physical memory"):
        parse_config(doc, "toeplitz-build", None)
    assert parse_config(doc, "semicommutator", None).m_circle == 4096
    pages["SC_PHYS_PAGES"] = need
    assert parse_config(doc, "toeplitz-build", None).m_circle == 4096


#: (experiment, config): each of gram, toeplitz-build and identities at two
#: or more sizes where the rule counts at least 32 MiB (gram +-500 on 1024
#: nodes where its sections outweigh its rows), each probe at one wide window
#: and at its shipped config (one chunk of 20 trials), the semicommutator at
#: one, and hankel-decay on a fixed built-in table far past its reach
_PEAK_CASES = [
    ("gram", {"window": [-256, 256], "m_circle": 2048}),
    ("gram", {"window": [-24, 24], "m_circle": 65536}),
    ("gram", {"window": [-500, 500], "m_circle": 1024}),
    ("toeplitz-build", {"window": [-64, 64], "m_circle": 4096}),
    ("toeplitz-build", {"window": [-24, 24], "m_circle": 65536}),
    ("identities", {"m_circle": 65536}),
    ("identities", {"m_circle": 131072}),
    ("zero-product-hardy", {"window": [-100, 100]}),
    ("zero-product-bergman", {"window": [-150, 150]}),
    ("zero-product-hardy", {"window": [-32, 32]}),
    ("zero-product-bergman", {"window": [-24, 24]}),
    ("semicommutator", {"window": [-300, 300]}),
    ("hankel-decay", {"symbol": "builtin:smooth-decay", "sizes": [4, 4000]}),
]


@pytest.mark.parametrize(
    "experiment, doc", _PEAK_CASES,
    ids=[f"{e}-{d.get('window', [0, 0])[1]}-{d.get('m_circle', 4096)}" for e, d in _PEAK_CASES],
)
def test_memory_rule_bounds_the_traced_peak(tmp_path, experiment, doc):
    """The bytes the memory rule counts (``cli._reads``) are at least the
    traced peak of the run they admit: gram, toeplitz-build and identities
    count what they hold at their peak, not only their largest array."""
    cfg = parse_config({"R": 0.5, **doc}, experiment, str(tmp_path / "out"))
    need = _reads(cfg)[2]
    if experiment in ("gram", "toeplitz-build", "identities"):
        assert need >= 32 * 2**20
    tracemalloc.start()
    try:
        run(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= need


def _traced_peak(cfg) -> int:
    tracemalloc.start()
    try:
        run(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


#: (experiment, config), each reading a symbol file of reach 4000 in
#: write_symbol's layout: parsing it holds several times the file's bytes
_FILE_CASES = [
    ("toeplitz-build", {"window": [-2, 2], "m_circle": 8192}),
    ("identities", {"m_circle": 8192}),
]


@pytest.mark.parametrize("experiment, doc", _FILE_CASES, ids=[e for e, _ in _FILE_CASES])
def test_memory_rule_counts_the_symbol_file(tmp_path, experiment, doc):
    """The bytes of each symbol file a run reads are counted (``cli._reads``)
    before any table is built, so the traced peak, the file's parse
    included, stays at most the count."""
    path = tmp_path / "sym.json"
    write_symbol(path, random_boundary_symbol(Lcg(3), 4000), 0.5)
    cfg = parse_config({"R": 0.5, "symbol": str(path), **doc}, experiment, str(tmp_path / "out"))
    assert _traced_peak(cfg) <= _reads(cfg)[2]


def test_memory_rule_counts_only_the_symbol_files_read(tmp_path):
    """identities reads ``symbol``, not ``symbol2``; a missing file adds
    nothing, and the run's own refusal names it."""
    path = tmp_path / "sym.json"
    write_symbol(path, random_boundary_symbol(Lcg(3), 400), 0.5)
    base = _reads(parse_config({}, "identities", None))[2]
    with_file = _reads(parse_config({"symbol": str(path)}, "identities", None))[2]
    assert with_file == base + 22 * path.stat().st_size
    assert _reads(parse_config({"symbol2": str(path)}, "identities", None))[2] == base
    missing = parse_config({"symbol": str(tmp_path / "none.json")}, "identities", None)
    assert _reads(missing)[2] == base
    assert run_lab(tmp_path, "identities", {"symbol": str(tmp_path / "none.json")})[0] == 2


@st.composite
def _sweep_case(draw, experiment):
    """One config of ``experiment`` whose count is at least 1.5 MiB, so the
    arrays that grow with its fields outweigh the fixed ones, the reaches of
    the symbol files it reads (None: the experiment's own symbol), each up
    to the largest the grid admits, and the seed of their coefficients."""
    m = 2 ** draw(st.integers(11, 12))
    lo = draw(st.integers(-64, 64))
    doc, reaches = {"R": 0.5, "m_circle": m}, {}
    if experiment == "gram":
        half = draw(st.integers(1, 200))
        other = draw(st.integers(-half + 1, half))
        doc["window"] = draw(st.sampled_from([[-half, other], [-other, half]]))
    elif experiment == "toeplitz-build":
        width = draw(st.integers(2, 96))
        doc["window"] = [lo, lo + width - 1]
        reaches["symbol"] = draw(st.none() | st.integers(0, min(m // 2 - 1, m - width)))
    elif experiment == "identities":
        reaches["symbol"] = draw(st.none() | st.integers(0, m // 2 - 20))
    elif experiment == "hankel-decay":
        top = draw(st.integers(320, 512))
        doc["sizes"] = sorted({draw(st.integers(1, top)), top})
        reaches["symbol"] = draw(st.integers(0, 2 * max(doc["sizes"])))
    elif experiment == "semicommutator":
        width = draw(st.integers(121, 201))
        doc["window"] = [lo, lo + width - 1]
        a = draw(st.integers(0, (width - 1) // 2 - 1))
        reaches = {"symbol": a, "symbol2": draw(st.integers(0, (width - 1) // 2 - 1 - a))}
    else:
        width = draw(st.integers(40, 160))
        doc["window"] = [lo, lo + width - 1]
    return doc, reaches, draw(st.integers(0, 2**31))


@pytest.mark.parametrize("experiment", [e for e in EXPERIMENTS if e != "mellin"])
@settings(derandomize=True, max_examples=5, deadline=None, database=None)
@given(data=st.data())
def test_memory_rule_bounds_the_traced_peak_over_a_sweep(tmp_path_factory, experiment, data):
    """Over drawn windows, grids, sizes and symbol files (``_sweep_case``)
    the traced peak of each run is at most the count; ``target`` records
    the largest ratio.  mellin holds no array that grows with a field, and
    counts none."""
    doc, reaches, seed = data.draw(_sweep_case(experiment))
    folder = tmp_path_factory.mktemp("sweep")
    for name, reach in reaches.items():
        if reach is not None:
            doc[name] = str(folder / f"{name}.json")
            write_symbol(doc[name], random_boundary_symbol(Lcg(seed), reach), 0.5)
    cfg = parse_config(doc, experiment, str(folder / "out"))
    need = _reads(cfg)[2]
    try:
        peak = _traced_peak(cfg)
    except ConfigError:
        return  # refused with exit 2, as a config the grid cannot serve
    target(peak / need, label=experiment)
    assert peak <= need


#: one run's growth of a fresh interpreter's peak resident set (VmHWM, the
#: peak of this process alone: ``ru_maxrss`` also takes in the parent's
#: resident set at the exec, which hides the growth of a small run), then
#: the count
_RSS_RUN = """
import json, sys
from annulab import cli


def peak_kib():
    with open("/proc/self/status") as fh:
        return int(next(line for line in fh if line.startswith("VmHWM")).split()[1])


doc, out = json.loads(sys.argv[1]), sys.argv[2]
cfg = cli.parse_config(doc, doc["experiment"], out)
before = peak_kib()
cli.run(cfg)
print(1024 * (peak_kib() - before), cli._reads(cfg)[2])
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM")
@pytest.mark.parametrize("case", ["gram-500-1024", "toeplitz-build-file"])
def test_memory_rule_bounds_the_resident_set_growth(tmp_path, case):
    """In a fresh process the resident set grows by at most the count: the
    Gram at +-500 on 1024 nodes, whose gather grows it about a quarter past
    its traced peak, and toeplitz-build reading a reach-4000 symbol file."""
    if case == "gram-500-1024":
        doc = {"experiment": "gram", "window": [-500, 500], "m_circle": 1024}
    else:
        path = tmp_path / "sym.json"
        write_symbol(path, random_boundary_symbol(Lcg(3), 4000), 0.5)
        doc = {"experiment": "toeplitz-build", "window": [-2, 2], "m_circle": 8192,
               "symbol": str(path)}
    src = str(Path(annulab.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", _RSS_RUN, json.dumps({"R": 0.5, **doc}), str(tmp_path / "out")],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src},
    )
    grown, need = map(int, done.stdout.split())
    assert grown <= need


def test_memory_rule_refuses_a_gram_grid_past_the_host(tmp_path, capsys, monkeypatch):
    """The Gram at +-24 on 2^22 nodes counts its rows phase of
    ``cli._PEAKS``, ``m (a n + b)`` bytes over ``n = 49`` degrees, more than
    its 98 spectrum rows alone (6.1 GiB): a host one byte short of it exits
    2 with one line naming m_circle, before any array is built or directory
    created, and one that holds it exactly accepts the config."""
    (a, b, _), _ = annulab.cli._PEAKS["gram"][1]
    need = 2**22 * (a * 49 + b)
    assert need > 16 * 2**22 * 98
    pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": need - 1}
    monkeypatch.setattr(os, "sysconf", lambda name: pages[name])

    def no_build(*args):
        raise AssertionError("an array was built")

    monkeypatch.setattr(annulab.geometry, "gram_matrix", no_build)
    code, outdir = run_lab(tmp_path, "gram", {"m_circle": 2**22})
    assert code == 2
    assert not outdir.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: config field 'm_circle'")
    assert "physical memory" in err[0]
    pages["SC_PHYS_PAGES"] = need
    assert parse_config({"m_circle": 2**22}, "gram", None).m_circle == 2**22


def test_parse_config_refuses_a_bad_grid_as_config_error():
    """The geometry's own refusal reaches callers of parse_config as the
    one config error type, not as a bare ValueError."""
    with pytest.raises(ConfigError, match="m_circle must be a power of two >= 8, got 12"):
        parse_config({"m_circle": 12}, "gram", None)


def test_memory_rule_counts_only_the_fields_an_experiment_reads(tmp_path):
    """A grid no section of the experiment reaches is not counted: neither
    zero-product harness samples a grid.  mellin builds no array that grows
    with a config field, so neither its grid nor a window of 2 * 10^12 + 1
    degrees is refused, and the run completes."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"m_circle": 2**40}))
    for experiment in ("zero-product-hardy", "zero-product-bergman"):
        assert load_config(cfg, experiment).m_circle == 2**40
    doc = {"R": 0.1, "m_circle": 2**40, "window": [-10**12, 10**12]}
    loaded = parse_config(doc, "mellin", None)
    assert (loaded.m_circle, loaded.window) == (2**40, (-10**12, 10**12))
    assert run_lab(tmp_path, "mellin", doc)[0] == 0


def test_memory_rule_sizes_the_whole_bergman_window(monkeypatch):
    """The Bergman probe counts ``c`` bytes per degree squared of the window
    (``cli._PEAKS``, ten sections) per trial it stacks, all of them at this
    width: a host one byte short of that over -20 .. 10 refuses the window,
    though it holds the count over -1 .. 10 many times over."""
    doc = {"window": [-20, 10]}
    ((_, _, c),) = annulab.cli._PEAKS["zero-product-bergman"][1]
    need = annulab.cli.TRIALS * c * 31**2
    pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": need - 1}
    monkeypatch.setattr(os, "sysconf", lambda name: pages[name])
    with pytest.raises(ConfigError, match="config field 'window'.*physical memory"):
        parse_config(doc, "zero-product-bergman", None)
    assert parse_config({"window": [-1, 10]}, "zero-product-bergman", None).window == (-1, 10)
    pages["SC_PHYS_PAGES"] = need
    assert parse_config(doc, "zero-product-bergman", None).window == (-20, 10)


def test_memory_rule_sizes_the_hardy_probe_peak(tmp_path, capsys, monkeypatch):
    """A host that holds the three sections of T_f, T_g and their product
    over +-48, but not the probe's count (``cli._PEAKS``: ``c`` bytes per
    degree squared per stacked trial; a stack holds the trials whose
    sections fit ``hardy._STACK_BYTES``, six here), refuses the window:
    exit 2 with one line, before any section is built."""
    doc = {"window": [-48, 48]}
    section = 16 * 97**2
    ((_, _, c),) = annulab.cli._PEAKS["zero-product-hardy"][1]
    need = c * 97**2 * (annulab.hardy._STACK_BYTES // section)
    pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 3 * section}
    monkeypatch.setattr(os, "sysconf", lambda name: pages[name])

    def no_build(*args):
        raise AssertionError("a section was built")

    monkeypatch.setattr(annulab.hardy, "build_toeplitz_hardy", no_build)
    code, outdir = run_lab(tmp_path, "zero-product-hardy", doc)
    assert code == 2
    assert not outdir.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: config field 'window'")
    assert "physical memory" in err[0]
    pages["SC_PHYS_PAGES"] = need - 1
    with pytest.raises(ConfigError, match="config field 'window'.*physical memory"):
        parse_config(doc, "zero-product-hardy", None)
    pages["SC_PHYS_PAGES"] = need
    assert parse_config(doc, "zero-product-hardy", None).window == (-48, 48)


def test_memory_rule_sizes_the_semicommutator_peak(tmp_path, capsys, monkeypatch):
    """The identity counts ``c`` bytes per degree of the window and
    diagonal of its product band (``cli._PEAKS``), ``2 (4 + 4) + 1`` for
    its two drawn reach-4 symbols: a host one byte short of that over +-48
    refuses the window with one line and no output, before any section is
    built; the count exactly is accepted."""
    doc = {"window": [-48, 48]}
    ((_, _, c),) = annulab.cli._PEAKS["semicommutator"][1]
    pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": c * 97 * (2 * (4 + 4) + 1) - 1}
    monkeypatch.setattr(os, "sysconf", lambda name: pages[name])

    def no_build(*args):
        raise AssertionError("a section was built")

    monkeypatch.setattr(annulab.hardy, "build_toeplitz_hardy", no_build)
    code, outdir = run_lab(tmp_path, "semicommutator", doc)
    assert code == 2
    assert not outdir.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: config field 'window'")
    assert "physical memory" in err[0]
    pages["SC_PHYS_PAGES"] += 1
    assert parse_config(doc, "semicommutator", None).window == (-48, 48)


def test_semicommutator_at_8192_runs_on_an_8_gib_host(tmp_path, monkeypatch):
    """The identity holds only its sections' diagonals: at +-8192 the rule
    counts ``c`` bytes per degree and diagonal of the product band of its
    two drawn reach-4 symbols, which an 8 GiB host holds.  The run exits 0,
    and its traced peak is at most the count."""
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2**21}
    monkeypatch.setattr(os, "sysconf", lambda name: pages[name])
    doc = {"R": 0.5, "seed": 1, "window": [-8192, 8192]}
    cfg = parse_config(doc, "semicommutator", str(tmp_path / "traced"))
    ((_, _, c),) = annulab.cli._PEAKS["semicommutator"][1]
    assert _reads(cfg)[2] == c * 16385 * (2 * (4 + 4) + 1)
    assert run_lab(tmp_path, "semicommutator", doc)[0] == 0
    assert _traced_peak(cfg) <= _reads(cfg)[2]


def test_memory_rule_counts_a_fixed_builtin_decay_table_at_its_reach(monkeypatch):
    """hankel-decay decomposes the live corner of its table only, so a
    fixed built-in table counts ``c`` bytes per entry of its reach-25
    square (``cli._PEAKS``) besides ``cli._DECAY_VALUE_BYTES`` per singular
    value kept, whatever the largest size: a host one byte short of that
    refuses ``sizes [4, 18000]`` naming the field, the count exactly is
    accepted.  A table truncated to the run's reads keeps the full square."""
    doc = {"symbol": "builtin:smooth-decay", "sizes": [4, 18000]}
    ((_, _, c),) = annulab.cli._PEAKS["hankel-decay"][1]
    need = c * 25**2 + annulab.cli._DECAY_VALUE_BYTES * (4 + 18000)
    pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": need - 1}
    monkeypatch.setattr(os, "sysconf", lambda name: pages[name])
    with pytest.raises(ConfigError, match="config field 'sizes'.*physical memory"):
        parse_config(doc, "hankel-decay", None)
    pages["SC_PHYS_PAGES"] = need
    assert parse_config(doc, "hankel-decay", None).sizes == (4, 18000)
    truncated = {"symbol": "builtin:hilbert", "sizes": [4, 18000]}
    pages["SC_PHYS_PAGES"] = 2**60
    assert _reads(parse_config(truncated, "hankel-decay", None))[2] > c * 18000**2


def test_identities_reads_no_window(tmp_path):
    """The identities rows are the size-12 diagram, the split relations and
    the transfer maps; none reads the window, so a window of two million
    degrees is neither sized nor refused."""
    code, outdir = run_lab(tmp_path, "identities", {"window": [-10**6, 10**6]})
    assert code == 0
    assert list(_results(outdir)) == [
        "diagram_residual", "split_relation_1", "split_relation_2",
        "transfer_unitarity", "conjugate_reflection_residual",
    ]


@pytest.mark.parametrize("half, code", [(31, 0), (32, 2)])
def test_gram_refuses_the_first_aliased_window(tmp_path, capsys, half, code):
    """The Gram is the pairing kernel's unweighted call, under its one rule:
    at m_circle 64 the degrees of +-31 span 62 and pass, those of +-32 span
    64 and would fold on the grid."""
    doc = {"R": 0.5, "m_circle": 64, "window": [-half, half]}
    got, outdir = run_lab(tmp_path, "gram", doc)
    assert got == code
    if code == 0:
        assert float(_results(outdir)["max_abs_deviation"][0]) <= 1e-13
    else:
        assert not outdir.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_empty_config_exits_0_or_2(tmp_path, capsys, experiment):
    """Every experiment's defaults either run clean or are refused with one
    line before any directory exists; none ends in a failing row."""
    code, outdir = run_lab(tmp_path, experiment, {})
    assert code in (0, 2)
    if code == 2:
        assert not outdir.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ")


def test_tolerance_is_not_a_config_field(tmp_path, capsys):
    """The residual bound is the lab's (``cli.TOLERANCE``): a config cannot
    loosen a check, not even to the value the lab uses."""
    code, outdir = run_lab(tmp_path, "gram", {"tolerance": 1e-10})
    assert code == 2
    assert not outdir.exists()
    err = capsys.readouterr().err.splitlines()
    assert err == ["config error: unknown config field 'tolerance'"]


def _results(outdir):
    rows = (outdir / "results.csv").read_text().strip().split("\n")[1:]
    return {r.split(",")[1]: r.split(",")[2:] for r in rows}


def test_hankel_decay_certificate_rows(tmp_path, capsys):
    doc = {"sizes": [32, 64], "symbol": "builtin:conjugated-singular-inner"}
    code, outdir = run_lab(tmp_path, "hankel-decay", doc)
    assert code == 0
    rows = _results(outdir)
    names = list(rows)
    assert names[:4] == ["tail_C_32", "tail_C_64", "tail_C0_32", "tail_C0_64"]
    assert rows["rank_bound_C"] == ["127", "inf", "true"]
    assert rows["rank_bound_C0"] == ["0", "inf", "true"]
    assert rows["l1_tail_k_C0"] == ["0", "inf", "true"]
    k_star = int(rows["l1_tail_k_C"][0])
    assert 0 < k_star <= 127
    tail = rows["tail_C_64"][0]
    assert rows["tail_within_certificate_C"] == [tail, str(k_star), "true"]
    assert rows["tail_within_certificate_C0"] == ["0", "0", "true"]
    extra = json.loads((outdir / "report.json").read_text())["extra"]
    assert "truncated to 128 coefficients" in extra["l1_tail_table"]
    assert "note l1_tail_table: truncated" in capsys.readouterr().out
    # an Inconclusive verdict claims nothing: the certificate is recorded only
    assert extra["verdict"] == "Inconclusive"
    assert rows["decay_claim_certified"][1:] == ["inf", "true"]
    code, outdir = run_lab(tmp_path, "hankel-decay", {"sizes": [32, 64]}, out="smooth")
    assert code == 0
    extra = json.loads((outdir / "report.json").read_text())["extra"]
    assert "l1_tail_table" not in extra
    assert extra["verdict"] == "DecayObserved"
    assert _results(outdir)["decay_claim_certified"] == ["7", "31", "true"]


def test_hilbert_decay_claim_is_not_certified(tmp_path):
    """The Hilbert matrix is bounded and not compact, yet its tails read
    2, 2, 2, 2 and the frozen rule says DecayObserved; the l1 certificate
    (621 against the smallest size 64) refuses to back that claim."""
    code, outdir = run_lab(tmp_path, "hankel-decay", {"symbol": "builtin:hilbert"})
    assert code == 1
    extra = json.loads((outdir / "report.json").read_text())["extra"]
    assert extra["verdict"] == "DecayObserved"
    rows = _results(outdir)
    assert rows["decay_claim_certified"] == ["621", "63", "false"]
    assert [n for n, (_, _, ok) in rows.items() if ok == "false"] == [
        "decay_claim_certified"
    ]


def test_hankel_decay_certificate_catches_a_wrong_section(tmp_path, monkeypatch):
    """A Toeplitz section in place of the Hankel one keeps a tail that
    grows with the size, past the l1 tail bound of the table it reads,
    and the run exits 1 on the certificate rows.  The defect is planted
    in the decomposition, since the sweep's one table read gives both the
    coefficients and the blocks: the certificate keeps the Hankel
    coefficients, the decomposed block is the symmetric Toeplitz one over
    them, entry ``(j, k)`` the coefficient at ``|j - k|``."""
    from annulab import reduction

    def toeplitz_values(block):
        hats = np.concatenate((block[0], block[1:, -1]))
        j = np.arange(len(block))
        return np.linalg.svd(hats[np.abs(np.subtract.outer(j, j))], compute_uv=False), "dense"

    monkeypatch.setattr(reduction, "hankel_singular_values", toeplitz_values)
    code, outdir = run_lab(tmp_path, "hankel-decay", {"sizes": [32, 64]})
    assert code == 1
    rows = _results(outdir)
    failing = sorted(n for n, (_, _, ok) in rows.items() if ok == "false")
    assert failing == ["tail_within_certificate_C", "tail_within_certificate_C0"]


def test_unknown_experiment_is_an_argparse_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{}")
    with pytest.raises(SystemExit) as exc:
        main(["spectral-flow", "--config", str(cfg)])
    assert exc.value.code == 2


def test_failing_check_exits_1(tmp_path, capsys, monkeypatch):
    build = annulab.hardy.build_toeplitz_hardy
    monkeypatch.setattr(annulab.hardy, "build_toeplitz_hardy", lambda *a: build(*a) * 1.001)
    code, _ = run_lab(tmp_path, "toeplitz-build", FAST)
    assert code == 1
    assert "FAIL toeplitz-build/closed_form_vs_quadrature" in capsys.readouterr().out


def test_report_json_echoes_the_run(tmp_path):
    code, outdir = run_lab(tmp_path, "gram", FAST)
    assert code == 0
    doc = json.loads((outdir / "report.json").read_text())
    assert doc["config"]["experiment"] == "gram"
    assert doc["config"]["R"] == 0.5
    assert doc["config"]["out"] == str(outdir)
    assert doc["config"]["window"] == [-10, 10]
    assert "results.csv" in doc["files"]
    assert doc["duration_seconds"] >= 0.0
    assert all(row["pass"] for row in doc["checks"])


def test_out_flag_is_the_only_output_setter(tmp_path, capsys, monkeypatch):
    """A config that names ``out`` is refused with the unknown-field line
    before anything is written; ``--out`` sets the directory, and without
    it the run writes to ``lab-out``."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(FAST, out=str(tmp_path / "from-config"))))
    assert main(["gram", "--config", str(cfg), "--out", str(tmp_path / "from-flag")]) == 2
    assert capsys.readouterr().err.splitlines() == ["config error: unknown config field 'out'"]
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]
    code, outdir = run_lab(tmp_path, "gram", FAST, name="flag.json", out="from-flag")
    assert code == 0 and (outdir / "results.csv").exists()
    monkeypatch.chdir(tmp_path)
    assert main(["gram", "--config", "flag.json"]) == 0
    assert (tmp_path / "lab-out" / "results.csv").exists()


def test_reference_table_covers_the_deepest_decay_read(tmp_path):
    """The size-1024 sweep reads index -2047; a fixed 1025-entry table
    would read zeros there and report tail 15 instead of 18."""
    doc = {
        "R": 0.5,
        "seed": 1,
        "sizes": [128, 256, 512, 1024],
        "symbol": "builtin:conjugated-singular-inner",
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    cfg = load_config(cfg_path, "hankel-decay", str(tmp_path / "out"))
    table = _resolve_boundary(cfg.symbol, cfg, None).coeffs_C
    assert min(table) <= -(2 * max(cfg.sizes) - 1)
    result = run(cfg)
    tails = {r.name: r.value for r in result.rows}
    assert tails["tail_C_1024"] == 18
    assert result.extra["verdict"] == "NoDecay"


def test_mellin_nan_root_fails_zero_locate(tmp_path, monkeypatch):
    """A NaN among the located roots must reach the zero_locate_at_5 row,
    not be dropped by the reduction over the roots."""
    locate = annulab.mellin.mellin_zero_locate

    def nan_root(*args, **kwargs):
        return locate(*args, **kwargs) + [float("nan")]

    monkeypatch.setattr(annulab.mellin, "mellin_zero_locate", nan_root)
    code, outdir = run_lab(tmp_path, "mellin", {"R": 0.1, "seed": 1})
    assert code == 1
    rows = _results(outdir)
    assert rows["zero_locate_at_5"] == ["nan", "1e-08", "false"]
    assert [n for n, (_, _, ok) in rows.items() if ok == "false"] == ["zero_locate_at_5"]


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.mark.parametrize(
    "config, basis",
    [
        ({"symbol": "builtin:hilbert"},
         {"clause": "decay", "tails": {"C": [2, 2, 2, 2], "C0": [0, 0, 0, 0]}}),
        ("hankel-decay.json",
         {"clause": "growth", "tails": {"C": [5, 7, 9, 13], "C0": [0, 0, 0, 0]}}),
        ("hankel-decay-smooth.json",
         {"clause": "decay", "tails": {"C": [1, 1, 1, 1], "C0": [1, 1, 1, 1]}}),
        ({"sizes": [32, 64], "symbol": "builtin:conjugated-singular-inner"},
         {"clause": "neither", "tails": {"C": [3, 5], "C0": [0, 0]}}),
    ],
)
def test_hankel_decay_records_the_verdict_basis(tmp_path, config, basis):
    """report.json names the clause of the frozen rule that decided and the
    tail indices it read per pullback, in size order."""
    if isinstance(config, str):
        config = json.loads((CONFIGS / config).read_text(encoding="utf-8"))
    run_lab(tmp_path, "hankel-decay", config)
    extra = json.loads((tmp_path / "out" / "report.json").read_text())["extra"]
    assert extra["verdict_basis"] == basis
    verdict = {"growth": "NoDecay", "decay": "DecayObserved", "neither": "Inconclusive"}
    assert extra["verdict"] == verdict[basis["clause"]]


def test_hankel_decay_records_the_decay_route(tmp_path):
    """report.json names, per pullback and size, the route of the singular
    values: the shipped config's outer 512 block takes the sketch, every
    smaller block and the empty inner table stay dense; results.csv gains
    no row for it."""
    config = json.loads((CONFIGS / "hankel-decay.json").read_text(encoding="utf-8"))
    run_lab(tmp_path, "hankel-decay", config)
    extra = json.loads((tmp_path / "out" / "report.json").read_text())["extra"]
    route = extra["decay_route"]
    sketch = route["C"].pop("512")
    assert sketch["rank"] == annulab.reduction.SKETCH_RANK
    assert 0.0 < sketch["residual"] < sketch["allowance"] < 1e-11
    assert route == {"C": dict.fromkeys(("64", "128", "256"), "dense"),
                     "C0": dict.fromkeys(("64", "128", "256", "512"), "dense")}
    rows = (tmp_path / "out" / "results.csv").read_text().splitlines()
    assert not any("route" in row for row in rows)


def test_hankel_decay_route_is_the_record_hankel_singular_values_returns(tmp_path):
    """The shipped config's outer 512 block, read from the table as the CLI
    sizes it, returns from ``hankel_singular_values`` the very record that
    report.json writes for it."""
    config = json.loads((CONFIGS / "hankel-decay.json").read_text(encoding="utf-8"))
    run_lab(tmp_path, "hankel-decay", config)
    extra = json.loads((tmp_path / "out" / "report.json").read_text())["extra"]
    length = 2 * max(config["sizes"])  # every index a decay sweep reads
    table = annulab.reference.reference_symbol("conjugated-singular-inner", config["R"], length)
    outer = annulab.symbols.pullback_symbols(table)[0]
    block = annulab.reduction.build_disc_hankel(outer, 512).real
    _, route = annulab.reduction.hankel_singular_values(block)
    assert isinstance(route, dict) and route == extra["decay_route"]["C"]["512"]


# ---------------------------------------------------------------------------
# zero-product runs read a symbol file pair: 'symbol' as f, 'symbol2' as g


def _pair_files(tmp_path, f, g, R):
    """``f`` and ``g`` written as the symbol files ``f.json`` and ``g.json``."""
    paths = [str(tmp_path / f"{name}.json") for name in ("f", "g")]
    for path, sym in zip(paths, (f, g)):
        write_symbol(path, sym, R)
    return {"R": R, "symbol": paths[0], "symbol2": paths[1]}


def _refused(code, outdir, capsys):
    """Exit 2 with one ``config error`` line, before anything is written."""
    err = capsys.readouterr().err.splitlines()
    assert code == 2 and not outdir.exists()
    assert len(err) == 1 and err[0].startswith("config error: ")
    return err[0]


def _hardy_reproducer(tmp_path):
    """ROADMAP item 2's Hardy pair: ``z^-4`` on the unit circle only, and
    the same on the inner circle only, so ``fg`` vanishes on the boundary
    and ``T_f T_g`` is the nonzero compact ``-H*_fbar H_g``."""
    f, g = ExactSymbol({-4: 1.0 + 0j}, {}), ExactSymbol({}, {-4: 1.0 + 0j})
    return dict(_pair_files(tmp_path, f, g, 0.1), window=[-24, 24])


def _bergman_reproducer(tmp_path):
    """ROADMAP item 13's radial pair (``conftest.adversarial_radial_pair``)
    at R 0.5 on the window (-1, 14), where ``T_f T_g`` vanishes."""
    return dict(_pair_files(tmp_path, *adversarial_radial_pair(0.5), 0.5), window=[-1, 14])


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: an absolute floor reads a small "
                   "product as zero, so the file pair reads Violation and exits 1")
@pytest.mark.parametrize("experiment, pair", [
    ("zero-product-hardy", _hardy_reproducer), ("zero-product-bergman", _bergman_reproducer),
], ids=["hardy-item-2", "bergman-item-13"])
def test_known_wrong_file_pair_reads_consistent_through_lab(tmp_path, experiment, pair):
    """Neither pair is a zero divisor, so the run should exit 0 with one
    ``ConsistentWithTheorem`` verdict; today both read ``Violation``."""
    code, outdir = run_lab(tmp_path, experiment, pair(tmp_path))
    verdicts = json.loads((outdir / "report.json").read_text())["extra"]["verdicts"]
    assert (code, verdicts) == (0, ["ConsistentWithTheorem"])


@pytest.mark.parametrize("experiment", sorted(_HARNESSES))
def test_file_pair_runs_as_one_trial(tmp_path, monkeypatch, experiment):
    """A file pair is one trial: the probe gets exactly the pair the files
    hold, once, and the run writes one trial's rows and the aggregates."""
    module, name, _, draw_f, draw_g = _HARNESSES[experiment]
    rng = Lcg(5)
    f, g = draw_f(rng), draw_g(rng)
    doc = dict(_pair_files(tmp_path, f, g, 0.5), window=[-24, 24])
    probe, calls = getattr(module, name), []
    monkeypatch.setattr(module, name, lambda pairs, *a: calls.append(pairs) or probe(pairs, *a))
    code, outdir = run_lab(tmp_path, experiment, doc)
    assert code == 0 and calls == [[(f, g)]]
    assert list(_results(outdir)) == [
        "trial00_max_ladder_residual", "trial00_min_product_column_norm_floor",
        "trial00_min_relative_pivot", "trial00_ladder_band_leak",
        "worst_ladder_residual", "smallest_product_column_norm_floor",
    ]


@pytest.mark.parametrize("experiment, zero, other", [
    ("zero-product-hardy", ExactSymbol({}, {}), random_boundary_symbol(Lcg(1), 4)),
    ("zero-product-bergman", PolarSymbol({}),
     random_polar_symbol(Lcg(1), -2, 3, 3, monomial_top=True)),
], ids=["hardy", "bergman"])
@pytest.mark.parametrize("side", ["f", "g"])
def test_zero_factor_file_pair_fails_only_its_floor_rows(tmp_path, experiment, zero, other, side):
    """A zero factor, as either file of the pair, has no ladder: its three
    ladder rows are info rows reading NaN, and the run exits 1 through its
    two ``_floor`` rows alone, since the product is exactly zero.  The
    probe reads a zero factor ``ConsistentWithTheorem`` (it satisfies the
    dichotomy outright); whether the run should then exit 0 is ROADMAP
    item 2's verdict rule."""
    pair = (zero, other) if side == "f" else (other, zero)
    code, outdir = run_lab(tmp_path, experiment,
                           dict(_pair_files(tmp_path, *pair, 0.5), window=[-24, 24]))
    rows = _results(outdir)
    assert code == 1
    assert {name for name, (*_, ok) in rows.items() if ok == "false"} == {
        "trial00_min_product_column_norm_floor", "smallest_product_column_norm_floor",
    }
    for name in ("trial00_max_ladder_residual", "trial00_ladder_band_leak",
                 "worst_ladder_residual"):
        assert rows[name] == ["nan", "inf", "true"]
    assert rows["smallest_product_column_norm_floor"][0] == "0"
    verdicts = json.loads((outdir / "report.json").read_text())["extra"]["verdicts"]
    assert verdicts == ["ConsistentWithTheorem"]


@pytest.mark.parametrize("experiment", sorted(_HARNESSES))
@pytest.mark.parametrize("field", ["symbol", "symbol2"])
def test_one_symbol_field_alone_exits_2(tmp_path, capsys, experiment, field):
    path = str(tmp_path / "sym.json")
    write_symbol(path, random_boundary_symbol(Lcg(1), 4), 0.5)
    code, outdir = run_lab(tmp_path, experiment, {"R": 0.5, field: path})
    assert "set both or neither" in _refused(code, outdir, capsys)


@pytest.mark.parametrize("experiment, f, g", [
    ("zero-product-hardy", PolarSymbol({1: PolyProfile({0: 1j})}),
     PolarSymbol({0: PolyProfile({1: 1.0 + 0j})})),
    ("zero-product-bergman", random_boundary_symbol(Lcg(1), 2), random_boundary_symbol(Lcg(2), 2)),
], ids=["polar-to-hardy", "exact-to-bergman"])
def test_file_of_the_other_kind_exits_2(tmp_path, capsys, experiment, f, g):
    code, outdir = run_lab(tmp_path, experiment, _pair_files(tmp_path, f, g, 0.5))
    assert f"but {experiment} reads" in _refused(code, outdir, capsys)


def test_builtin_symbol_given_to_bergman_exits_2(tmp_path, capsys):
    """The ``builtin:`` tables are two-circle symbols, so the Bergman run
    refuses them as of the other kind."""
    doc = {"symbol": "builtin:hilbert", "symbol2": "builtin:split-sign"}
    code, outdir = run_lab(tmp_path, "zero-product-bergman", doc)
    assert "holds ExactSymbol, but zero-product-bergman reads PolarSymbol" in _refused(
        code, outdir, capsys)


@pytest.mark.parametrize("experiment", sorted(_HARNESSES))
def test_file_pair_written_for_another_radius_exits_2(tmp_path, capsys, experiment):
    *_, draw_f, draw_g = _HARNESSES[experiment]
    rng = Lcg(1)
    doc = dict(_pair_files(tmp_path, draw_f(rng), draw_g(rng), 0.5), R=0.25)
    code, outdir = run_lab(tmp_path, experiment, doc)
    assert "was written for R=0.5, config has R=0.25" in _refused(code, outdir, capsys)


@pytest.mark.parametrize("experiment", sorted(_HARNESSES))
def test_memory_rule_counts_the_zero_product_file_pair(tmp_path, experiment):
    """``cli._PEAKS`` names both fields for both zero-product runs, so the
    count grows by 22 bytes per byte of each file."""
    *_, draw_f, draw_g = _HARNESSES[experiment]
    rng = Lcg(1)
    doc = _pair_files(tmp_path, draw_f(rng), draw_g(rng), 0.5)
    size = sum(os.stat(doc[name]).st_size for name in ("symbol", "symbol2"))
    base = _reads(parse_config({}, experiment, None))[2]
    assert _reads(parse_config(doc, experiment, None))[2] == base + 22 * size


def _negative_degree_pair(degree):
    """A radial ``f`` whose profile holds the negative ``degree`` beside a
    constant, and a two-band ``g`` (at R 0.5, ``R^-1100 = 2^1100`` is past
    float max)."""
    f = PolarSymbol({0: PolyProfile({degree: 1.0 + 0j, 0: 0.5 + 0j})})
    g = PolarSymbol({-1: PolyProfile({1: 0.25 + 0j}), 1: PolyProfile({2: 1.0 + 0j})})
    return f, g


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_polar_file_degree_past_the_float_range_exits_2(tmp_path, capsys):
    """A symbol file can hold a negative profile degree: one whose ``R^E``
    leaves the float range is refused with ``FloatRangeError``, one line,
    and nothing is written."""
    doc = _pair_files(tmp_path, *_negative_degree_pair(-1100), 0.5)
    with pytest.raises(annulab.errors.FloatRangeError, match="leave the float range"):
        run(parse_config(doc, "zero-product-bergman", str(tmp_path / "direct")))
    assert not (tmp_path / "direct").exists()
    code, outdir = run_lab(tmp_path, "zero-product-bergman", doc)
    assert "leave the float range at R=0.5" in _refused(code, outdir, capsys)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_polar_file_with_an_in_range_negative_degree_runs(tmp_path):
    doc = _pair_files(tmp_path, *_negative_degree_pair(-3), 0.5)
    code, outdir = run_lab(tmp_path, "zero-product-bergman", doc)
    assert code == 0
    verdicts = json.loads((outdir / "report.json").read_text())["extra"]["verdicts"]
    assert verdicts == ["ConsistentWithTheorem"]


def _huge_pair(tmp_path, experiment, s):
    """A symbol of size ``s`` as both factors: bands ``-1`` and ``1`` of
    ``s`` on the unit circle beside the constant 1 on the inner one, or,
    for the Bergman harness, the constant profiles ``s, 1, s`` on bands
    ``-1, 0, 1`` (R 0.5, the default window)."""
    if experiment == "zero-product-bergman":
        f = PolarSymbol({k: PolyProfile({0: c}) for k, c in ((-1, s), (0, 1.0), (1, s))})
    else:
        f = ExactSymbol({-1: s, 1: s}, {0: 1.0})
    return _pair_files(tmp_path, f, f, 0.5)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "experiment, s",
    [
        ("zero-product-hardy", 1e90),
        ("zero-product-hardy", 1e160),
        ("zero-product-bergman", 1e90),
        ("zero-product-bergman", 1e160),
        ("semicommutator", 1e160),
    ],
)
def test_products_past_the_float_range_exit_2(tmp_path, capsys, experiment, s):
    """A section product whose entries, or in the probes whose column
    norms, could leave the float range is refused before it is formed
    (``hardy._refuse_past_float_range``): one line, no directory.  Without
    the rule the probes' norms squared past float max (1e90) or their
    ladder solve raised ``LinAlgError`` (1e160), and the semicommutator's
    band product overflowed (1e160)."""
    code, outdir = run_lab(tmp_path, experiment, _huge_pair(tmp_path, experiment, s))
    assert "leave the float range in a product" in _refused(code, outdir, capsys)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("experiment", ["zero-product-hardy", "zero-product-bergman"])
def test_products_inside_the_float_range_run(tmp_path, experiment):
    code, outdir = run_lab(tmp_path, experiment, _huge_pair(tmp_path, experiment, 1e50))
    assert code == 0
    verdicts = json.loads((outdir / "report.json").read_text())["extra"]["verdicts"]
    assert verdicts == ["ConsistentWithTheorem"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_semicommutator_product_inside_the_float_range_computes(tmp_path):
    """At ``s = 1e100`` the semicommutator forms entries of about 1e200,
    which the entry bound admits (it takes no column norm), so the run
    computes.  Its annulus row FAILs on the absolute tolerance, which does
    not scale with the symbol (an open FOUND in CHANGES.md); the disc row
    passes."""
    doc = _huge_pair(tmp_path, "semicommutator", 1e100)
    code, outdir = run_lab(tmp_path, "semicommutator", doc)
    assert code == 1
    failing = [name for name, row in _results(outdir).items() if row[2] == "false"]
    assert failing == ["annulus_interior_residual"]


#: every class of ``annulab.errors``
ERROR_CLASSES = [c for c in vars(annulab.errors).values()
                 if isinstance(c, type) and issubclass(c, Exception)]


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda c: c.__name__)
def test_every_error_class_is_a_refusal(tmp_path, capsys, monkeypatch, cls):
    """Each class of ``annulab.errors`` is ``ConfigError`` or a subclass,
    which ``main`` catches alone: a runner that raises it exits 2 with one
    line and writes nothing."""
    args = ("refused", 1.0) if cls is annulab.errors.IllConditionedError else ("refused",)

    def refuse(cfg):
        raise cls(*args)

    monkeypatch.setitem(annulab.cli._RUNNERS, "gram", refuse)
    code, outdir = run_lab(tmp_path, "gram", FAST)
    assert _refused(code, outdir, capsys) == "config error: refused"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_identically_vanishing_mellin_scan_exits_2(tmp_path, capsys):
    """A ``g`` whose top band ``5e-324 (1 - r)`` makes every scanned
    Mellin value underflow to zero: ``mellin_zero_locate`` refuses it with
    ``ZeroProfileError``, which ``lab`` reports as a refusal, not a
    traceback."""
    f = PolarSymbol({0: PolyProfile({0: 1.0})})
    g = PolarSymbol({0: PolyProfile({0: 1.0}), 1: PolyProfile({0: 5e-324, 1: -5e-324})})
    doc = dict(_pair_files(tmp_path, f, g, 0.5), window=[0, 40])
    code, outdir = run_lab(tmp_path, "zero-product-bergman", doc)
    message = "config error: transform vanished identically on the scan grid"
    assert _refused(code, outdir, capsys) == message
