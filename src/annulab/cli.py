"""Batch experiment runner behind the ``lab`` command.

Each experiment composes module operations into check rows; then ``run``
writes ``results.csv`` and ``report.json`` (plus experiment-specific
CSV/SVG files) into the output directory, and the process exits 0 exactly
when every check passes.  The JSON config sets the run's parameters; the
residual bound and trial count (below) and the probes' ladder length and
floor (in :mod:`annulab.hardy`) are fixed, so reports stay comparable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import bergman, geometry, hardy, mellin, randgen, reduction, reference, report
from .errors import AliasingError, FloatRangeError, IllConditionedError, WindowTooSmallError
from .plotting import emit_plot
from .symbols import (
    MAX_INDEX,
    ExactSymbol,
    PolyProfile,
    constant_symbol,
    pullback_symbols,
    read_symbol,
)

#: fixed harness constants (documented, not configurable)
TRIALS = 20
#: bound of every residual row that has no bound of its own
TOLERANCE = 1e-10
#: band reach of seeded two-circle trial symbols
TRIAL_REACH = 4
#: band range and radial degree of seeded polar trial symbols
TRIAL_BANDS = (-2, 3)
TRIAL_PROFILE_DEGREE = 3
#: sampling progression for the degree-6 reconstruction demonstration; the
#: moment system only stays well conditioned when the samples straddle the
#: point where the R^z term takes over, which needs a fairly thin annulus
#: (the shipped config uses R = 0.1; from R = 0.35 the reconstruction
#: refuses the system, and the run exits 2)
RECONSTRUCT_Z_START = -10.5
RECONSTRUCT_Z_STEP = 4.0
RECONSTRUCT_DEGREE = 6
#: interval the mellin experiment scans for the witness zero at 5
ZERO_SCAN = (-10.0, 20.0)
#: section size of the identities experiment's transfer diagram
DIAGRAM_SIZE = 12


class ConfigError(ValueError):
    """Raised for malformed configuration files; message names the field."""


#: configurations the computation cannot serve; like a malformed config
#: they exit 2 with one line, while any other exception is a program fault
DOMAIN_ERRORS = (WindowTooSmallError, AliasingError, IllConditionedError, FloatRangeError)


@dataclass
class LabConfig:
    R: float = 0.5
    window: tuple[int, int] = (-24, 24)
    m_circle: int = 4096
    seed: int = 1
    experiment: str = ""
    symbol: str | None = None
    symbol2: str | None = None
    sizes: tuple[int, ...] = (64, 128, 256, 512)
    out: str = "lab-out"

    def geometry(self) -> geometry.AnnulusGeometry:
        return geometry.AnnulusGeometry(self.R, self.m_circle)


def _window(w) -> tuple[int, int]:
    """The window's degrees, held to the bound ``MAX_INDEX`` of a symbol
    file's indices.  The deepest int64 step that reads a degree ``n`` is the
    Bergman builder's exponent ``k + 2n + 2 + d``, band ``k`` and profile
    degree ``d`` each within ``MAX_INDEX``: at most ``4 MAX_INDEX + 2 = 2^63
    - 2``.  Every other step takes less: the Hardy weights read ``|n|``,
    :meth:`AnnulusGeometry.phases` reads ``n mod m_circle``, the oracles
    differences of two degrees, and the probes add on Python ints."""
    lo, hi = w
    if any(isinstance(x, bool) or not isinstance(x, int) for x in w) or not lo < hi:
        raise ConfigError("config field 'window' must be two integers [lo, hi]")
    if max(-lo, hi) > MAX_INDEX:
        raise ConfigError(f"config field 'window' is past the bound {MAX_INDEX} in magnitude")
    return lo, hi


def _sizes(v) -> tuple[int, ...]:
    if any(isinstance(s, bool) or not isinstance(s, int) or s < 1 for s in v):
        raise ConfigError("config field 'sizes' must hold positive integers")
    if len(set(v)) < len(v):
        raise ConfigError("config field 'sizes' must not repeat a size")
    return tuple(v)


#: per ``LabConfig`` field: accepted JSON types (``bool`` never counts as a
#: number), range check and conversion to the stored value (None: none)
_FIELDS = {
    "R": ((int, float), lambda x: 0.0 < x < 1.0, float),
    "window": (list, lambda w: len(w) == 2, _window),
    "m_circle": (int, lambda x: x >= 8, None),
    "seed": (int, lambda x: x >= 0, None),
    "experiment": (str, None, None),
    "symbol": (str, None, None),
    "symbol2": (str, None, None),
    "sizes": (list, lambda s: len(s) >= 1, _sizes),
    "out": (str, None, None),
}


def parse_config(doc: dict, experiment: str, out_override: str | None) -> LabConfig:
    names = [f.name for f in fields(LabConfig)]
    for key in doc:
        if key not in names:
            raise ConfigError(f"unknown config field '{key}'")
    cfg = LabConfig(experiment=experiment)
    for key in names:
        if key not in doc:
            continue
        kinds, in_range, convert = _FIELDS[key]
        v = doc[key]
        if isinstance(v, bool) or not isinstance(v, kinds):
            raise ConfigError(f"config field '{key}' has the wrong type")
        if in_range is not None and not in_range(v):
            raise ConfigError(f"config field '{key}' is out of range")
        if key == "experiment" and v != experiment:
            raise ConfigError(
                f"config field 'experiment' ({v!r}) disagrees with the subcommand"
            )
        setattr(cfg, key, v if convert is None else convert(v))
    if out_override is not None:
        cfg.out = out_override
    try:
        cfg.geometry()  # validates R / m_circle jointly
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    _, key, need = _reads(cfg)
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ConfigError(
            f"config field '{key}': {cfg.experiment} needs {need} bytes at its "
            f"peak, more than the {have} bytes of physical memory"
        )
    return cfg


def _reads(cfg: LabConfig) -> tuple[int, str, int]:
    """``(table_length, field, bytes)`` of what the run reads.

    ``table_length`` covers every index a symbol table is read at: down to
    ``-(2 max(sizes) - 1)`` in a decay sweep, ``-(2 DIAGRAM_SIZE - 1)`` in
    the identities diagram's disc Hankel section, ``-(width - 1)`` in a
    windowed section.  ``bytes`` is the largest dense array the experiment
    builds (or the sections it holds at once at its peak, derived below)
    and ``field`` the config field that sizes it: for identities ``16
    (DIAGRAM_SIZE + 1) m_circle``, over its transfer tables of
    ``DIAGRAM_SIZE`` rows, which also bounds the split relations' largest
    arrays, ``16 size m_circle`` at their ``size`` 10, whatever the symbol's
    reach; for mellin 0, as it holds no section and no spectra (its arrays
    grow with no field); else the complex section, ``16 side^2`` (``side``
    the window width, ``2(2W+1)`` for gram, ``max(sizes)`` for
    hankel-decay, whose sweep holds no section of its own: its largest
    array is LAPACK's copy of the live ``L x L`` corner, ``8 L^2`` for a
    real table and ``16 L^2`` for a complex one, with ``L <=
    max(sizes)``), and the pairing kernel's spectra of
    ``m_circle`` samples, two rows per degree for gram (``side`` rows) and
    three for toeplitz-build (hardy, complement and weighted hardy).

    Two experiments hold several sections at once, counted in sections of
    ``16 side^2`` bytes; every builder writes into its one result.
    ``hardy._semicommutator_residual``, annulus and disc, holds 3 in its
    first band product, then keeps ``T_phi T_psi`` beside the conjugated
    Hankel section of ``phi`` (``.conj()`` frees the built one), that of
    ``psi`` and their band product: 4, ``64 side^2``; its residual holds
    3 (tracemalloc reads 4.0 at side 801).  A zero-product stack fits
    ``hardy._STACK_BYTES`` (1 MiB) or holds one trial, so where a refusal
    can fall it is one section.  ``T_f``, ``T_g`` and their product are
    alive from the band product through the ladder: 3.  The ladder over
    ``k <= side`` columns adds up to six complex ``side x k`` blocks (its
    column copy, the normalized one, ``qr``'s copy, ``Q``, and LAPACK's
    copies of the matrix and of ``Q``) and, in Bergman, real identity
    columns: 3 + 6.5.  Ten sections, ``160 side^2``, bound each phase with
    room for the allocator's slack: a lone trial's full-width ladder at
    side 801 grew the resident set by 9.6 sections in Hardy, 9.8 in
    Bergman."""
    (lo, hi), exp = cfg.window, cfg.experiment
    if exp == "hankel-decay":
        return 2 * max(cfg.sizes), "sizes", 16 * max(cfg.sizes) ** 2
    if exp == "identities":
        return 2 * DIAGRAM_SIZE, "m_circle", 16 * (DIAGRAM_SIZE + 1) * cfg.m_circle
    width = hi - lo + 1
    side = 2 * (2 * max(-lo, hi) + 1) if exp == "gram" else width
    spectra = {"gram": side, "toeplitz-build": 3 * side}.get(exp, 0) * cfg.m_circle
    sections = {"mellin": 0, "semicommutator": 4, **dict.fromkeys(_HARNESSES, 10)}.get(exp, 1)
    arrays = ("window", 16 * sections * side**2), ("m_circle", 16 * spectra)
    return width, *max(arrays, key=lambda c: c[1])


def load_config(path, experiment: str, out_override: str | None = None) -> LabConfig:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    return parse_config(doc, experiment, out_override)


def _resolve_boundary(ref: str | None, cfg: LabConfig, fallback) -> ExactSymbol:
    if ref is None:
        return fallback()
    if ref.startswith("builtin:"):
        try:
            return reference.reference_symbol(
                ref[len("builtin:"):], cfg.R, _reads(cfg)[0]
            )
        except KeyError as exc:
            raise ConfigError(str(exc.args[0])) from exc
    try:
        sym, R_file = read_symbol(ref)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"symbol file {ref!r}: {type(exc).__name__}: {exc}") from exc
    if not isinstance(sym, ExactSymbol):
        raise ConfigError(f"symbol file {ref!r} does not hold a two-circle symbol")
    if not abs(R_file - cfg.R) <= 1e-12:  # a NaN radius matches nothing
        raise ConfigError(
            f"symbol file {ref!r} was written for R={R_file}, config has R={cfg.R}"
        )
    return sym


# ---------------------------------------------------------------------------
# experiment bodies: each returns (rows, {file name: writer(path)}, extra)


def _run_gram(cfg: LabConfig):
    geo = cfg.geometry()
    half = max(-cfg.window[0], cfg.window[1])
    G = geometry.gram_matrix(geo, half)
    G.flat[:: len(G) + 1] -= 1.0  # G - I in place: x - 0 keeps every bit of |x|
    dev = float(np.max(np.abs(G)))
    rows = [report.residual_check("gram", "max_abs_deviation", dev, TOLERANCE)]
    return rows, {}, {}


def _run_toeplitz_build(cfg: LabConfig):
    geo = cfg.geometry()
    rng = randgen.Lcg(cfg.seed)
    sym = _resolve_boundary(
        cfg.symbol, cfg, lambda: randgen.random_boundary_symbol(rng, TRIAL_REACH)
    )
    sec = hardy.build_toeplitz_hardy(sym, cfg.window, cfg.R)
    hankel = hardy.build_hankel_annulus(sym, cfg.window, cfg.R)
    rows = []
    for name, closed, quad in zip(
        ("closed_form_vs_quadrature", "complement_closed_form_vs_quadrature"),
        (sec, hankel),
        hardy.build_section_quadrature(sym, cfg.window, geo),
    ):
        dev = np.max(np.abs(closed - quad))
        rows.append(report.residual_check("toeplitz-build", name, dev, TOLERANCE))
    artifacts = {
        "section.csv": lambda path: report.write_section_csv(path, sec, cfg.window[0])
    }
    return rows, artifacts, {}


def _run_hankel_decay(cfg: LabConfig):
    sym = _resolve_boundary(
        cfg.symbol, cfg, reference.smooth_decay_symbol
    )
    verdict, profiles = reduction.hankel_compactness_indicator(sym, cfg.sizes)
    check = "hankel-decay"
    rows = []
    for p in profiles:
        for s in p.sizes:
            rows.append(
                report.info_check(check, f"tail_{p.pullback}_{s}", p.tail_indices[s])
            )
    for p in profiles:
        rows.append(report.info_check(check, f"rank_bound_{p.pullback}", p.rank_bound))
        rows.append(report.info_check(check, f"l1_tail_k_{p.pullback}", p.l1_tail_k))
        rows.append(
            report.residual_check(
                check, f"tail_within_certificate_{p.pullback}",
                max(p.tail_indices.values()), p.certified_tail,
            )
        )
    # a DecayObserved claim stands only where the l1 certificate bounds
    # every tail index below the smallest section
    claim, name = max(p.certified_tail for p in profiles), "decay_claim_certified"
    rows.append(
        report.residual_check(check, name, claim, min(cfg.sizes) - 1)
        if verdict == reduction.DECAY_OBSERVED
        else report.info_check(check, name, claim)
    )
    artifacts = {
        "decay.csv": lambda path: report.write_decay_csv(path, profiles),
        "decay.svg": lambda path: emit_plot(profiles[0], path),
        "decay-inner.svg": lambda path: emit_plot(profiles[1], path),
    }
    extra = {"verdict": verdict, "verdict_basis": reduction.decay_basis(profiles)}
    if cfg.symbol in [f"builtin:{name}" for name in reference.TRUNCATED]:
        # the certificate sums the table the run reads, not the infinite one
        extra["l1_tail_table"] = (
            f"truncated to {_reads(cfg)[0]} coefficients; "
            "l1_tail_k bounds the sections of the truncation only"
        )
    return rows, artifacts, extra


def _run_identities(cfg: LabConfig):
    geo = cfg.geometry()
    phi = _resolve_boundary(cfg.symbol, cfg, lambda: constant_symbol(1.0, 1.0))
    size = DIAGRAM_SIZE
    U0, P0 = reduction.assemble_transfer_unitaries(size, geo)
    rows = [
        report.residual_check(
            "identities", "diagram_residual",
            reduction.diagram_residual(phi, geo, U0, P0), TOLERANCE,
        )
    ]
    r1, r2 = reduction.split_relation_residual(phi, 10, geo)
    rows.append(report.residual_check("identities", "split_relation_1", r1, TOLERANCE))
    rows.append(report.residual_check("identities", "split_relation_2", r2, TOLERANCE))
    # np.max keeps a NaN in either map, which the built-in max would drop
    unit = np.max([
        np.max(np.abs(U0.conj().T @ U0 - np.eye(size))),
        np.max(np.abs(P0.conj().T @ P0 - np.eye(size))),
    ])
    rows.append(report.residual_check("identities", "transfer_unitarity", unit, 1e-12))
    rows.append(
        report.residual_check(
            "identities", "conjugate_reflection_residual",
            reduction.conjugate_reflection_residual(7, geo), TOLERANCE,
        )
    )
    return rows, {}, {}


def _run_mellin(cfg: LabConfig):
    rng = randgen.Lcg(cfg.seed)
    profile = PolyProfile({d: rng.coefficient() for d in range(11)})
    target = PolyProfile({d: rng.coefficient() for d in range(RECONSTRUCT_DEGREE + 1)})
    c = 6.0 * (1.0 - cfg.R**5) / (5.0 * (1.0 - cfg.R**6))
    witness = PolyProfile({0: 1.0, 1: -c})
    zs = np.arange(-5.0, 10.0 + 0.25, 0.5)
    zr = RECONSTRUCT_Z_START + RECONSTRUCT_Z_STEP * np.arange(RECONSTRUCT_DEGREE + 1)
    # each moment the run reads is at s = z + m, for a degree m of the
    # profile read at z: |s| <= |z| + max(m)
    mellin.check_moment_range(max(
        max(map(abs, z)) + max(p.coeffs)
        for p, z in ((profile, zs), (target, zr), (witness, ZERO_SCAN))
    ), cfg.R)
    closed = mellin.mellin_transform(profile, zs, cfg.R).tolist()
    quad = mellin.mellin_quadrature(profile, zs, cfg.geometry()).tolist()
    # moments blow up like R^-|z| on thin annuli, so compare to scale; the
    # built-in abs gives the scalar loop's bits (np.abs rounds the modulus
    # differently), and np.max keeps a NaN, which the built-in max would drop
    worst = float(
        np.max([abs(c - q) / max(1.0, abs(c)) for c, q in zip(closed, quad)])
    )
    rows = [
        report.residual_check(
            "mellin", "closed_form_vs_quadrature", worst, TOLERANCE
        )
    ]
    values = mellin.mellin_transform(target, zr, cfg.R)
    rec = mellin.mellin_poly_reconstruct(
        values, RECONSTRUCT_Z_START, RECONSTRUCT_Z_STEP, cfg.R
    )
    dev = np.max([
        abs(rec.coeffs.get(d, 0.0) - target.coeffs.get(d, 0.0))
        for d in range(RECONSTRUCT_DEGREE + 1)
    ])
    rows.append(report.residual_check(
        "mellin", "poly_reconstruct_roundtrip", dev, mellin.RECONSTRUCT_TOLERANCE
    ))
    roots = mellin.mellin_zero_locate(witness, *ZERO_SCAN, cfg.R)
    dev = np.min([abs(r - 5.0) for r in roots], initial=np.inf)
    rows.append(report.residual_check("mellin", "zero_locate_at_5", dev, 1e-8))
    return rows, {}, {}


#: per harness: the module and name of the probe, looked up at each run so
#: a rebound module attribute (a tracer, a test double) is the one called,
#: then the seeded draws of ``f`` and ``g``
_HARNESSES = {
    "zero-product-hardy": (
        hardy, "zero_product_experiment_hardy",
        lambda rng: randgen.random_boundary_symbol(rng, TRIAL_REACH),
        lambda rng: randgen.random_boundary_symbol(rng, TRIAL_REACH),
    ),
    "zero-product-bergman": (
        bergman, "zero_product_experiment_bergman",
        lambda rng: randgen.random_polar_symbol(rng, *TRIAL_BANDS, TRIAL_PROFILE_DEGREE),
        lambda rng: randgen.random_polar_symbol(
            rng, *TRIAL_BANDS, TRIAL_PROFILE_DEGREE, monomial_top=True
        ),
    ),
}


def _run_zero_product(cfg: LabConfig):
    module, name, draw_f, draw_g = _HARNESSES[cfg.experiment]
    probe = getattr(module, name)
    check, tol = cfg.experiment, TOLERANCE
    rng = randgen.Lcg(cfg.seed)
    # each trial draws f, then g
    pairs = [(draw_f(rng), draw_g(rng)) for _ in range(TRIALS)]
    rows, verdicts, ladders, norms = [], [], [], []
    for t, rep in enumerate(probe(pairs, cfg.window, cfg.R)):
        # np.max/np.min keep a NaN, which the built-in max/min would drop
        lad = np.max(rep.ladder_residuals)
        ladders.append(lad)
        norms.append(rep.min_product_column_norm)
        verdicts.append(rep.verdict)
        rows.append(
            report.residual_check(check, f"trial{t:02d}_max_ladder_residual", lad, tol)
        )
        rows.append(
            report.floor_check(
                check, f"trial{t:02d}_min_product_column_norm",
                rep.min_product_column_norm, hardy.ZERO_DIVISOR_FLOOR,
            )
        )
        rows.append(
            report.info_check(
                check, f"trial{t:02d}_min_relative_pivot", rep.min_relative_pivot
            )
        )
        rows.append(
            report.residual_check(
                check, f"trial{t:02d}_ladder_band_leak", rep.ladder_band_leak, 0.0
            )
        )
    rows.append(
        report.residual_check(check, "worst_ladder_residual", np.max(ladders), tol)
    )
    rows.append(
        report.floor_check(
            check, "smallest_product_column_norm", np.min(norms), hardy.ZERO_DIVISOR_FLOOR
        )
    )
    return rows, {}, {"verdicts": verdicts}


def _run_semicommutator(cfg: LabConfig):
    rng = randgen.Lcg(cfg.seed)
    phi = _resolve_boundary(
        cfg.symbol, cfg, lambda: randgen.random_boundary_symbol(rng, TRIAL_REACH)
    )
    psi = _resolve_boundary(
        cfg.symbol2, cfg, lambda: randgen.random_boundary_symbol(rng, TRIAL_REACH)
    )
    rows = []
    resid, margin = hardy.semicommutator_residual_annulus(phi, psi, cfg.window, cfg.R)
    rows.append(
        report.residual_check(
            "semicommutator", "annulus_interior_residual", resid, TOLERANCE
        )
    )
    rows.append(report.info_check("semicommutator", "annulus_margin", margin))
    phi_d = pullback_symbols(phi)[0]
    psi_d = pullback_symbols(psi)[0]
    size = cfg.window[1] - cfg.window[0] + 1
    resid_d, margin_d = reduction.semicommutator_residual_disc(phi_d, psi_d, size)
    rows.append(
        report.residual_check(
            "semicommutator", "disc_interior_residual", resid_d, TOLERANCE
        )
    )
    rows.append(report.info_check("semicommutator", "disc_margin", margin_d))
    return rows, {}, {}


_RUNNERS = {
    "gram": _run_gram,
    "toeplitz-build": _run_toeplitz_build,
    "hankel-decay": _run_hankel_decay,
    "identities": _run_identities,
    "mellin": _run_mellin,
    "zero-product-hardy": _run_zero_product,
    "zero-product-bergman": _run_zero_product,
    "semicommutator": _run_semicommutator,
}
EXPERIMENTS = tuple(_RUNNERS)


@dataclass
class ExperimentReport:
    config: dict
    rows: list
    files: list
    duration: float
    extra: dict


def run(cfg: LabConfig) -> ExperimentReport:
    """Execute the configured experiment, then write its artifacts.

    Nothing is written before the experiment returns, so a refused run
    (``ConfigError`` or one of ``DOMAIN_ERRORS``) creates no directory.
    """
    start = time.monotonic()
    rows, artifacts, extra = _RUNNERS[cfg.experiment](cfg)
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, write in artifacts.items():
        write(outdir / name)
    duration = time.monotonic() - start
    files = [*artifacts, "results.csv"]
    echo = asdict(cfg)
    echo["window"] = list(cfg.window)
    echo["sizes"] = list(cfg.sizes)
    report.write_results_csv(outdir / "results.csv", rows)
    report.write_report_json(outdir / "report.json", echo, rows, files, duration, extra)
    return ExperimentReport(echo, rows, files, duration, extra)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lab",
        description="finite-section experiments for annulus operator calculus",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", required=True, help="JSON configuration path")
    parser.add_argument("--out", default=None, help="output directory override")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args.experiment, args.out)
        result = run(cfg)
    except (ConfigError, *DOMAIN_ERRORS) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    for r in result.rows:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.check}/{r.name} value={r.value:.6g} tol={r.tolerance:.6g}")
    for key, val in result.extra.items():
        print(f"note {key}: {val}")
    return 0 if report.all_pass(result.rows) else 1


if __name__ == "__main__":
    sys.exit(main())
