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
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import bergman, geometry, hardy, mellin, randgen, reduction, reference, report
from .errors import AliasingError, FloatRangeError, IllConditionedError, WindowTooSmallError
from .plotting import emit_plot
from .symbols import (
    MAX_INDEX,
    ExactSymbol,
    PolarSymbol,
    PolyProfile,
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
#: section size of the identities experiment's split relations
SPLIT_SIZE = 10


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


#: per ``LabConfig`` field a config may set (``out`` is ``--out``'s alone):
#: accepted JSON types (``bool`` never counts as a number), range check and
#: conversion to the stored value (None: none)
_FIELDS = {
    "R": ((int, float), lambda x: 0.0 < x < 1.0, float),
    "window": (list, lambda w: len(w) == 2, _window),
    "m_circle": (int, lambda x: x >= 8, None),
    "seed": (int, lambda x: x >= 0, None),
    "experiment": (str, None, None),
    "symbol": (str, None, None),
    "symbol2": (str, None, None),
    "sizes": (list, lambda s: len(s) >= 1, _sizes),
}


#: the memory rule (:func:`_reads`), per experiment: the symbol fields it
#: reads, then its phases ``(a, b, c)``, each holding ``m (a n + b) + c n k``
#: bytes at ``m = m_circle`` over the ``n`` degrees the run reads: the window
#: width, ``2W + 1`` in gram (both families over the half-window ``W``).  A
#: section holds ``k`` entries per degree: ``n`` for a square one, the
#: ``2 min(r + s, n - 1) + 1`` diagonals of the product band in
#: semicommutator (symbol reaches ``r`` and ``s``), and hankel-decay
#: decomposes its live corner, ``n = k = min(max(sizes), reach)``, besides
#: ``_DECAY_VALUE_BYTES`` per singular value it keeps (a corner that
#: :func:`annulab.reduction.hankel_singular_values` sketches takes ``O(48 n)``
#: bytes, but one whose sketch fails is copied whole).  A grid row of
#: complex samples is ``16 m`` bytes, a complex section ``16 n^2``.
_PEAKS = {
    "gram": ((), ((42, 2842, 0), (0, 0, 221))),
    "toeplitz-build": (("symbol",), ((191, 471, 122),)),
    "hankel-decay": (("symbol",), ((0, 0, 26),)),
    "identities": (("symbol",), ((0, 1218, 0),)),
    "mellin": ((), ()),
    "zero-product-hardy": (("symbol", "symbol2"), ((0, 0, 240),)),
    "zero-product-bergman": (("symbol", "symbol2"), ((0, 0, 240),)),
    "semicommutator": (("symbol", "symbol2"), ((0, 0, 111),)),
}
_DECAY_VALUE_BYTES = 384


def parse_config(doc: dict, experiment: str, out_override: str | None) -> LabConfig:
    for key in doc:
        if key not in _FIELDS:
            raise ConfigError(f"unknown config field '{key}'")
    # an unset symbol is the seeded draw (_resolve_boundary), save for the
    # decay sweep's calibration table
    cfg = LabConfig(experiment=experiment,
                    symbol="builtin:smooth-decay" if experiment == "hankel-decay" else None)
    for key, (kinds, in_range, convert) in _FIELDS.items():
        if key not in doc:
            continue
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
    windowed section.  ``bytes`` bounds the run's resident set, measured
    rather than derived: the largest phase of ``_PEAKS`` (times the trials
    a probe stacks at ``n^2`` bytes each), plus 22 bytes per byte of
    each symbol file the run reads, its size taken before any table is
    built; ``field`` names the largest of these parts.  Each coefficient
    makes the count at least 1.15 times the larger of the tracemalloc peak
    and the growth of a fresh process's peak resident set (VmHWM, after
    ``parse_config`` against after ``run``) on every shape of this grid that
    holds 16 MiB or more (below that, about 3 MiB of first-use growth weighs
    most: a mellin run grows the resident set by 3.3 MiB).  ``m`` nodes, half-window
    ``W``, symbol reach ``r``, each symbol drawn in memory or read from a
    file in ``write_symbol``'s layout or the densest one:

    - gram: ``W`` from 8 to 700 on 512 to 65536 nodes;
    - toeplitz-build: widths 5 to 1601 on 1024 to 65536 nodes, ``r`` 4 and
      up to ``min(m/2 - 1, m - width)``, bands that fill the section among
      them;
    - identities: 4096 to 131072 nodes, ``r`` up to ``m/2 - 20``;
    - hankel-decay: sizes 512 to 2048, built-in tables and a complex one of
      full reach; ``builtin:smooth-decay`` at sizes ``[4, 60000]`` and
      ``[4, 120000]``, where its values weigh most (332 and 327 bytes each
      by VmHWM);
    - semicommutator: widths 201 to 801, both reaches up to a quarter of
      the width, or a constant beside a reach of half of it (0.42 to 0.57
      of the count by VmHWM), and the drawn reach-4 pair at +-8192 and
      +-16384, where the count is least (0.86 by VmHWM, 0.81 traced);
    - the probes: 15 sections per stack.  A file pair whose reaches ``r``
      and ``s`` (in Bergman, bands ``-r..r`` and ``-s..s`` of cubic
      profiles) add up to half of a width from 321 to 1201, with ``r``
      from 0 to 16 or equal to ``s``, weighs most when one reach is 4 to 16:
      it grew the resident set by 13 sections at width 321 (0.85 of the
      count), 11.4 at 1201 (0.75), 0.68 of the count or less traced.  A
      lone drawn trial's full-width ladder at side 801 grew it by 9.6
      sections in Hardy, 9.8 in Bergman, and a chunk of drawn trials
      whose ladders read fewer columns (windows +-32 to +-300) peaks at
      0.5 of the count or less;
    - a symbol file: ``read_symbol`` peaks at 19 bytes per byte of the
      densest layout it takes (``[n,0,0]`` rows, no whitespace), 4.1 of
      ``write_symbol``'s."""
    (lo, hi), exp, m = cfg.window, cfg.experiment, cfg.m_circle
    n = {"gram": 2 * max(-lo, hi) + 1, "hankel-decay": max(cfg.sizes)}.get(exp, hi - lo + 1)
    length = {"hankel-decay": 2 * n, "identities": 2 * DIAGRAM_SIZE}.get(exp, hi - lo + 1)
    names, phases = _PEAKS[exp]
    k, extra = n, 0
    if exp == "hankel-decay":
        reach = _reach(cfg, "symbol")
        n = k = n if reach is None else min(n, reach)
        extra = _DECAY_VALUE_BYTES * sum(cfg.sizes)
    elif exp == "semicommutator":
        r, s = (_reach(cfg, name) for name in names)
        k = 2 * (n - 1 if r is None or s is None else min(r + s, n - 1)) + 1
    rows, secs = max(((m * (a * n + b), c * n * k) for a, b, c in phases), key=sum, default=(0, 0))
    if exp in _HARNESSES:  # a trial's ladder may read every column
        secs *= min(TRIALS, max(1, hardy._STACK_BYTES // (16 * n**2)))
    parts = {"m_circle": rows, "sizes" if exp == "hankel-decay" else "window": secs + extra}
    parts |= {name: 22 * _file_bytes(getattr(cfg, name)) for name in names}
    return length, max(parts, key=parts.get), sum(parts.values())


def _reach(cfg: LabConfig, name: str) -> int | None:
    """The bandwidth of the symbol field ``name`` where it is known before
    any table is read: ``TRIAL_REACH`` (the seeded draw's) when the field is
    unset, a fixed built-in table's.  ``None`` for a symbol file or a table
    truncated to the run's reads, which may reach as far as the run reads."""
    ref = getattr(cfg, name)
    if ref is None:
        return TRIAL_REACH
    key = ref.removeprefix("builtin:")
    if key == ref or key in reference.TRUNCATED:
        return None
    try:
        return reference.reference_symbol(key, cfg.R).bandwidth()
    except KeyError:  # _resolve_boundary refuses the name
        return None


def _file_bytes(path) -> int:
    try:
        return os.stat(path).st_size
    except (OSError, TypeError, ValueError):  # no file: _resolve_boundary refuses it
        return 0


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


def _resolve_boundary(ref: str | None, cfg: LabConfig, rng, kind=ExactSymbol):
    """The symbol the field value ``ref`` names, of the ``kind`` the
    experiment reads: when unset, the next reach-``TRIAL_REACH`` draw of the
    run's generator ``rng``; else a ``builtin:`` table (a two-circle symbol)
    or a symbol file written for the config's R."""
    if ref is None:
        return randgen.random_boundary_symbol(rng, TRIAL_REACH)
    if ref.startswith("builtin:"):
        try:
            sym = reference.reference_symbol(ref[len("builtin:"):], cfg.R, _reads(cfg)[0])
        except KeyError as exc:
            raise ConfigError(str(exc.args[0])) from exc
    else:
        try:
            sym, R_file = read_symbol(ref)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"symbol file {ref!r}: {type(exc).__name__}: {exc}") from exc
        if not abs(R_file - cfg.R) <= 1e-12:  # a NaN radius matches nothing
            raise ConfigError(
                f"symbol file {ref!r} was written for R={R_file}, config has R={cfg.R}"
            )
    if not isinstance(sym, kind):
        raise ConfigError(f"symbol {ref!r} holds {type(sym).__name__}, but "
                          f"{cfg.experiment} reads {kind.__name__}")
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
    sym = _resolve_boundary(cfg.symbol, cfg, rng)
    sec = hardy.dense(hardy.build_toeplitz_hardy(sym, cfg.window, cfg.R))
    hankel = hardy.dense(hardy.build_hankel_annulus(sym, cfg.window, cfg.R))
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
    sym = _resolve_boundary(cfg.symbol, cfg, None)
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
    extra = {
        "verdict": verdict,
        "verdict_basis": reduction.decay_basis(profiles),
        "decay_route": {p.pullback: {str(s): p.routes[s] for s in p.sizes} for p in profiles},
    }
    if cfg.symbol in [f"builtin:{name}" for name in reference.TRUNCATED]:
        # the certificate sums the table the run reads, not the infinite one
        extra["l1_tail_table"] = (
            f"truncated to {_reads(cfg)[0]} coefficients; "
            "l1_tail_k bounds the sections of the truncation only"
        )
    return rows, artifacts, extra


def _run_identities(cfg: LabConfig):
    geo = cfg.geometry()
    phi = _resolve_boundary(cfg.symbol, cfg, randgen.Lcg(cfg.seed))
    size = DIAGRAM_SIZE
    U0, P0 = reduction.assemble_transfer_unitaries(size, geo)
    rows = [
        report.residual_check(
            "identities", "diagram_residual",
            reduction.diagram_residual(phi, geo, U0, P0), TOLERANCE,
        )
    ]
    r1, r2 = reduction.split_relation_residual(phi, SPLIT_SIZE, geo)
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
    rows = [report.residual_check("mellin", "closed_form_vs_quadrature", worst, TOLERANCE)]
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
#: the kind of symbol it reads, then the seeded draws of ``f`` and ``g``
_HARNESSES = {
    "zero-product-hardy": (
        hardy, "zero_product_experiment_hardy", ExactSymbol,
        lambda rng: randgen.random_boundary_symbol(rng, TRIAL_REACH),
        lambda rng: randgen.random_boundary_symbol(rng, TRIAL_REACH),
    ),
    "zero-product-bergman": (
        bergman, "zero_product_experiment_bergman", PolarSymbol,
        lambda rng: randgen.random_polar_symbol(rng, *TRIAL_BANDS, TRIAL_PROFILE_DEGREE),
        lambda rng: randgen.random_polar_symbol(
            rng, *TRIAL_BANDS, TRIAL_PROFILE_DEGREE, monomial_top=True
        ),
    ),
}


def _run_zero_product(cfg: LabConfig):
    module, name, kind, draw_f, draw_g = _HARNESSES[cfg.experiment]
    probe = getattr(module, name)
    check, tol = cfg.experiment, TOLERANCE
    refs = (cfg.symbol, cfg.symbol2)
    if refs.count(None) == 1:
        raise ConfigError(f"{check} reads config fields 'symbol' as f and 'symbol2' as g: "
                          "set both or neither")
    rng = randgen.Lcg(cfg.seed)
    # a file pair is one trial; without one, each of the trials draws f, then g
    pairs = ([(draw_f(rng), draw_g(rng)) for _ in range(TRIALS)] if refs[0] is None
             else [tuple(_resolve_boundary(ref, cfg, None, kind) for ref in refs)])
    rows, verdicts, ladders, norms = [], [], [], []

    def ladder_row(name, value, tol):
        # a zero factor has no ladder, and a row with none behind it (None)
        # is an info row
        if value is None:
            return report.info_check(check, name, np.nan)
        return report.residual_check(check, name, value, tol)

    for t, rep in enumerate(probe(pairs, cfg.window, cfg.R)):
        lad = leak = None
        if rep.ladder_residuals:
            # np.max/np.min keep a NaN, which the built-in max/min would drop
            lad, leak = np.max(rep.ladder_residuals), rep.ladder_band_leak
            ladders.append(lad)
        norms.append(rep.min_product_column_norm)
        verdicts.append(rep.verdict)
        rows.append(ladder_row(f"trial{t:02d}_max_ladder_residual", lad, tol))
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
        rows.append(ladder_row(f"trial{t:02d}_ladder_band_leak", leak, 0.0))
    rows.append(ladder_row("worst_ladder_residual", np.max(ladders) if ladders else None, tol))
    rows.append(
        report.floor_check(
            check, "smallest_product_column_norm", np.min(norms), hardy.ZERO_DIVISOR_FLOOR
        )
    )
    return rows, {}, {"verdicts": verdicts}


def _run_semicommutator(cfg: LabConfig):
    rng = randgen.Lcg(cfg.seed)
    phi = _resolve_boundary(cfg.symbol, cfg, rng)
    psi = _resolve_boundary(cfg.symbol2, cfg, rng)
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
    parser.add_argument("--out", default=None, help="output directory (default: lab-out)")
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
