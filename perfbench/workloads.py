"""Seeded inputs for the benchmark workloads.

Every config and symbol file a workload feeds to ``lab`` is generated here
from the one workload seed, through ``randgen.Lcg`` and
``symbols.write_symbol``, so a held-out seed needs no other change.  Each
run carries the verdict the paper's calculus predicts for it; the output
gate in ``gate.py`` compares against that table.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from annulab import randgen, symbols
from annulab.hardy import CONSISTENT
from annulab.reduction import DECAY_OBSERVED, NO_DECAY
from annulab.symbols import ExactSymbol

#: decay-sweep: disc Hankel assembly and LAPACK SVD, quadrature idle;
#: oracle-crosscheck: the loop-based quadrature oracles, closed form small;
#: zero-product: closed-form sections, scalar Mellin moments, small lstsq
WORKLOADS = ("decay-sweep", "oracle-crosscheck", "zero-product")
#: typical seconds of one untraced pass on a 2-vCPU host, one BLAS thread;
#: a run measures a fixed number of passes sized from these, never "as
#: many as fit", so that the attempted and failed counts repeat exactly
#: for one seed
PASS_SECONDS = {"decay-sweep": 6.5, "oracle-crosscheck": 1.8, "zero-product": 3.2}
#: a run's fastest-of-n needs n samples of every run, also on the slowest workload
MIN_PASSES = 5

DECAY_SIZES = [128, 256, 512, 1024]
#: reach and geometric ratio of the seeded smooth file symbol
SMOOTH_REACH = 48
SMOOTH_RATIO = 0.8
#: band reach of the seeded identities symbols
IDENTITY_REACH = 4
#: harness seeds run per zero-product pass: s, s+1, s+2
HARNESS_SEEDS = 3


@dataclass(frozen=True)
class Run:
    """One ``lab`` experiment of a pass: its generated config and the
    verdict it must produce (``None`` when the experiment has none)."""

    label: str
    experiment: str
    config: Path
    expect: str | None = None


def smooth_symbol(rng: randgen.Lcg) -> ExactSymbol:
    """LCG coefficients on both circles damped by ``SMOOTH_RATIO**|n|``."""
    raw = randgen.random_boundary_symbol(rng, SMOOTH_REACH)

    def damp(table):
        return {n: c * SMOOTH_RATIO ** abs(n) for n, c in table.items()}

    return ExactSymbol(damp(raw.coeffs_C), damp(raw.coeffs_C0))


def _plan(workload: str, seed: int, rng: randgen.Lcg, inputs: Path):
    """Yield ``(label, experiment, config doc, expected verdict)``."""
    if workload == "decay-sweep":
        yield ("hankel-decay/singular-inner", "hankel-decay",
               {"R": 0.5, "seed": seed, "sizes": DECAY_SIZES,
                "symbol": "builtin:conjugated-singular-inner"}, NO_DECAY)
        path = inputs / "smooth.json"
        symbols.write_symbol(path, smooth_symbol(rng), 0.5)
        yield ("hankel-decay/smooth", "hankel-decay",
               {"R": 0.5, "seed": seed, "sizes": DECAY_SIZES, "symbol": str(path)},
               DECAY_OBSERVED)
    elif workload == "oracle-crosscheck":
        yield ("gram", "gram",
               {"R": 0.5, "seed": seed, "window": [-256, 256], "m_circle": 2048}, None)
        yield ("toeplitz-build", "toeplitz-build",
               {"R": 0.5, "seed": seed, "window": [-64, 64], "m_circle": 4096}, None)
        paths = []
        for name in ("symbol", "symbol2"):
            path = inputs / f"{name}.json"
            symbols.write_symbol(
                path, randgen.random_boundary_symbol(rng, IDENTITY_REACH), 0.5
            )
            paths.append(str(path))
        yield ("identities", "identities",
               {"R": 0.5, "seed": seed, "m_circle": 16384,
                "symbol": paths[0], "symbol2": paths[1]}, None)
        yield ("mellin", "mellin", {"R": 0.1, "seed": seed}, None)
    elif workload == "zero-product":
        for exp, half in (("zero-product-hardy", 48), ("zero-product-bergman", 24)):
            for s in range(seed, seed + HARNESS_SEEDS):
                yield (f"{exp}/seed{s}", exp,
                       {"R": 0.5, "seed": s, "window": [-half, half]}, CONSISTENT)
        yield ("semicommutator", "semicommutator",
               {"R": 0.5, "seed": seed, "window": [-128, 128]}, None)
    else:
        raise ValueError(f"unknown workload {workload!r}")


def pass_count(workload: str, seconds: float) -> int:
    """Passes one run measures: about ``seconds`` of work, at least five."""
    return max(MIN_PASSES, round(seconds / PASS_SECONDS[workload]))


def generate(workload: str, seed: int, inputs: Path) -> list[Run]:
    """Write the workload's configs and symbol files under ``inputs``."""
    inputs.mkdir(parents=True, exist_ok=True)
    rng = randgen.Lcg(seed)
    runs = []
    for i, (label, exp, doc, expect) in enumerate(_plan(workload, seed, rng, inputs)):
        path = inputs / f"{i:02d}-{exp}.json"
        doc = {"experiment": exp, **doc}
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="ascii")
        runs.append(Run(label, exp, path, expect))
    return runs
