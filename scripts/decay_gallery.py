#!/usr/bin/env python3
"""Sweep the built-in reference symbols through the decay indicator.

For each symbol the script prints the verdict with the per-size tail
counts and writes decay CSV/SVG files, giving a quick visual of which
singular-value profiles flatten out and which keep a growing cluster.
"""

import argparse
import sys
from pathlib import Path

from annulab.plotting import emit_plot
from annulab.reduction import hankel_compactness_indicator
from annulab.reference import reference_symbol
from annulab.report import write_decay_csv

NAMES = ("analytic-square", "split-sign", "smooth-decay", "conjugated-singular-inner")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--radius", type=float, default=0.5, help="inner radius R")
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=[64, 128, 256, 512],
        help="section sizes for the sweep",
    )
    parser.add_argument("--outdir", default="decay-gallery", help="output directory")
    args = parser.parse_args(argv)

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name in NAMES:
        # the largest section reads down to index -(2 max(sizes) - 1)
        sym = reference_symbol(name, args.radius, 2 * max(args.sizes))
        verdict, profiles = hankel_compactness_indicator(sym, args.sizes)
        tails = {p.pullback: [p.tail_indices[s] for s in p.sizes] for p in profiles}
        print(f"{name:28s} {verdict:14s} tails C={tails['C']} C0={tails['C0']}")
        write_decay_csv(outdir / f"{name}.csv", profiles)
        emit_plot(profiles[0], outdir / f"{name}.svg")
        emit_plot(profiles[1], outdir / f"{name}-inner.svg")
    print(f"wrote CSV/SVG files to {outdir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
