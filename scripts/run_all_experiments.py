#!/usr/bin/env python3
"""Run every experiment with its shipped config and summarize exit codes.

Each ``configs/<name>.json`` names its experiment in its ``experiment``
field; outputs land in ``<outdir>/<name>/``.  The script exits nonzero
if any run fails, mirroring the per-run exit contract.  The hankel-decay
config uses the conjugated singular inner reference on purpose: its
NoDecay verdict is a recorded result, not a failure.

After each run one ``sha256 <config>/<file> <hex>`` line is printed per
deterministic artifact it wrote (the benchmark gate's ``DETERMINISTIC``
files plus ``section.csv``), so byte identity between two checkouts is a
``diff`` of two runs' output.  One ``time <config> <seconds>`` line follows,
the run's ``duration_seconds`` from its ``report.json``; it is there to be
read, not compared.

With ``--against DIR``, DIR being the ``--outdir`` of an earlier run (of
another checkout, say), one ``moved <config> <check>/<name> <old> -> <new>``
line is printed per ``results.csv`` row whose bytes differ from DIR's, with
``<old>`` and ``<new>`` the row's ``value,tolerance,pass`` fields and
``absent`` for a row only one side has.  Rows are matched by
``check,name``.
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

from annulab.cli import main as lab_main

HERE = Path(__file__).resolve().parent
CONFIGS = HERE.parent / "configs"
sys.path.insert(0, str(HERE.parent))
from perfbench.gate import DETERMINISTIC  # noqa: E402

DIGESTED = DETERMINISTIC + ("section.csv",)


def _rows(path: Path) -> dict:
    """``results.csv`` rows keyed by ``check/name``; none for a missing file."""
    if not path.exists():
        return {}
    lines = path.read_text(encoding="ascii").splitlines()[1:]
    return {"/".join(line.split(",")[:2]): ",".join(line.split(",")[2:]) for line in lines}


def moved_rows(name: str, old_dir: Path, new_dir: Path) -> list[str]:
    """One ``moved`` line per ``results.csv`` row of config ``name`` that
    differs between two output trees, in the new file's row order."""
    old, new = _rows(old_dir / name / "results.csv"), _rows(new_dir / name / "results.csv")
    keys = list(new) + [k for k in old if k not in new]
    return [
        f"moved {name} {k} {old.get(k, 'absent')} -> {new.get(k, 'absent')}"
        for k in keys
        if old.get(k) != new.get(k)
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--outdir", default="lab-out", help="root output directory")
    parser.add_argument("--against", type=Path, metavar="DIR",
                        help="an earlier run's output directory to list moved rows against")
    args = parser.parse_args()

    configs = sorted(CONFIGS.glob("*.json"))
    failures = []
    for config in configs:
        name = config.stem
        experiment = json.loads(config.read_text(encoding="utf-8"))["experiment"]
        out = Path(args.outdir) / name
        print(f"== {name} -> {out}")
        code = lab_main([experiment, "--config", str(config), "--out", str(out)])
        if code != 0:
            failures.append((name, code))
        if (out / "report.json").exists():
            doc = json.loads((out / "report.json").read_text(encoding="utf-8"))
            for file in sorted(f for f in doc["files"] if f in DIGESTED):
                digest = hashlib.sha256((out / file).read_bytes()).hexdigest()
                print(f"sha256 {name}/{file} {digest}")
            print(f"time {name} {doc['duration_seconds']:.4f}")
        if args.against is not None:
            for line in moved_rows(name, args.against, Path(args.outdir)):
                print(line)
    if failures:
        for name, code in failures:
            print(f"FAILED {name} (exit {code})", file=sys.stderr)
        return 1
    print(f"all {len(configs)} runs passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
