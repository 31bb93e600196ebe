"""Check bookkeeping and deterministic CSV/JSON emission.

Every numeric comparison an experiment makes becomes a check row; rows
are written with 17 significant digits and newline-only line endings so
repeated runs of one configuration produce byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: check rows whose name ends with this suffix pass by exceeding the
#: tolerance (floors) instead of staying below it (residuals)
FLOOR_SUFFIX = "_floor"


@dataclass
class CheckRow:
    check: str
    name: str
    value: float
    tolerance: float
    passed: bool


def residual_check(check: str, name: str, value: float, tolerance: float) -> CheckRow:
    return CheckRow(check, name, float(value), float(tolerance), float(value) <= tolerance)


def floor_check(check: str, name: str, value: float, floor: float) -> CheckRow:
    """A lower-bound row; the name gains the floor suffix automatically."""
    if not name.endswith(FLOOR_SUFFIX):
        name = name + FLOOR_SUFFIX
    return CheckRow(check, name, float(value), float(floor), float(value) >= floor)


def info_check(check: str, name: str, value: float) -> CheckRow:
    """A recorded quantity that cannot fail (verdicts, counts)."""
    return CheckRow(check, name, float(value), float("inf"), True)


def write_results_csv(path, rows: list[CheckRow]) -> None:
    # one % over a flat tuple, as in write_decay_csv
    flat = []
    for r in rows:
        flat += (r.check, r.name, r.value, r.tolerance, "true" if r.passed else "false")
    body = ("%s,%s,%.17g,%.17g,%s\n" * len(rows)) % tuple(flat)
    Path(path).write_text("check,name,value,tolerance,pass\n" + body, encoding="ascii")


def write_decay_csv(path, profiles) -> None:
    """Rows ``size,index,sigma``; per size the outer-circle block comes
    first and the index restarting at zero marks the next pullback."""
    # one % over a flat tuple, as in write_section_csv
    flat = []
    for s in profiles[0].sizes:
        for p in profiles:
            for i, sig in enumerate(p.singular_values[s]):
                flat += (s, i, sig)
    body = ("%d,%d,%.17g\n" * (len(flat) // 3)) % tuple(flat)
    Path(path).write_text("size,index,sigma\n" + body, encoding="ascii")


def write_section_csv(path, entries, lo: int) -> None:
    """Dump of a square section over the window starting at ``lo``, with
    header ``j,k,re,im`` and the window indices in the first two columns."""
    # one % over a flat tuple of Python floats: they format with the bits
    # of numpy's scalars, and %d prints the integral floats of the indices
    n, size = entries.shape[1], entries.size
    table = np.empty((size, 4))
    table[:, 0], table[:, 1] = np.divmod(np.arange(size), n)
    table[:, :2] += lo
    table[:, 2], table[:, 3] = entries.real.ravel(), entries.imag.ravel()
    body = ("%d,%d,%.17g,%.17g\n" * size) % tuple(table.ravel().tolist())
    Path(path).write_text("j,k,re,im\n" + body, encoding="ascii")


def write_report_json(path, config: dict, rows: list[CheckRow], files: list[str],
                      duration: float, extra: dict | None = None) -> None:
    doc = {
        "config": config,
        "checks": [
            {
                "check": r.check,
                "name": r.name,
                "value": r.value,
                "tolerance": r.tolerance,
                "pass": r.passed,
            }
            for r in rows
        ],
        "files": sorted(files),
        "duration_seconds": duration,
    }
    if extra:
        doc["extra"] = extra
    Path(path).write_text(
        # no indent: with one, json falls back to its pure-Python encoder
        json.dumps(doc, sort_keys=True) + "\n",
        encoding="ascii",
    )


def all_pass(rows: list[CheckRow]) -> bool:
    return all(r.passed for r in rows)
