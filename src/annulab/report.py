"""Check bookkeeping and deterministic CSV/JSON emission.

Every numeric comparison an experiment makes becomes a check row; rows
are written with 17 significant digits and newline-only line endings so
repeated runs of one configuration produce byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

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


def _fmt(x: float) -> str:
    return "%.17g" % x


def write_results_csv(path, rows: list[CheckRow]) -> None:
    lines = ["check,name,value,tolerance,pass"]
    for r in rows:
        lines.append(
            f"{r.check},{r.name},{_fmt(r.value)},{_fmt(r.tolerance)},"
            + ("true" if r.passed else "false")
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def write_decay_csv(path, profiles) -> None:
    """Rows ``size,index,sigma``; per size the outer-circle block comes
    first and the index restarting at zero marks the next pullback."""
    lines = ["size,index,sigma"]
    sizes = profiles[0].sizes
    for s in sizes:
        for p in profiles:
            for i, sig in enumerate(p.singular_values[s]):
                lines.append(f"{s},{i},{_fmt(sig)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def read_decay_csv(path):
    """Inverse of the writer: list of (size, [sigma blocks]) in file order."""
    lines = Path(path).read_text(encoding="ascii").strip().split("\n")
    if lines[0] != "size,index,sigma":
        raise ValueError("not a decay table")
    out: dict[int, list[list[float]]] = {}
    order: list[int] = []
    for line in lines[1:]:
        s_str, i_str, sig_str = line.split(",")
        s, i, sig = int(s_str), int(i_str), float(sig_str)
        if s not in out:
            out[s] = []
            order.append(s)
        if i == 0:
            out[s].append([])
        out[s][-1].append(sig)
    return [(s, out[s]) for s in order]


def write_section_csv(path, entries, lo: int) -> None:
    """Dump of a square section over the window starting at ``lo``, with
    header ``j,k,re,im`` and the window indices in the first two columns."""
    # Python complexes format with the bits of numpy's scalars, at a
    # fraction of the cost of reading one numpy scalar per entry
    n = entries.shape[1]
    lines = ["j,k,re,im"] + [
        f"{lo + i // n},{lo + i % n},{_fmt(v.real)},{_fmt(v.imag)}"
        for i, v in enumerate(entries.ravel().tolist())
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


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
