"""Output gate: decides whether one ``lab`` run of a pass failed.

A run fails when its exit code (by the CLI's 0/1/2 rule) is not 0, when a
check row FAILs, when a verdict differs from the expected one, when it
raises, or when a deterministic artifact's bytes differ from the first
pass.  A run that only FAILs a check row is the program reporting a
failure through its exit contract: it counts as failed, but its outputs
are not wrong.  Every other reason also marks the outputs as wrong.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

from annulab.cli import ConfigError

#: artifacts the README's determinism contract covers
DETERMINISTIC = ("results.csv", "decay.csv", "decay.svg", "decay-inner.svg")


@dataclass
class Outcome:
    failed: bool = False
    wrong: bool = False
    reasons: list[str] = field(default_factory=list)

    def fail(self, reason: str, wrong: bool = True) -> None:
        self.failed = True
        self.wrong = self.wrong or wrong
        self.reasons.append(reason)


def digests(outdir: Path, files) -> dict[str, str]:
    return {
        name: hashlib.sha256((outdir / name).read_bytes()).hexdigest()
        for name in files if name in DETERMINISTIC
    }


def verdicts(extra: dict) -> list[str]:
    if "verdict" in extra:
        return [extra["verdict"]]
    return list(extra.get("verdicts", []))


def judge(run, result, outdir: Path, first: dict[str, str] | None) -> tuple[Outcome, dict]:
    """Gate one run.  ``result`` is the ExperimentReport or the exception it
    raised; ``first`` holds the digests of the first pass (``None`` on it).
    Returns the outcome and this pass's digests."""
    out = Outcome()
    if isinstance(result, ConfigError):
        out.fail(f"exit 2: {result}")
        return out, {}
    if isinstance(result, Exception):
        out.fail(f"raised {result!r}")
        return out, {}
    failing = [r.name for r in result.rows if not r.passed]
    if failing:
        out.fail(f"exit 1: FAIL {', '.join(failing)}", wrong=False)
    if not result.rows:
        out.fail("no check rows")
    if run.expect is not None:
        got = verdicts(result.extra)
        if not got or any(v != run.expect for v in got):
            out.fail(f"verdict {got} != expected {run.expect}")
    seen = digests(outdir, result.files)
    if first is not None and seen != first:
        changed = sorted(k for k in set(seen) | set(first) if seen.get(k) != first.get(k))
        out.fail(f"bytes differ from first pass: {', '.join(changed)}")
    return out, seen
