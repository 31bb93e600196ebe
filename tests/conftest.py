from pathlib import Path

import pytest

from annulab.geometry import AnnulusGeometry


@pytest.fixture(scope="session")
def geo():
    return AnnulusGeometry()


@pytest.fixture(scope="session")
def small_geo():
    # big enough for bandwidth-10 symbols, cheap enough for per-test loops
    return AnnulusGeometry(m_circle=256)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # verdict lines recorded by the acceptance tests; emitted here so they
    # survive output capture in a plain `pytest -v` run
    lines = getattr(config, "_acceptance_lines", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


def read_decay_csv(path):
    """Inverse of ``report.write_decay_csv``: list of (size, [sigma blocks])
    in file order."""
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
