"""Check rows and the deterministic CSV/JSON writers."""

import importlib.util
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from conftest import read_decay_csv

from annulab import cli, reduction
from annulab.plotting import _B, _H, _L, _R, _T, _W, FLOOR, emit_plot
from annulab.reduction import DecayProfile
from annulab.report import (
    all_pass,
    floor_check,
    info_check,
    residual_check,
    write_decay_csv,
    write_report_json,
    write_results_csv,
    write_section_csv,
)


def test_residual_rows_pass_below_tolerance():
    assert residual_check("c", "r", 1e-12, 1e-10).passed
    assert not residual_check("c", "r", 1e-9, 1e-10).passed
    # the boundary itself passes
    assert residual_check("c", "r", 1e-10, 1e-10).passed


def test_floor_rows_pass_above_and_get_suffixed():
    row = floor_check("c", "min_norm", 0.5, 1e-6)
    assert row.name == "min_norm_floor"
    assert row.passed
    assert not floor_check("c", "min_norm_floor", 1e-9, 1e-6).passed


def test_info_rows_never_fail():
    row = info_check("c", "verdict_code", 2.0)
    assert row.passed
    assert row.tolerance == float("inf")


def test_all_pass():
    rows = [residual_check("c", "a", 0.0, 1.0), floor_check("c", "b", 2.0, 1.0)]
    assert all_pass(rows)
    rows.append(residual_check("c", "bad", 2.0, 1.0))
    assert not all_pass(rows)


def test_results_csv_format(tmp_path):
    path = tmp_path / "results.csv"
    write_results_csv(path, [residual_check("identity", "t1", 1.25e-13, 1e-12)])
    text = path.read_text()
    lines = text.split("\n")
    assert lines[0] == "check,name,value,tolerance,pass"
    assert lines[1] == "identity,t1,1.25e-13,9.9999999999999998e-13,true"
    assert text.endswith("\n") and "\r" not in text


def test_results_csv_has_the_bytes_of_the_per_row_form(tmp_path):
    """One % over the flat rows gives the bytes of formatting each row,
    also for NaN, both infinities, a negative zero and a subnormal; no
    rows give the header alone."""
    rows = [
        residual_check("c", "nan", np.nan, 1e-10),
        floor_check("c", "neg_zero", -0.0, 1e-6),
        info_check("c", "count", 20),
        residual_check("d", "tiny", 5e-324, -np.inf),
        residual_check("d", "third", 1 / 3, 0.1),
    ]
    want = ["check,name,value,tolerance,pass"] + [
        f"{r.check},{r.name},{'%.17g' % r.value},{'%.17g' % r.tolerance},"
        + ("true" if r.passed else "false")
        for r in rows
    ]
    path = tmp_path / "results.csv"
    write_results_csv(path, rows)
    assert path.read_bytes() == ("\n".join(want) + "\n").encode("ascii")
    assert b"c,neg_zero_floor,-0,9.9999999999999995e-07,false\n" in path.read_bytes()
    write_results_csv(path, [])
    assert path.read_bytes() == b"check,name,value,tolerance,pass\n"


def test_results_csv_seventeen_digit_round_trip(tmp_path):
    path = tmp_path / "results.csv"
    value = 0.1 + 0.2
    write_results_csv(path, [residual_check("c", "v", value, 1.0)])
    field = path.read_text().split("\n")[1].split(",")[2]
    assert float(field) == value


def test_decay_csv_round_trip(tmp_path):
    p1 = DecayProfile(pullback="C", sizes=[4, 8], epsilon=0.5)
    p2 = DecayProfile(pullback="C0", sizes=[4, 8], epsilon=0.5)
    p1.singular_values = {4: [2.0, 1.0, 0.25], 8: [2.5, 1.0]}
    p2.singular_values = {4: [0.5], 8: [0.125]}
    p1.tail_indices = {4: 2, 8: 2}
    p2.tail_indices = {4: 0, 8: 0}
    path = tmp_path / "decay.csv"
    write_decay_csv(path, [p1, p2])
    back = read_decay_csv(path)
    assert [s for s, _ in back] == [4, 8]
    assert back[0][1] == [[2.0, 1.0, 0.25], [0.5]]
    assert back[1][1] == [[2.5, 1.0], [0.125]]


def loop_decay_csv(profiles) -> bytes:
    """The per-row ``decay.csv`` writer that the bulk one replaced: the
    bit-for-bit reference."""
    lines = ["size,index,sigma"]
    for s in profiles[0].sizes:
        for p in profiles:
            for i, sig in enumerate(p.singular_values[s]):
                lines.append(f"{s},{i},{'%.17g' % sig}")
    return ("\n".join(lines) + "\n").encode("ascii")


def loop_marks(profile) -> list[str]:
    """The per-point marks of each size in the SVG, formatted one f-string
    per point as before the bulk format: a polyline's ``points``, or the
    ``cx``/``cy`` of a one-point size's circle."""
    sv = profile.singular_values
    xmax = max(max(len(sv[s]) for s in profile.sizes) - 1, 1)
    top = max(max(sv[s], default=FLOOR) for s in profile.sizes)
    ymax, ymin = math.ceil(math.log10(max(top, FLOOR))) + 1, math.log10(FLOOR)

    def xy(i, sig):
        x = _L + (_W - _L - _R) * i / xmax
        y = _T + (_H - _T - _B) * (ymax - math.log10(max(sig, FLOOR))) / (ymax - ymin)
        return x, y

    marks = []
    for s in profile.sizes:
        if len(sv[s]) == 1:
            x, y = xy(0, sv[s][0])
            marks.append(f'cx="{x:.2f}" cy="{y:.2f}"')
        else:
            marks.append(" ".join(f"{x:.2f},{y:.2f}" for x, y in
                                  (xy(i, sig) for i, sig in enumerate(sv[s]))))
    return marks


def svg_marks(path) -> list[str]:
    pattern = r'points="([^"]*)"|(cx="[^"]*" cy="[^"]*")'
    return [a or b for a, b in re.findall(pattern, Path(path).read_text())]


def assert_bulk_bytes(profiles, tmp_path):
    path = tmp_path / "decay.csv"
    write_decay_csv(path, profiles)
    assert path.read_bytes() == loop_decay_csv(profiles)
    for p in profiles:
        emit_plot(p, tmp_path / "decay.svg")
        assert svg_marks(tmp_path / "decay.svg") == loop_marks(p)


def test_decay_artifacts_have_the_bytes_of_the_per_row_form(tmp_path):
    """A one-point size draws a circle; an all-zero profile sits on the
    floor; sigmas span the 17-digit and the 2-decimal rounding cases."""
    p1 = DecayProfile(pullback="C", sizes=[1, 3, 5], epsilon=0.5)
    p2 = DecayProfile(pullback="C0", sizes=[1, 3, 5], epsilon=0.5)
    p1.singular_values = {
        1: [1 / 3], 3: [2.0, 0.1 + 0.2, 5e-324], 5: [1e300, 7.0, 1e-17, 0.0, 0.0]
    }
    p2.singular_values = {1: [0.0], 3: [0.0] * 3, 5: [0.0] * 5}
    assert_bulk_bytes([p1, p2], tmp_path)
    assert_bulk_bytes([p2, p1], tmp_path)


def test_decay_plot_formats_repeated_and_special_sigmas_as_the_per_point_form(tmp_path):
    """Each y string is formatted once per distinct sigma: repeated nonzero
    values, +0 beside -0 (one key, both on the floor), NaN (one object
    repeated and a second one), inf and a one-point size keep the per-point
    marks.  The NaN leads its list, so the plot's top is 2.0."""
    nan = float("nan")
    p1 = DecayProfile(pullback="C", sizes=[1, 4, 7], epsilon=0.5)
    p2 = DecayProfile(pullback="C0", sizes=[1, 3], epsilon=0.5)
    p1.singular_values = {
        1: [-0.0],
        4: [nan, math.inf, 0.25, nan],
        7: [2.0, 0.25, 0.25, 0.0, -0.0, float("nan"), 0.0],
    }
    p2.singular_values = {1: [0.25], 3: [0.25, -0.0, 0.25]}
    for p in (p2, p1):
        emit_plot(p, tmp_path / "decay.svg")
        assert svg_marks(tmp_path / "decay.svg") == loop_marks(p)
    points = svg_marks(tmp_path / "decay.svg")[1].split()
    assert points[0].endswith(",nan") and points[1].endswith(",-inf")


@pytest.mark.parametrize("config", ["hankel-decay.json", "hankel-decay-smooth.json"])
def test_shipped_decay_artifacts_have_the_bytes_of_the_per_row_form(
    tmp_path, monkeypatch, config
):
    indicator, swept = reduction.hankel_compactness_indicator, []

    def spy(phi, sizes):
        verdict, profiles = indicator(phi, sizes)
        swept.append(profiles)
        return verdict, profiles

    monkeypatch.setattr(reduction, "hankel_compactness_indicator", spy)
    shipped = Path(__file__).resolve().parents[1] / "configs" / config
    out = tmp_path / "out"
    assert cli.main(["hankel-decay", "--config", str(shipped), "--out", str(out)]) == 0
    (profiles,) = swept
    assert (out / "decay.csv").read_bytes() == loop_decay_csv(profiles)
    for name, p in zip(("decay.svg", "decay-inner.svg"), profiles):
        assert svg_marks(out / name) == loop_marks(p)


def test_decay_csv_rejects_foreign_tables(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        read_decay_csv(path)


def test_section_csv_carries_window_indices(tmp_path):
    ent = np.array([[1.0 + 2.0j, 0.0], [0.0, -1.0 + 0.0j]])
    path = tmp_path / "section.csv"
    write_section_csv(path, ent, -1)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "j,k,re,im"
    assert lines[1].startswith("-1,-1,1,2")
    assert lines[2].startswith("-1,0,0,0")
    assert lines[4].startswith("0,0,-1,")


def test_section_csv_has_the_bytes_of_the_per_entry_form(tmp_path):
    """Formatting Python complexes gives the bytes of formatting each
    numpy scalar, also for NaN, both infinities and a negative zero."""
    re = np.array([[np.nan, -0.0, 1 / 3], [np.inf, -np.inf, 5e-324], [0.1, -2.5, 1e300]])
    ent = np.empty((3, 3), dtype=complex)
    ent.real, ent.imag = re, re[::-1].T
    want = ["j,k,re,im"] + [
        f"{j - 4},{k - 4},{'%.17g' % ent[j, k].real},{'%.17g' % ent[j, k].imag}"
        for j in range(3)
        for k in range(3)
    ]
    path = tmp_path / "section.csv"
    write_section_csv(path, ent, -4)
    assert path.read_bytes() == ("\n".join(want) + "\n").encode("ascii")
    assert b"nan" in path.read_bytes() and b"-inf" in path.read_bytes()
    assert b",-0," in path.read_bytes()


def test_report_json_shape(tmp_path):
    path = tmp_path / "report.json"
    rows = [residual_check("c", "r", 0.0, 1.0)]
    write_report_json(
        path,
        {"R": 0.5, "seed": 1},
        rows,
        ["results.csv"],
        1.5,
        extra={"verdict": "NoDecay"},
    )
    doc = json.loads(path.read_text())
    assert set(doc) == {"checks", "config", "duration_seconds", "extra", "files"}
    assert doc["config"] == {"R": 0.5, "seed": 1}
    assert doc["checks"][0]["pass"] is True
    assert doc["extra"] == {"verdict": "NoDecay"}
    # keys are emitted sorted so reruns diff cleanly
    text = path.read_text()
    assert text.index('"checks"') < text.index('"config"') < text.index('"files"')


def test_report_json_rejects_unknown_objects(tmp_path):
    with pytest.raises(TypeError):
        write_report_json(
            tmp_path / "r.json", {}, [], [], 0.0, extra={"bad": object()}
        )


def test_report_json_keeps_the_indented_content(tmp_path, monkeypatch):
    """report.json is one sorted line from json's C encoder; a
    zero-product-hardy report parses to what its indent=1 text held."""
    from annulab import cli

    dumps, indented = json.dumps, []

    def spy(doc, **kwargs):
        if isinstance(doc, dict) and "checks" in doc:
            indented.append(dumps(doc, indent=1, sort_keys=True))
        return dumps(doc, **kwargs)

    monkeypatch.setattr(json, "dumps", spy)
    config = tmp_path / "cfg.json"
    config.write_text(dumps({"R": 0.5, "seed": 1}))
    out = tmp_path / "out"
    assert cli.main(["zero-product-hardy", "--config", str(config), "--out", str(out)]) == 0
    text = (out / "report.json").read_text(encoding="ascii")
    assert len(indented) == 1
    assert json.loads(text) == json.loads(indented[0])
    assert text == dumps(json.loads(text), sort_keys=True) + "\n"


def test_moved_rows_lists_each_row_whose_bytes_differ(tmp_path):
    """``run_all_experiments.py --against`` matches rows by check and name
    and prints one line per changed, added or removed row."""
    spec = importlib.util.spec_from_file_location(
        "run_all_experiments", Path(__file__).resolve().parents[1] / "scripts/run_all_experiments.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    old, new = tmp_path / "old", tmp_path / "new"
    for root, rows in (
        (old, [residual_check("c", "same", 1e-16, 1e-10), residual_check("c", "moves", 0.1, 1e-10),
               residual_check("c", "gone", 0.0, 1.0)]),
        (new, [residual_check("c", "same", 1e-16, 1e-10), residual_check("c", "moves", 0.3, 1e-10),
               residual_check("c", "added", 0.0, 1.0)]),
    ):
        (root / "cfg").mkdir(parents=True)
        write_results_csv(root / "cfg" / "results.csv", rows)
    assert script.moved_rows("cfg", old, new) == [
        "moved cfg c/moves 0.10000000000000001,1e-10,false -> 0.29999999999999999,1e-10,false",
        "moved cfg c/added absent -> 0,1,true",
        "moved cfg c/gone 0,1,true -> absent",
    ]
    assert script.moved_rows("cfg", old, old) == []
    assert script.moved_rows("other", old, new) == []
