"""Check rows and the deterministic CSV/JSON writers."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest
from conftest import read_decay_csv

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
