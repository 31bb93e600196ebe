"""Tests of the benchmark itself: seeded generation, the expected-verdict
table and output gate, self-time arithmetic and the metric names.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import annulab  # noqa: E402
from annulab import bergman, cli, mellin, reduction, reference, symbols  # noqa: E402
from annulab.hardy import CONSISTENT  # noqa: E402
from annulab.reduction import DECAY_OBSERVED, NO_DECAY  # noqa: E402
from annulab.report import info_check, residual_check  # noqa: E402

import gate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _snapshot(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generation_is_deterministic_per_seed(tmp_path, workload):
    workloads.generate(workload, 5, tmp_path)
    first = _snapshot(tmp_path)
    workloads.generate(workload, 5, tmp_path)
    assert _snapshot(tmp_path) == first
    other = tmp_path / "other"
    workloads.generate(workload, 6, other)
    assert _snapshot(other) != first


def test_generated_configs_load(tmp_path):
    for workload in workloads.WORKLOADS:
        for run in workloads.generate(workload, 3, tmp_path / workload):
            cfg = cli.load_config(run.config, run.experiment, str(tmp_path / "out"))
            assert cfg.experiment == run.experiment


def test_pass_count_depends_only_on_workload_and_seconds():
    # a fixed count, never "as many as fit", keeps attempted/failed repeatable
    assert [workloads.pass_count(w, 25) for w in workloads.WORKLOADS] == [5, 14, 8]
    assert all(workloads.pass_count(w, 1) == workloads.MIN_PASSES for w in workloads.WORKLOADS)


def test_expected_verdict_table(tmp_path):
    decay = workloads.generate("decay-sweep", 4, tmp_path / "d")
    assert [(r.experiment, r.expect) for r in decay] == [
        ("hankel-decay", NO_DECAY), ("hankel-decay", DECAY_OBSERVED)
    ]
    assert "conjugated-singular-inner" in decay[0].config.read_text()
    zero = workloads.generate("zero-product", 7, tmp_path / "z")
    seeds = [json.loads(r.config.read_text())["seed"] for r in zero]
    assert seeds == [7, 8, 9, 7, 8, 9, 7]
    assert [r.expect for r in zero] == [CONSISTENT] * 6 + [None]
    oracle = workloads.generate("oracle-crosscheck", 4, tmp_path / "o")
    assert [r.expect for r in oracle] == [None] * 4


def _report(tmp_path, rows, extra):
    (tmp_path / "results.csv").write_text("x\n")
    return SimpleNamespace(rows=rows, extra=extra, files=["results.csv"])


def test_gate_counts_fail_rows_without_marking_outputs_wrong(tmp_path):
    run = workloads.Run("h", "zero-product-hardy", tmp_path / "c.json", CONSISTENT)
    ok = [residual_check("c", "r", 0.0, 1e-10)]
    good = _report(tmp_path, ok, {"verdicts": [CONSISTENT] * 2})
    outcome, first = gate.judge(run, good, tmp_path, None)
    assert not outcome.failed and set(first) == {"results.csv"}

    bad_row = _report(tmp_path, ok + [residual_check("c", "ladder", 0.8, 1e-10)],
                      {"verdicts": [CONSISTENT]})
    outcome, _ = gate.judge(run, bad_row, tmp_path, first)
    assert outcome.failed and not outcome.wrong

    bad_verdict = _report(tmp_path, ok, {"verdicts": [CONSISTENT, "Violation"]})
    outcome, _ = gate.judge(run, bad_verdict, tmp_path, first)
    assert outcome.failed and outcome.wrong

    changed = _report(tmp_path, [info_check("c", "n", 1.0)], {"verdicts": [CONSISTENT]})
    (tmp_path / "results.csv").write_text("y\n")
    outcome, _ = gate.judge(run, changed, tmp_path, first)
    assert outcome.failed and outcome.wrong

    for exc in (cli.ConfigError("bad field"), RuntimeError("boom")):
        outcome, _ = gate.judge(run, exc, tmp_path, first)
        assert outcome.failed and outcome.wrong


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        ["root", 0.0, 10.0, None],
        ["a", 1.0, 4.0, 0],
        ["b", 5.0, 9.0, 0],
        ["b1", 6.0, 7.0, 2],
        ["b2", 6.5, 8.0, 2],  # overlaps b1: the union 6..8 counts once
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 3.0, 2.0, 1.0, 1.5])
    totals = tracing.layer_totals(spans + [["a", 11.0, 12.0, None]])
    assert totals["a"] == {"calls": 2, "self_s": pytest.approx(4.0)}


def test_tracer_wraps_imported_names_and_restores_them():
    original = mellin.mellin_transform
    tracer = tracing.Tracer()
    tracer.install([annulab, bergman, mellin])
    try:
        assert bergman.mellin_transform is mellin.mellin_transform is not original
        np.linalg.svd(np.eye(3))
        bergman.mellin_transform(annulab.PolyProfile({0: 1.0}), 1.0, 0.5)
    finally:
        tracer.uninstall()
    assert bergman.mellin_transform is mellin.mellin_transform is original
    assert [s[0] for s in tracer.spans][:2] == ["linalg.svd", "mellin.mellin_transform"]
    assert tracer.counts["linalg.svd.n3"] == 27


def test_tracer_counts_reads_past_a_reference_table():
    tracer = tracing.Tracer()
    tracer.install([annulab, reduction, reference, symbols])
    try:
        phi = reference.reference_symbol("conjugated-singular-inner", 0.5)
        outer, _ = symbols.pullback_symbols(phi)
        reduction.build_disc_hankel(outer, 600)
        reduction.build_disc_hankel(symbols.ExactCircle({-3: 1.0}), 900)
    finally:
        tracer.uninstall()
    assert tracer.counts["reduction.build_disc_hankel.entries"] == 600**2 + 900**2
    assert tracer.counts["reference.table_reach"] == 1024
    assert tracer.counts["reference.max_index_read"] == 1199
    assert tracer.counts["reference.reads_past_table"] == 1199 - 1024


def test_benchmark_metric_names_resolve():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    modules = {m.rsplit(".", 1)[-1] for m in sys.modules if m.startswith("annulab.")}
    modules |= {"linalg", "bench", "trace", "import"}
    for metric in spec["per_layer"]:
        parts = metric["name"].split(".")
        assert parts[0] in modules, metric
        if len(parts) == 3:
            owner = np.linalg if parts[0] == "linalg" else sys.modules[f"annulab.{parts[0]}"]
            assert callable(getattr(owner, parts[1])), metric
        if parts[0] == "cli" and parts[1].endswith("_s") and parts[1] != "self_s":
            assert parts[1][: -len("_s")] in cli.EXPERIMENTS, metric
    assert {m["name"] for m in spec["end_to_end"]} >= {"setup_s", "wall_s"}
