"""Benchmark of the ``lab`` experiments, end to end and layer by layer.

    python3 perfbench/run.py --workload decay-sweep --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository; the program is imported from
``src/``.  The load is a closed loop with one client: a single process
runs the workload's experiments one after another, in-process through
``annulab.cli.load_config`` and ``annulab.cli.run``.  One pass is one run
of each experiment of the workload.  After one warm-up pass, a run
measures a fixed number of passes, sized by ``workloads.pass_count`` to
take about ``--seconds``, so its attempted and failed counts repeat for
one seed.

``wall_s`` and ``cpu_s`` are given at a reference host speed.  On a
shared 2-vCPU cloud host the vCPUs' speed swung by up to half, at times
for a minute on end, which moved the median pass by 17-30% between runs
of one seed.  So before and after every run of an untraced pass the
benchmark times ``host_probe``, a fixed computation that shares no code
with annulab, and scales the run's time by ``PROBE_REF_S`` over the two
probes' mean time.  Per run the median of the scaled times over the
passes is taken, and the medians are summed over the workload's runs.
Over ten seeds on that host this spread by 3-10% (IQR over median) where
the raw median pass spread by 6-17%.  The raw pass times (median, sample
count, slowest) are printed too.  OpenBLAS is held to one thread: with two on
that host, any second busy process made BLAS calls many times slower.

With ``--trace 0`` the passes run untraced and the last line reports the
end-to-end metrics of BENCHMARK.json.  With ``--trace 1`` untraced and
traced passes alternate; the traced ones give the per-layer metrics (per
pass) and the difference in wall time is ``trace.overhead_s``.  Every
pass goes through the output gate in ``gate.py``.  Inputs and outputs are
written under ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# before numpy loads OpenBLAS, and inherited by the set-up probes
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy  # noqa: E402

import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
#: fresh interpreters timed for setup_s, after one that fills bytecode caches
SETUP_REPEATS = 11
#: seconds ``host_probe`` takes on a quiet 2-vCPU host (Python 3.11, numpy 2.4)
PROBE_REF_S = 0.0065
_PROBE_VECTOR = numpy.random.default_rng(0).standard_normal(50_000)
_PROBE_MATRIX = numpy.random.default_rng(1).standard_normal((120, 120))

IMPORT_PROBE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import numpy
t1 = time.perf_counter()
import annulab.cli
t2 = time.perf_counter()
print(t1 - t0, t2 - t1)
"""


def measure_setup() -> dict[str, float]:
    """Median import times of numpy and annulab.cli in fresh interpreters."""
    samples = []
    for i in range(SETUP_REPEATS + 1):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, check=True, timeout=120, cwd=ROOT,
        )
        if i:
            samples.append([float(x) for x in done.stdout.split()])
    return {
        "setup_s": statistics.median(a + b for a, b in samples),
        "import.numpy_s": statistics.median(a for a, _ in samples),
        "import.annulab_s": statistics.median(b for _, b in samples),
    }


def blas_threads() -> str:
    """OpenBLAS thread count as the loaded library reports it."""
    libdir = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def machine() -> str:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (
        f"nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
        f"python={platform.python_version()} numpy={numpy.__version__} "
        f"blas={blas.get('name')} {blas.get('version')} threads={blas_threads()}"
    )


def host_probe() -> tuple[float, float]:
    """Wall and CPU seconds of a fixed mix of the kinds of work the
    workloads do: a Python loop over a dict, a complex exponential over a
    vector and small matrix products."""
    t0, c0 = time.perf_counter(), time.process_time()
    table: dict[int, float] = {}
    for i in range(15_000):
        table[i % 97] = table.get(i % 97, 0.0) + i * 0.5
    for _ in range(2):
        numpy.exp(1j * _PROBE_VECTOR).sum()
    for _ in range(5):
        _PROBE_MATRIX @ _PROBE_MATRIX
    return time.perf_counter() - t0, time.process_time() - c0


def run_pass(cli, runs, outdirs, tracer=None):
    """One closed-loop pass.  Returns per run (wall, cpu, probe wall, probe
    cpu), the probe times being the mean of the host probes just before
    and just after the run (none in traced passes), and the runs' results."""
    results, run_times = [], []
    root = tracer.open("bench.pass") if tracer else None
    probe = host_probe() if tracer is None else (PROBE_REF_S, PROBE_REF_S)
    for run, outdir in zip(runs, outdirs):
        span = tracer.open(f"bench.{run.experiment}") if tracer else None
        r0, rc0 = time.perf_counter(), time.process_time()
        try:
            result = cli.run(cli.load_config(run.config, run.experiment, str(outdir)))
        except Exception as exc:  # gated as a failed run, never fatal
            traceback.print_exc(file=sys.stderr)
            result = exc
        wall, cpu = time.perf_counter() - r0, time.process_time() - rc0
        if tracer:
            tracer.close(span)
        after = host_probe() if tracer is None else probe
        run_times.append((wall, cpu, (probe[0] + after[0]) / 2, (probe[1] + after[1]) / 2))
        probe = after
        results.append(result)
    if tracer:
        tracer.close(root)
    return run_times, results


def tail(samples: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return f"no percentile has 10 samples beyond it at n={n}"
    return f"p{100 * (n - 10) // n}={sorted(samples)[n - 11]:.4f}"


def layer_metrics(spans, pass_counts, n_passes) -> dict[str, float]:
    """Per-pass calls, self seconds and counts, by function and by layer."""
    values: dict[str, float] = {}
    for name, row in tracing.layer_totals(spans).items():
        layer = name.split(".", 1)[0]
        for key, total in row.items():
            values[f"{name}.{key}"] = total / n_passes
            values[f"{layer}.{key}"] = values.get(f"{layer}.{key}", 0) + total / n_passes
    for name, start, end, _ in spans:
        if name.startswith("bench.") and name != "bench.pass":
            key = f"cli.{name[len('bench.'):]}_s"
            values[key] = values.get(key, 0.0) + (end - start) / n_passes
    values.update(pass_counts[0])
    return {k: int(v) if k.endswith(".calls") else v for k, v in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if not (SRC / "annulab" / "cli.py").is_file():
        print(f"perfbench: no annulab sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    sys.path.insert(0, str(SRC))
    import annulab
    from annulab import cli

    import gate
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    setup = measure_setup()
    work = OUT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    runs = workloads.generate(args.workload, args.seed, work / "inputs")
    outdirs = [work / f"{i:02d}-{r.experiment}" for i, r in enumerate(runs)]
    modules = [annulab] + [
        m for name, m in sorted(sys.modules.items()) if name.startswith("annulab.")
    ]

    attempted = failed = 0
    wrong = False
    reasons: dict[str, set[str]] = {}
    first: list[dict | None] = [None] * len(runs)

    def gate_pass(results):
        nonlocal attempted, failed, wrong
        for i, (run, outdir, result) in enumerate(zip(runs, outdirs, results)):
            outcome, seen = gate.judge(run, result, outdir, first[i])
            if first[i] is None:
                first[i] = seen
            attempted += 1
            failed += outcome.failed
            wrong = wrong or outcome.wrong
            reasons.setdefault(run.label, set()).update(outcome.reasons)

    gate_pass(run_pass(cli, runs, outdirs)[1])  # warm-up; its bytes are the reference

    tracer = tracing.Tracer() if args.trace else None
    passes = workloads.pass_count(args.workload, args.seconds)
    # traced runs alternate untraced and traced passes in the same time
    schedule = [False, True] * max(1, passes // 2) if tracer else [False] * passes
    walls, cpus, traced_walls, pass_counts = [], [], [], []
    run_times: list[list[tuple[float, ...]]] = [[] for _ in runs]
    for traced in schedule:
        if traced:
            tracer.install(modules)
        try:
            per_run, results = run_pass(cli, runs, outdirs, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        wall = sum(t[0] for t in per_run)
        if traced:
            traced_walls.append(wall)
            pass_counts.append(dict(tracer.counts))
            tracer.counts.clear()
        else:
            walls.append(wall)
            cpus.append(sum(t[1] for t in per_run))
            for acc, t in zip(run_times, per_run):
                acc.append(t)
        gate_pass(results)

    measured = {
        **setup,
        "wall_s": sum(statistics.median(PROBE_REF_S * w / pw for w, _, pw, _ in acc)
                      for acc in run_times),
        "cpu_s": sum(statistics.median(PROBE_REF_S * c / pc for _, c, _, pc in acc)
                     for acc in run_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {"pass_walls": walls, "pass_cpus": cpus,
               "run_times": {r.label: acc for r, acc in zip(runs, run_times)}}
    (work / "samples.json").write_text(json.dumps(samples, indent=1), encoding="ascii")
    print(f"annulab benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"machine: {machine()}")
    print("load: closed loop, one client, runs one after another in one process")
    print(f"setup_s: {setup['setup_s']:.4f} s median of {SETUP_REPEATS} fresh interpreters "
          f"(numpy {setup['import.numpy_s']:.4f} s, annulab {setup['import.annulab_s']:.4f} s)")
    probes = [t[2] for acc in run_times for t in acc]
    for run, acc in zip(runs, run_times):
        print(f"  run {run.label:32s} median {statistics.median(t[0] for t in acc):.4f} s, "
              f"at reference speed {statistics.median(PROBE_REF_S * t[0] / t[2] for t in acc):.4f} s")
    print(f"wall_s: {measured['wall_s']:.4f} s per pass at reference speed, n={len(walls)} "
          f"passes; host probe median {statistics.median(probes):.5f} s "
          f"(reference {PROBE_REF_S} s)")
    print(f"  raw pass wall: median {statistics.median(walls):.4f} s; {tail(walls)}; "
          f"slowest {max(walls):.4f} s; all: {' '.join(f'{w:.4f}' for w in walls)}")
    print(f"cpu_s: {measured['cpu_s']:.4f} s per pass at reference speed; "
          f"raw median {statistics.median(cpus):.4f} s")
    print(f"peak_rss_mb: {measured['peak_rss_mb']:.1f} MB")
    print(f"fail_ratio: {failed / attempted:.4f} ({failed} of {attempted} runs failed the gate)")
    for label, why in reasons.items():
        for reason in sorted(why):
            print(f"  failed {label}: {reason}")

    if tracer:
        n = len(traced_walls)
        metrics = layer_metrics(tracer.spans, pass_counts, n)
        metrics.update({k: setup[k] for k in ("import.numpy_s", "import.annulab_s")})
        metrics["trace.wall_s"] = statistics.fmean(traced_walls)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.fmean(walls)
        metrics["trace.spans"] = len(tracer.spans) // n
        metrics["bench.probe_s"] = statistics.median(probes)
        repeat = all(c == pass_counts[0] for c in pass_counts)
        print(f"trace: {n} traced passes, mean {metrics['trace.wall_s']:.4f} s, overhead "
              f"{metrics['trace.overhead_s']:.4f} s, counts repeat exactly: {repeat}")
        rows = sorted(
            (k for k in metrics if k.endswith(".self_s") and k.count(".") == 2),
            key=lambda k: -metrics[k],
        )
        for key in rows[:25]:
            name = key[: -len(".self_s")]
            print(f"  {name:48s} calls {metrics[name + '.calls']:8d} "
                  f"self {metrics[key]:.4f} s")
        layers = sorted({k.split(".", 1)[0] for k in rows})
        accounted = sum(metrics[f"{layer}.self_s"] for layer in layers)
        print(f"  self times of {', '.join(layers)} sum to {accounted:.4f} s per pass: "
              f"the untraced {statistics.fmean(walls):.4f} s plus the overhead")
        with open(work / "spans.jsonl", "w", encoding="ascii") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
        wanted = spec["per_layer"]
    else:
        metrics = measured
        wanted = spec["end_to_end"]

    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]} for m in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
