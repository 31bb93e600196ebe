"""Span tracing from outside the program, by wrapping module attributes.

A traced pass replaces every public function of the ``annulab`` modules
with a wrapper that records a span (name, start, end, parent), also under
each name another module bound with ``from .x import y``, and wraps
``numpy.linalg.{svd,lstsq,inv,solve,cond}`` as the ``linalg`` layer.
Spans stay in memory until the run ends.  A span's self time is its
duration minus the part of it that its children cover.

What a wrapper cannot see stays in its caller's self time: matrix
products written with ``@``, ``np.linalg.norm``, private helpers and
methods of symbol classes.

Computed counts (section entries, SVD work, oracle grid samples, artifact
bytes, reference-table reads) are derived from each call's arguments and
result, so they repeat exactly for one seed.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter
from pathlib import Path

import numpy as np

LINALG = ("svd", "lstsq", "inv", "solve", "cond")
BUILDERS = (
    "reduction.build_disc_hankel",
    "reduction.build_disc_toeplitz",
    "hardy.build_toeplitz_hardy",
    "hardy.build_hankel_annulus",
    "bergman.build_bergman_toeplitz",
    "hardy.build_section_quadrature",
)
#: writers whose files are byte-deterministic; report.json is left out
#: because it records the run's duration
REPORT_WRITERS = ("write_results_csv", "write_decay_csv", "write_section_csv")


def self_times(spans) -> list[float]:
    """Per span: duration minus the union of its children's intervals."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for _, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for (_, start, end, _), kids in zip(spans, children):
        covered = 0.0
        run_lo = run_hi = None
        for lo, hi in sorted(kids):
            lo, hi = max(lo, start), min(hi, end)
            if run_hi is not None and lo <= run_hi:
                run_hi = max(run_hi, hi)
                continue
            if run_hi is not None:
                covered += run_hi - run_lo
            run_lo, run_hi = lo, hi
        if run_hi is not None:
            covered += run_hi - run_lo
        out.append((end - start) - covered)
    return out


def _entries(counts, name, args, out):
    entries = out.entries if hasattr(out, "entries") else out
    counts[f"{name}.entries"] += int(np.asarray(entries).size)


def _svd_work(counts, name, args, out):
    shape = np.shape(args["a"])
    m, n = shape[-2], shape[-1]
    counts[f"{name}.n3"] += int(np.prod(shape[:-2], dtype=int)) * m * n * min(m, n)


def _c0_reach(phi, m_circle):
    table = getattr(phi, "coeffs_C0", None)
    if table is None:
        return m_circle // 4
    return max((abs(n) for n, c in table.items() if c != 0.0), default=0)


def _grid(factor):
    """Count of (entry, grid node) terms an oracle sums: ``factor(args) * m``."""

    def count(counts, name, args, out):
        counts[f"{name}.grid_samples"] += factor(args) * args["geo"].m_circle

    return count


def _split_terms(a):
    # per column: coefficient means, resynthesis, and two projections
    width = a["size"] + _c0_reach(a["phi"], a["geo"].m_circle)
    return a["size"] * 4 * width


def _file_bytes(key):
    def count(counts, name, args, out):
        counts[key] += Path(args["path"]).stat().st_size

    return count


class Tracer:
    """Spans and computed counts of one traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        # reference symbols and the circle tables pulled back from them,
        # keyed by id (the object is kept so its id stays unique), each
        # with its table's reach (-1 for the two-circle symbol itself)
        self._tables: dict[int, tuple[object, int]] = {}
        self._hooks = {
            **{b: [_entries] for b in BUILDERS},
            "linalg.svd": [_svd_work],
            "geometry.gram_matrix": [
                _grid(lambda a: 2 * (4 * a["half_window"] + 2) ** 2)
            ],
            "reduction.assemble_transfer_unitaries": [_grid(lambda a: 2 * a["size"] ** 2)],
            "reduction.inner_hankel_quadrature": [_grid(lambda a: a["size"] ** 2)],
            "reduction.split_relation_residual": [_grid(_split_terms)],
            "plotting.emit_plot": [_file_bytes("plotting.bytes")],
            "reference.reference_symbol": [self._register_reference],
            "symbols.pullback_symbols": [self._register_pullback],
        }
        self._hooks["hardy.build_section_quadrature"].append(
            _grid(lambda a: 2 * (a["window"][1] - a["window"][0] + 1) ** 2)
        )
        self._hooks["reduction.build_disc_hankel"].append(self._hankel_reads)
        for w in REPORT_WRITERS:
            self._hooks[f"report.{w}"] = [_file_bytes("report.bytes")]

    # -- spans ------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        hooks = self._hooks.get(name, ())
        sig = inspect.signature(fn) if hooks else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if hooks:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                for hook in hooks:
                    hook(self.counts, name, bound.arguments, out)
            return out

        return traced

    # -- reference-table reads ------------------------------------------------

    def _register_reference(self, counts, name, args, out):
        self._tables[id(out)] = (out, -1)
        reach = max(map(abs, [*out.coeffs_C, *out.coeffs_C0]), default=0)
        counts["reference.table_reach"] = max(counts["reference.table_reach"], reach)

    def _register_pullback(self, counts, name, args, out):
        if id(args["sym"]) not in self._tables:
            return
        for circle in out:
            if circle.coeffs:
                reach = max(abs(n) for n in circle.coeffs)
                self._tables[id(circle)] = (circle, reach)

    def _hankel_reads(self, counts, name, args, out):
        entry = self._tables.get(id(args["phi"]))
        if entry is None or entry[1] < 0:
            return
        # row j, column k reads index -(j + 1) - k
        deepest = 2 * args["size"] - 1
        counts["reference.max_index_read"] = max(
            counts["reference.max_index_read"], deepest
        )
        counts["reference.reads_past_table"] = max(
            counts["reference.reads_past_table"], deepest - entry[1]
        )

    # -- patching -----------------------------------------------------------

    def install(self, modules) -> None:
        """Wrap public functions of ``modules`` and ``numpy.linalg``."""
        wrapped = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrapped[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
        # a second sweep also rebinds the names taken by ``from .x import y``
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._patch(mod, attr, wrapped[id(obj)])
        for fn in LINALG:
            self._patch(np.linalg, fn, self.wrap(f"linalg.{fn}", getattr(np.linalg, fn)))

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._tables.clear()


def layer_totals(spans) -> dict[str, dict[str, float]]:
    """Per function name: calls and summed self seconds."""
    out: dict[str, dict[str, float]] = {}
    for (name, _, _, _), own in zip(spans, self_times(spans)):
        row = out.setdefault(name, {"calls": 0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += own
    return out
