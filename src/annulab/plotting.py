"""Minimal self-contained SVG emission for singular-value decay curves.

One polyline per section size on a log-scale vertical axis; values below
the floor are clamped onto a dashed floor line so rank-deficient tails
stay visible.  No plotting library is involved, which keeps the output
byte-deterministic.
"""

from __future__ import annotations

import math
from pathlib import Path

FLOOR = 1e-16

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]

_W, _H = 640, 440
_L, _R, _T, _B = 60, 150, 40, 50


def _esc(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def emit_plot(profile, path) -> None:
    """Write the decay curves of one pullback's sweep as an SVG file."""
    sizes = list(profile.sizes)
    xmax = max(len(profile.singular_values[s]) for s in sizes) - 1
    xmax = max(xmax, 1)
    top_sigma = max(max(profile.singular_values[s], default=FLOOR) for s in sizes)
    ymax = math.ceil(math.log10(max(top_sigma, FLOOR))) + 1
    ymin = math.log10(FLOOR)
    plot_w = _W - _L - _R
    plot_h = _H - _T - _B

    def x_px(i: int) -> float:
        return _L + plot_w * i / xmax

    def y_px(sigma: float) -> float:
        v = math.log10(max(sigma, FLOOR))
        return _T + plot_h * (ymax - v) / (ymax - ymin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_L}" y="{_T - 16}" font-size="14" font-family="monospace">'
        f"singular values, pullback {_esc(profile.pullback)} "
        f"(eps={profile.epsilon:g})</text>",
        # axes
        f'<line x1="{_L}" y1="{_T}" x2="{_L}" y2="{_H - _B}" stroke="black"/>',
        f'<line x1="{_L}" y1="{_H - _B}" x2="{_W - _R}" y2="{_H - _B}" stroke="black"/>',
    ]
    for exp in range(int(ymin), ymax + 1, 4):
        yy = y_px(10.0**exp)
        parts.append(
            f'<line x1="{_L - 4}" y1="{yy:.2f}" x2="{_L}" y2="{yy:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_L - 8}" y="{yy + 4:.2f}" font-size="11" '
            f'font-family="monospace" text-anchor="end">1e{exp}</text>'
        )
    for frac in (0, 0.5, 1.0):
        xi = int(round(frac * xmax))
        xx = x_px(xi)
        parts.append(
            f'<line x1="{xx:.2f}" y1="{_H - _B}" x2="{xx:.2f}" y2="{_H - _B + 4}" '
            'stroke="black"/>'
        )
        parts.append(
            f'<text x="{xx:.2f}" y="{_H - _B + 18}" font-size="11" '
            f'font-family="monospace" text-anchor="middle">{xi}</text>'
        )
    parts.append(
        f'<text x="{_L + plot_w / 2:.2f}" y="{_H - 8}" font-size="12" '
        'font-family="monospace" text-anchor="middle">index</text>'
    )
    # floor marker
    fy = y_px(FLOOR)
    parts.append(
        f'<line x1="{_L}" y1="{fy:.2f}" x2="{_W - _R}" y2="{fy:.2f}" '
        'stroke="gray" stroke-dasharray="4 3"/>'
    )
    parts.append(
        f'<text x="{_W - _R - 4}" y="{fy - 4:.2f}" font-size="10" fill="gray" '
        'font-family="monospace" text-anchor="end">floor 1e-16</text>'
    )
    # each coordinate formatted once: x per index, y per distinct sigma (+0
    # and -0 are one key and both clamp to FLOOR; a NaN matches only
    # itself).  math.log10 stays per value, as np.log10 may round differently
    xs = ["%.2f" % x_px(i) for i in range(xmax + 1)]
    distinct = set().union(*(profile.singular_values[s] for s in sizes))
    ys = {sig: "%.2f" % y_px(sig) for sig in distinct}
    for idx, s in enumerate(sizes):
        color = _PALETTE[idx % len(_PALETTE)]
        sigmas = profile.singular_values[s]
        if len(sigmas) == 1:
            parts.append(
                f'<circle cx="{xs[0]}" cy="{ys[sigmas[0]]}" r="3" fill="{color}"/>'
            )
        else:
            pts = " ".join([f"{x},{ys[sig]}" for x, sig in zip(xs, sigmas)])
            parts.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                f'points="{pts}"/>'
            )
        ly = _T + 16 * idx
        parts.append(
            f'<line x1="{_W - _R + 10}" y1="{ly + 10}" x2="{_W - _R + 34}" '
            f'y2="{ly + 10}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{_W - _R + 40}" y="{ly + 14}" font-size="11" '
            f'font-family="monospace">n={s}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="ascii")
