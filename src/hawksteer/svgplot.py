"""Minimal deterministic SVG line plots.

Hand-rolled on purpose: output bytes depend only on the input data, so
plots can be golden-file tested.  One polyline per curve on a fixed
800x500 canvas; no external plotting library involved.
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np

WIDTH, HEIGHT = 800, 500
MARGIN_LEFT, MARGIN_RIGHT = 70, 150
MARGIN_TOP, MARGIN_BOTTOM = 30, 60

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _fnum(v: float) -> str:
    return f"{v:.3f}".rstrip("0").rstrip(".")


def _widen(lo: float, hi: float) -> float:
    """The top of the range [lo, hi], raised when the range is empty: to lo + 1,
    or to the next float above lo where |lo| >= 2^53 rounds the + 1 away."""
    return max(lo + 1.0, math.nextafter(lo, math.inf)) if hi <= lo else hi


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def render_lineplot(
    x: list[float],
    curves: list[tuple[str, list[float]]],
    xlabel: str,
    ylabel: str,
    title: str = "",
) -> str:
    """Render curves sharing the x grid into a self-contained SVG string."""
    if not x or not curves:
        raise ValueError("nothing to plot")
    xmin = min(x)
    xmax = _widen(xmin, max(x))
    ys = [series for _, series in curves]
    ymin = min(0.0, min(chain.from_iterable(ys)))
    ymax = _widen(ymin, max(chain.from_iterable(ys)))
    pad = 0.05 * (ymax - ymin)
    ymax += pad

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def sx(v):  # a float or a float64 array
        return MARGIN_LEFT + (v - xmin) / (xmax - xmin) * plot_w

    def sy(v):
        return MARGIN_TOP + (ymax - v) / (ymax - ymin) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="black"/>',
    ]
    for tx in _ticks(xmin, xmax):
        px = sx(tx)
        out.append(f'<line x1="{_fnum(px)}" y1="{MARGIN_TOP + plot_h}" '
                   f'x2="{_fnum(px)}" y2="{MARGIN_TOP + plot_h + 5}" stroke="black"/>')
        out.append(f'<text x="{_fnum(px)}" y="{MARGIN_TOP + plot_h + 20}" '
                   f'font-size="12" text-anchor="middle">{tx:.3g}</text>')
    for ty in _ticks(ymin, ymax):
        py = sy(ty)
        out.append(f'<line x1="{MARGIN_LEFT - 5}" y1="{_fnum(py)}" '
                   f'x2="{MARGIN_LEFT}" y2="{_fnum(py)}" stroke="black"/>')
        out.append(f'<text x="{MARGIN_LEFT - 8}" y="{_fnum(py + 4)}" '
                   f'font-size="12" text-anchor="end">{ty:.3g}</text>')
    out.append(f'<text x="{MARGIN_LEFT + plot_w / 2:.0f}" y="{HEIGHT - 15}" '
               f'font-size="14" text-anchor="middle">{xlabel}</text>')
    out.append(f'<text x="20" y="{MARGIN_TOP + plot_h / 2:.0f}" font-size="14" '
               f'text-anchor="middle" transform="rotate(-90 20 '
               f'{MARGIN_TOP + plot_h / 2:.0f})">{ylabel}</text>')
    if title:
        out.append(f'<text x="{MARGIN_LEFT + plot_w / 2:.0f}" y="20" '
                   f'font-size="14" text-anchor="middle">{title}</text>')

    # sx and sy scale each series once as a float64 array, with the same
    # IEEE operations as on one float, so every coordinate is bit-identical.
    # As in Python float arithmetic, an inf or nan cell propagates quietly.
    with np.errstate(over="ignore", invalid="ignore"):
        px = sx(np.asarray(x, dtype=np.float64))
        pys = [sy(np.asarray(series, dtype=np.float64)) for series in ys]
    fx = list(map(_fnum, px.tolist()))
    for k, ((name, _), py) in enumerate(zip(curves, pys)):
        color = PALETTE[k % len(PALETTE)]
        pts = " ".join(map(",".join, zip(fx, map(_fnum, py.tolist()))))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                   'stroke-width="1.5"/>')
        ly = MARGIN_TOP + 15 + 18 * k
        lx = MARGIN_LEFT + plot_w + 10
        out.append(f'<line x1="{lx}" y1="{ly}" x2="{lx + 20}" y2="{ly}" '
                   f'stroke="{color}" stroke-width="1.5"/>')
        out.append(f'<text x="{lx + 25}" y="{ly + 4}" font-size="12">{name}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"
