"""Minimal deterministic SVG line plots.

Hand-rolled on purpose: output bytes depend only on the input data, so
plots can be golden-file tested.  One polyline per curve on a fixed
800x500 canvas; no external plotting library involved.

Every coordinate is written as `_fnum` writes it: 3 decimals, correctly
rounded, trailing zeros and point stripped, "-0" kept for a negative value
that rounds to zero, and nan/inf as Python prints them.  A polyline's
coordinates are formatted a column at a time (`_fnum_block`), to the same
bytes.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence

import numpy as np

WIDTH, HEIGHT = 800, 500
MARGIN_LEFT, MARGIN_RIGHT = 70, 150
MARGIN_TOP, MARGIN_BOTTOM = 30, 60

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _fnum(v: float) -> str:
    return f"{v:.3f}".rstrip("0").rstrip(".")


# |v| below _TABLE_MAX is read from _digit_tables.  Below it |v| * 1000 is
# under 1e7 < 2^24, so the product's rounding error is at most 2^-30, well
# inside _TIE_MARGIN.
_TABLE_MAX = 1e4
_TIE_MARGIN = 1e-6


@functools.cache
def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """The integer parts 0..10^4 and the stripped fractions of 0..999 thousandths.

    Each a uint8 table with one NUL-padded token per row: str(i), and
    ".jjj" without trailing zeros ("" for 0).  Built on first use.
    """
    ints = np.array([str(i).encode() for i in range(int(_TABLE_MAX) + 1)], dtype="S5")
    fracs = np.array([f".{j:03d}".rstrip("0").rstrip(".").encode() for j in range(1000)],
                     dtype="S4")
    return ints.view(np.uint8).reshape(-1, 5), fracs.view(np.uint8).reshape(-1, 4)


def _fnum_block(v: np.ndarray) -> np.ndarray:
    """_fnum of each float64 in v, as one (N, w) uint8 block of NUL-padded rows.

    The token comes from k = rint(|v| * 1000) and the digit tables, with the
    sign from signbit, where that rounding is certain: |v| < _TABLE_MAX and
    |v| * 1000 farther than _TIE_MARGIN from a rounding tie.  Every other
    value (nan, inf, past the tables or near a tie) is formatted by _fnum.
    """
    ints, fracs = _digit_tables()
    a = np.abs(v)
    inside = a < _TABLE_MAX  # False for nan and inf
    p = np.where(inside, a, 0.0) * 1000.0
    k = np.rint(p)
    certain = inside & (np.abs(p - k) < 0.5 - _TIE_MARGIN)
    q, r = np.divmod(k.astype(np.intp), 1000)
    sign = np.signbit(v).astype(np.uint8) * ord("-")
    block = np.concatenate([sign[:, None], ints[q], fracs[r]], axis=1)
    rest = np.flatnonzero(~certain)
    if rest.size:
        tokens = np.array([_fnum(u).encode() for u in v[rest].tolist()])
        width = max(block.shape[1], tokens.itemsize)
        block = np.pad(block, ((0, 0), (0, width - block.shape[1])))
        block[rest] = tokens.astype(f"S{width}").view(np.uint8).reshape(-1, width)
    return block


def _widen(lo: float, hi: float) -> float:
    """The top of the range [lo, hi], raised when the range is empty: to lo + 1,
    or to the next float above lo where |lo| >= 2^53 rounds the + 1 away."""
    return max(lo + 1.0, math.nextafter(lo, math.inf)) if hi <= lo else hi


def _extreme(v: np.ndarray, reduce) -> float:
    """min or max of v by the builtins' rules: a leading NaN wins, a later one never, and of
    equal values (0.0 and -0.0 too) the first; reduce is np.fmin.reduce or np.fmax.reduce."""
    return float(v[0] if math.isnan(v[0]) else v[np.argmax(v == reduce(v))])


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def render_lineplot(
    x: Sequence[float] | np.ndarray,
    curves: Sequence[tuple[str, Sequence[float] | np.ndarray]],
    xlabel: str,
    ylabel: str,
    title: str = "",
) -> str:
    """Render curves sharing the x grid (floats or float64 columns) into an SVG string.
    The axis ranges are the builtin min and max of the columns, read by numpy (_extreme)."""
    x = np.asarray(x, dtype=np.float64)
    ys = [np.asarray(series, dtype=np.float64) for _, series in curves]
    if not len(x) or not curves:
        raise ValueError("nothing to plot")
    for (name, _), series in zip(curves, ys):
        if len(series) != len(x):
            raise ValueError(f"curve {name!r} has {len(series)} points, x has {len(x)}")
    flat = np.concatenate(ys)  # curve by curve: the order the y range's ties follow
    xmin = _extreme(x, np.fmin.reduce)
    xmax = _widen(xmin, _extreme(x, np.fmax.reduce))
    ymin = min(0.0, _extreme(flat, np.fmin.reduce))
    ymax = _widen(ymin, _extreme(flat, np.fmax.reduce))
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
        px = sx(x)
        pys = [sy(series) for series in ys]
    # One polyline is one byte block, each row "x,y " with NUL padding.
    fx = _fnum_block(px)
    comma, space = (np.full((len(fx), 1), ord(c), np.uint8) for c in ", ")
    for k, ((name, _), py) in enumerate(zip(curves, pys)):
        color = PALETTE[k % len(PALETTE)]
        row = np.concatenate([fx, comma, _fnum_block(py), space], axis=1)
        pts = row.tobytes().translate(None, b"\0")[:-1].decode("ascii")
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                   'stroke-width="1.5"/>')
        ly = MARGIN_TOP + 15 + 18 * k
        lx = MARGIN_LEFT + plot_w + 10
        out.append(f'<line x1="{lx}" y1="{ly}" x2="{lx + 20}" y2="{ly}" '
                   f'stroke="{color}" stroke-width="1.5"/>')
        out.append(f'<text x="{lx + 25}" y="{ly + 4}" font-size="12">{name}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"
