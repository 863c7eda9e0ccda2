import csv
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hawksteer.cli import main
from hawksteer.svgplot import (
    HEIGHT,
    MARGIN_BOTTOM,
    MARGIN_LEFT,
    MARGIN_RIGHT,
    MARGIN_TOP,
    PALETTE,
    WIDTH,
    _fnum,
    _fnum_block,
    _ticks,
    render_lineplot,
)
from hawksteer.sweep import to_csv

CURVE_FIELDS = ("s_ab", "s_ba", "s_delta", "t_ab", "t_ba", "t_delta")


def loop_render_lineplot(x, curves, xlabel, ylabel, title=""):
    """Reference renderer: scales and formats every point of every curve on its own.

    The per-point renderer the columnar one replaced, plus its constant-x
    guard (`xmax = xmin + 1.0`), without which a single point divides by zero.
    """
    if not x or not curves:
        raise ValueError("nothing to plot")
    xmin, xmax = min(x), max(x)
    if xmax <= xmin:
        xmax = xmin + 1.0
    ys = [v for _, series in curves for v in series]
    ymin, ymax = min(0.0, min(ys)), max(ys)
    if ymax <= ymin:
        ymax = ymin + 1.0
    pad = 0.05 * (ymax - ymin)
    ymax += pad

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def sx(v):
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

    for k, (name, series) in enumerate(curves):
        color = PALETTE[k % len(PALETTE)]
        pts = " ".join(f"{_fnum(sx(px))},{_fnum(sy(py))}"
                       for px, py in zip(x, series))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                   'stroke-width="1.5"/>')
        ly = MARGIN_TOP + 15 + 18 * k
        lx = MARGIN_LEFT + plot_w + 10
        out.append(f'<line x1="{lx}" y1="{ly}" x2="{lx + 20}" y2="{ly}" '
                   f'stroke="{color}" stroke-width="1.5"/>')
        out.append(f'<text x="{lx + 25}" y="{ly + 4}" font-size="12">{name}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"


def draw_series(rng: np.random.Generator, kind: str, n: int) -> list[float]:
    if kind == "ties":
        # Spans [0, 400], so the y range is [0, 420] after the 5 % pad; every
        # other value lands within a few ulps of a 3-decimal rounding tie
        # once scaled, where one ulp of difference shows in the bytes.
        tie = rng.integers(19_600, 410_000, n) / 1000 + 0.0005
        v = 420.0 - tie * 420.0 / 410.0
        v[: min(n, 2)] = (0.0, 400.0)[: min(n, 2)]
        return v.tolist()
    if kind == "integral":  # values that round to integers
        return (rng.integers(-5, 6, n) + rng.choice([0.0, 1e-4, -1e-4], n)).tolist()
    if kind == "constant":
        return [float(rng.uniform(-2.0, 2.0))] * n
    if kind == "non-finite":
        v = rng.uniform(-1.0, 1.0, n)
        v[rng.random(n) < 0.05] = rng.choice([math.inf, -math.inf, math.nan])
        return v.tolist()
    if kind == "zeros":  # Python's min and max: a leading NaN wins, of 0.0 and -0.0 the first
        return rng.choice([0.0, -0.0, math.nan, 1e-3, -1e-3], n).tolist()
    return (rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(-3.0, 3.0)).tolist()


def draw_grid(rng: np.random.Generator, grid: str, n: int) -> list[float]:
    if grid == "ties":
        # Spans [0, 580], the plot width: x scales to 70 + x, and k/1000 + 0.0005
        # to a rounding tie.
        x = np.concatenate(([0.0, 580.0], rng.integers(0, 580_000, n) / 1000 + 0.0005))
        return x[:n].tolist()
    return {"linear": lambda: np.linspace(0.0, 10.0, n),
            "log": lambda: np.geomspace(1e-3, 1e3, n),
            "unsorted": lambda: rng.uniform(-5.0, 5.0, n),
            "zeros": lambda: rng.choice([0.0, -0.0, math.nan, 1.0], n),
            "constant": lambda: np.full(n, 1.5)}[grid]().tolist()


def near_tie(k: int, ulps: int) -> float:
    """The float `ulps` steps away from (k + 0.5) / 1000, where 3-decimal rounding flips."""
    v = (k + 0.5) / 1000
    for _ in range(abs(ulps)):
        v = math.nextafter(v, math.copysign(math.inf, ulps))
    return v


# Any float64, weighted towards where the column formatter must match _fnum
# exactly: near ties (on both sides of the 10^4 table edge), negatives that
# round to "-0", signed zeros and NaNs, subnormals, and |v| from 1e4 to 1e308.
ANY_FLOAT = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.builds(near_tie, st.integers(0, 2 * 10**7), st.integers(-4, 4)).flatmap(
        lambda v: st.sampled_from([v, -v])),
    st.floats(-0.0005, -0.0),
    st.floats(1e4, 1e308).flatmap(lambda v: st.sampled_from([v, -v])),
    st.floats(0.0, 800.0),
    st.sampled_from([math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
                     9999.9995, 9999.9996, 1e4, 0.0625, 0.1875, -0.0625]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(ANY_FLOAT, min_size=1, max_size=200))
def test_fnum_block_equals_fnum(values):
    block = _fnum_block(np.array(values, dtype=np.float64))
    assert block.dtype == np.uint8 and block.shape[0] == len(values)
    tokens = [row.tobytes().replace(b"\0", b"").decode("ascii") for row in block]
    assert tokens == [_fnum(v) for v in values]


def test_curve_length_must_match_x():
    with pytest.raises(ValueError, match="curve 'b' has 2 points, x has 3"):
        render_lineplot([0.0, 1.0, 2.0], [("a", [1.0, 2.0, 3.0]), ("b", [1.0, 2.0])], "x", "y")


KINDS = ("ties", "integral", "constant", "non-finite", "zeros", "uniform")
GRIDS = ("ties", "linear", "log", "unsorted", "zeros", "constant")


@st.composite
def drawn_panels(draw):
    """x and curves from draw_grid and draw_series: 1-2000 points, one grid, 1-6 curve kinds."""
    n = draw(st.integers(1, 2000))
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=6))
    grid = draw(st.sampled_from(GRIDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = draw_grid(rng, grid, n)
    return x, [(f"c{k}", draw_series(rng, kind, n)) for k, kind in enumerate(kinds)]


NAN, INF = math.nan, math.inf


class TestRenderLineplot:
    @settings(max_examples=100, deadline=None)
    @given(drawn_panels())
    # The builtins' min and max rules at their edges: a leading NaN in x only,
    # a NaN only in the second curve (leading there, not in the y values),
    # -0.0 before 0.0 and the reverse, in x and across curves, an all-NaN
    # curve, one point, ±inf as the extremes.
    @example(([NAN, 1.0, 2.0], [("c0", [0.5, 1.0, 0.25])]))
    @example(([0.0, 1.0, 2.0], [("c0", [0.1, 0.2, 0.3]), ("c1", [NAN, 0.4, NAN])]))
    @example(([-0.0, 0.0, 1.0], [("c0", [-1.0, -0.0, -0.5]), ("c1", [0.0, -2.0, -0.0])]))
    @example(([0.0, -0.0, 1.0], [("c0", [-1.0, 0.0, -0.5]), ("c1", [-0.0, -2.0, 0.0])]))
    @example(([0.0, 1.0, 2.0], [("c0", [NAN, NAN, NAN]), ("c1", [0.1, 0.9, 0.3])]))
    @example(([0.0, 1.0, 2.0], [("c0", [0.1, 0.9, 0.3]), ("c1", [NAN, NAN, NAN])]))
    @example(([2.0], [("c0", [0.5]), ("c1", [-0.25])]))
    @example(([-INF, 0.0, INF], [("c0", [INF, 0.5, -INF]), ("c1", [-INF, 0.25, INF])]))
    def test_columnar_equals_per_point_bytes(self, panel):
        x, curves = panel
        args = (x, curves, "T/ω", "steerability", "title")
        want = loop_render_lineplot(*args)
        assert render_lineplot(*args) == want
        # The same values as float64 columns, as `plot` passes them.
        columns = [(name, np.array(series)) for name, series in curves]
        assert render_lineplot(np.array(x), columns, *args[2:]) == want


@pytest.fixture(scope="module")
def sweeps_10k(tmp_path_factory, linear_sweep_10k):
    """Two 10^4-row sweeps: linear from T = 0 with both measures, log with `ent` only.

    Maps each to its path and its rows as csv.DictReader reads them.
    """
    root = tmp_path_factory.mktemp("sweeps")
    cfg, records = linear_sweep_10k
    (root / "both.csv").write_text(to_csv(cfg, records), encoding="utf-8", newline="")
    assert main(["sweep", "--steps", "10000", "--grid", "log", "--t-min", "1e-3",
                 "--t-max", "1e3", "--measures", "ent", "--pairs", "ABbar,BBbar",
                 "-o", str(root / "ent.csv")]) == 0
    sweeps = {}
    for name in ("both", "ent"):
        path = root / f"{name}.csv"
        with open(path, newline="") as fh:
            sweeps[name] = path, list(csv.DictReader(fh))
    return sweeps


@pytest.mark.parametrize("sweep, panel, pair", [
    ("both", "fig1", "AB"), ("both", "fig2", "ABbar"), ("both", "fig3", "BBbar"),
    ("ent", "fig2", "ABbar"), ("ent", "fig3", "BBbar"),
])
def test_plot_of_10k_sweep_equals_per_point_renderer(sweeps_10k, tmp_path, sweep, panel, pair):
    path, rows = sweeps_10k[sweep]
    out = tmp_path / f"{panel}.svg"
    assert main(["plot", str(path), "--panel", panel, "-o", str(out)]) == 0
    x = [float(r["t_over_omega"]) for r in rows]
    curves = [(f, [float(r[f"{pair}_{f}"]) for r in rows]) for f in CURVE_FIELDS
              if rows[0].get(f"{pair}_{f}", "") != ""]
    assert len(curves) == (6 if sweep == "both" else 3)
    want = loop_render_lineplot(x, curves, "T/ω", "steerability", f"{panel}: pair {pair}")
    assert out.read_text(encoding="utf-8") == want
