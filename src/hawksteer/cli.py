"""Command-line front end.

Subcommands: sweep, critical, monogamy, plot, selfcheck.  Data goes to
the output file (or stdout), diagnostics to stderr; the exit status is
nonzero iff something failed.
"""

from __future__ import annotations

import argparse
import csv
import math
import operator
import sys
from pathlib import Path

import numpy as np

from . import selfcheck as selfcheck_mod
from .hawking import (
    PAIRS,
    HawkingParams,
    critical_temperatures,
    monogamy_grid,
    monogamy_threshold,
    require_positive,
)
from .selfcheck import MONOGAMY_TOL
from .sweep import MEASURES, PAIR_FIELDS, SweepConfig, render_table, run_sweep, to_csv, to_json
from .svgplot import render_lineplot

_PANEL_PAIR = {"fig1": "AB", "fig2": "ABbar", "fig3": "BBbar"}
_CURVES = tuple(f for f in PAIR_FIELDS if f != "concurrence")  # the steerability curves


def _write_output(text: str, path: str | None):
    """Write text as UTF-8 to `path`, or to stdout when path is None or "-"."""
    if path is not None and path != "-":
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
    elif hasattr(sys.stdout, "buffer"):  # bytes: the locale encoding does not apply
        sys.stdout.flush()
        sys.stdout.buffer.write(text.encode("utf-8"))
    else:  # an in-process text redirect
        sys.stdout.write(text)


def cmd_sweep(args) -> int:
    cfg = SweepConfig(
        omega=args.omega, t_min=args.t_min, t_max=args.t_max, steps=args.steps,
        grid=args.grid, pairs=tuple(args.pairs.split(",")), measures=args.measures,
    )
    records = run_sweep(cfg)
    text = to_csv(cfg, records) if args.format == "csv" else to_json(cfg, records)
    _write_output(text, args.output)
    return 0


def cmd_critical(args) -> int:
    status = 0
    rows = []
    for pt in critical_temperatures(args.omega):
        if pt.error is not None:
            print(f"{pt.name}: {pt.error}", file=sys.stderr)
            status = 1
        rows.append({
            "name": pt.name,
            "closed_form": pt.closed_form,
            "numeric": None if math.isnan(pt.numeric) else pt.numeric,
            "discrepancy": pt.discrepancy,
        })
    text = render_table(rows, ["name", "closed_form", "numeric", "discrepancy"], args.format)
    _write_output(text, args.output)
    return status


def cmd_monogamy(args) -> int:
    threshold = monogamy_threshold(args.omega)
    temps = []
    for entry in args.t_values.split(","):
        try:
            t = float(entry)
        except ValueError:
            raise ValueError(f"--t-values entry {entry!r} is not a number") from None
        temps.append(HawkingParams(t, args.omega).temperature)
    require_positive("omega / ln(sqrt(3))", threshold)  # not inf: r3 and r4 apply above it
    rows = []
    for t, res in zip(temps, monogamy_grid(temps, args.omega)):
        ok = all(abs(r) <= MONOGAMY_TOL for r in res.applicable)
        rows.append({
            "temperature": t,
            "threshold": threshold,
            "r1": res.r1, "r2": res.r2, "r3": res.r3, "r4": res.r4,
            "status": "pass" if ok else "fail",
        })
    text = render_table(rows, ["temperature", "r1", "r2", "r3", "r4", "status"],
                        args.format, missing="n/a (T <= omega/ln(sqrt(3)))")
    _write_output(text, args.output)
    return 0 if all(r["status"] == "pass" for r in rows) else 1


def _read_columns(path: str, pair: str) -> tuple[list[float], list[tuple[str, list[float]]]]:
    """The t_over_omega column and the pair's populated curves (no empty cell).

    One streaming pass over the CSV keeps only the picked cells of each row.
    Blank lines are skipped, as csv.DictReader does; every short row is refused.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            column = {name: i for i, name in enumerate(header)}
            present = [f for f in _CURVES if f"{pair}_{f}" in column]
            if not present:
                raise ValueError(f"missing columns for pair {pair} in {path}")
            if "t_over_omega" not in column:
                raise ValueError(f"missing column t_over_omega in {path}")
            pick = operator.itemgetter(column["t_over_omega"],
                                       *(column[f"{pair}_{f}"] for f in present))
            picked = []
            for row in reader:
                if len(row) >= len(header):
                    picked.append(pick(row))
                elif row:  # a blank line is skipped
                    raise ValueError(f"data row {len(picked) + 1} of {path} has {len(row)} "
                                     f"cells, the header has {len(header)}")
        except csv.Error as exc:
            raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None
    x, *cells = zip(*picked) if picked else [()] * (1 + len(present))
    return list(map(float, x)), [(f, list(map(float, c))) for f, c in zip(present, cells)
                                 if "" not in c]  # "": a measure the sweep did not select


def _read_panel(path: str, pair: str) -> tuple[np.ndarray, list] | None:
    """_read_columns' result as float64 columns, by one np.loadtxt that also parses the header's
    last column, so a short row fails. None for a pipe (read once), a quote or NUL, an aligned
    newline-free window of half csv's field limit (a line of the limit covers one), a missing
    column, no full first row or curve it fills, a failed parse."""
    if not Path(path).is_file():
        return None
    data = Path(path).read_bytes()
    w = max(csv.field_size_limit() // 2, 1)
    if b'"' in data or b"\0" in data or any(
            data.find(b"\n", i, i + w) < 0 for i in range(0, len(data) - w + 1, w)):
        return None
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = csv.reader(fh)
            header, first = next(rows, []), next(filter(None, rows), [])
        column = {name: i for i, name in enumerate(header)}
        curves = [(f, column[c]) for f in _CURVES if (c := f"{pair}_{f}") in column
                  and len(first) >= len(header) and first[column[c]]]
        if curves and "t_over_omega" in column:
            cols = np.loadtxt(path, delimiter=",", skiprows=1, comments=None, quotechar=None,
                              usecols=(column["t_over_omega"], *(i for _, i in curves),
                                       len(header) - 1), ndmin=2, encoding="utf-8")
            return cols[:, 0], [(f, cols[:, k]) for k, (f, _) in enumerate(curves, 1)]
    except (ValueError, csv.Error):
        pass
    return None


def cmd_plot(args) -> int:
    pair = _PANEL_PAIR[args.panel]
    x, curves = _read_panel(args.sweep_csv, pair) or _read_columns(args.sweep_csv, pair)
    if not curves:
        raise ValueError(f"no populated curves for pair {pair} in {args.sweep_csv}")
    svg = render_lineplot(x, curves, xlabel="T/ω", ylabel="steerability",
                          title=f"{args.panel}: pair {pair}")
    _write_output(svg, args.output)
    return 0


def cmd_selfcheck(args) -> int:
    results = selfcheck_mod.run_all()
    failed = 0
    for name, ok, detail in results:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        failed += 0 if ok else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hawksteer",
        description="Fermionic steering measures for Hawking-radiation X-states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="steerability curves over a temperature grid")
    p.add_argument("--omega", type=float, default=1.0)
    p.add_argument("--t-min", type=float, required=True)
    p.add_argument("--t-max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--grid", choices=("linear", "log"), default="linear")
    p.add_argument("--pairs", default="AB,ABbar,BBbar",
                   help="comma-separated subset of AB,ABbar,BBbar")
    p.add_argument("--measures", choices=MEASURES, default="both")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("critical", help="critical temperatures, closed form vs numeric")
    p.add_argument("--omega", type=float, default=1.0)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_critical)

    p = sub.add_parser("monogamy", help="monogamy identity residuals at given T")
    p.add_argument("--omega", type=float, default=1.0)
    p.add_argument("--t-values", required=True,
                   help="comma-separated temperatures")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_monogamy)

    p = sub.add_parser("plot", help="render one figure panel from a sweep CSV")
    p.add_argument("sweep_csv")
    p.add_argument("--panel", choices=tuple(_PANEL_PAIR), required=True)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_plot)

    p = sub.add_parser("selfcheck", help="run the oracle suites")
    p.set_defaults(func=cmd_selfcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
