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

from . import selfcheck as selfcheck_mod
from .hawking import (
    PAIRS,
    HawkingParams,
    critical_temperatures,
    monogamy_grid,
    monogamy_threshold,
)
from .selfcheck import MONOGAMY_TOL
from .sweep import MEASURES, PAIR_FIELDS, SweepConfig, render_table, run_sweep, to_csv, to_json
from .svgplot import render_lineplot

_PANEL_PAIR = {"fig1": "AB", "fig2": "ABbar", "fig3": "BBbar"}


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
    ct = critical_temperatures(args.omega)
    status = 0
    rows = []
    for pt in ct.points():
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
    params = []
    for entry in args.t_values.split(","):
        try:
            t = float(entry)
        except ValueError:
            raise ValueError(f"--t-values entry {entry!r} is not a number") from None
        params.append(HawkingParams(t, args.omega))
    rows = []
    for p, res in zip(params, monogamy_grid(params)):
        ok = all(abs(r) <= MONOGAMY_TOL for r in res.applicable)
        rows.append({
            "temperature": p.temperature,
            "threshold": threshold,
            "r1": res.r1, "r2": res.r2, "r3": res.r3, "r4": res.r4,
            "status": "pass" if ok else "fail",
        })
    text = render_table(rows, ["temperature", "r1", "r2", "r3", "r4", "status"],
                        args.format, missing="n/a (T <= omega/ln(sqrt(3)))")
    _write_output(text, args.output)
    return 0 if all(r["status"] == "pass" for r in rows) else 1


def _read_columns(path: str, pair: str
                  ) -> tuple[tuple[str, ...], list[tuple[str, tuple[str, ...]]]]:
    """The t_over_omega cells and the pair's present (field, cells) curve columns.

    One streaming pass over the CSV keeps only the picked cells of each row.
    Blank lines are skipped, as csv.DictReader does; every short row is refused.
    """
    fields = [f for f in PAIR_FIELDS if f != "concurrence"]  # the steerability curves
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            column = {name: i for i, name in enumerate(header)}
            present = [f for f in fields if f"{pair}_{f}" in column]
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
    return x, list(zip(present, cells))


def cmd_plot(args) -> int:
    pair = _PANEL_PAIR[args.panel]
    x, columns = _read_columns(args.sweep_csv, pair)
    x = list(map(float, x))
    curves = [(field, list(map(float, cells))) for field, cells in columns
              if "" not in cells]  # an empty cell: measure not selected in the sweep
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
