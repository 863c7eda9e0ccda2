"""Command-line front end.

Subcommands: sweep, critical, monogamy, plot, selfcheck.  Data goes to
the output file (or stdout), diagnostics to stderr; the exit status is
nonzero iff something failed.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

from . import selfcheck as selfcheck_mod
from .hawking import (
    PAIRS,
    HawkingParams,
    critical_temperatures,
    monogamy_residuals,
    monogamy_threshold,
)
from .selfcheck import MONOGAMY_TOL
from .sweep import MEASURES, SweepConfig, run_sweep, to_csv, to_json
from .svgplot import render_lineplot

_PANEL_PAIR = {"fig1": "AB", "fig2": "ABbar", "fig3": "BBbar"}
_CURVE_FIELDS = ("s_ab", "s_ba", "s_delta", "t_ab", "t_ba", "t_delta")


def _write_output(text: str, path: str | None):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _fmt_opt(v: float | None) -> str:
    return "" if v is None else repr(float(v))


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
    if args.format == "json":
        text = json.dumps(rows, indent=2) + "\n"
    else:
        lines = ["name,closed_form,numeric,discrepancy"]
        for r in rows:
            lines.append(",".join([r["name"], _fmt_opt(r["closed_form"]),
                                   _fmt_opt(r["numeric"]), _fmt_opt(r["discrepancy"])]))
        text = "\n".join(lines) + "\n"
    _write_output(text, args.output)
    return status


def cmd_monogamy(args) -> int:
    if args.omega <= 0:
        raise ValueError(f"omega must be > 0, got {args.omega}")
    temps = [float(v) for v in args.t_values.split(",")]
    for t in temps:
        if t <= 0:
            raise ValueError(f"temperature must be > 0, got {t}")
    na = "n/a (T <= omega/ln(sqrt(3)))"
    threshold = monogamy_threshold(args.omega)
    rows = []
    for t in temps:
        res = monogamy_residuals(HawkingParams(t, args.omega))
        ok = all(abs(r) <= MONOGAMY_TOL for r in res.applicable)
        rows.append({
            "temperature": t,
            "threshold": threshold,
            "r1": res.r1, "r2": res.r2, "r3": res.r3, "r4": res.r4,
            "status": "pass" if ok else "fail",
        })
    if args.format == "json":
        text = json.dumps(rows, indent=2) + "\n"
    else:
        lines = ["temperature,r1,r2,r3,r4,status"]
        for r in rows:
            cells = [repr(float(r["temperature"])), repr(float(r["r1"])),
                     repr(float(r["r2"])),
                     na if r["r3"] is None else repr(float(r["r3"])),
                     na if r["r4"] is None else repr(float(r["r4"])),
                     r["status"]]
            lines.append(",".join(cells))
        text = "\n".join(lines) + "\n"
    _write_output(text, args.output)
    return 0 if all(r["status"] == "pass" for r in rows) else 1


def cmd_plot(args) -> int:
    pair = _PANEL_PAIR[args.panel]
    with open(args.sweep_csv, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
        fieldnames = reader.fieldnames or []
    needed = [f"{pair}_{f}" for f in _CURVE_FIELDS]
    if not any(col in fieldnames for col in needed):
        raise ValueError(f"missing columns for pair {pair} in {args.sweep_csv}")
    x = [float(r["t_over_omega"]) for r in rows]
    curves = []
    for field, col in zip(_CURVE_FIELDS, needed):
        if col not in fieldnames:
            continue
        cells = [r[col] for r in rows]
        if any(c == "" for c in cells):
            continue  # measure not selected in the sweep
        curves.append((field, [float(c) for c in cells]))
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
