import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hawksteer import cli, selfcheck, steering_ent, steering_entropy
from hawksteer.cli import main
from hawksteer.hawking import (
    HawkingParams,
    MonogamyResiduals,
    monogamy_grid,
    monogamy_threshold,
    pipeline_columns,
)
from hawksteer.selfcheck import MONOGAMY_TOL, ORACLE_TOL, PIPELINE_TOL
from hawksteer.svgplot import render_lineplot
from hawksteer.sweep import MEASURES, SweepConfig, render_table, run_sweep, to_csv, to_json

DATA = Path(__file__).parent / "data"
GOLDEN_SWEEP = [
    "sweep", "--omega", "1", "--t-min", "0.01", "--t-max", "10",
    "--steps", "50", "--grid", "linear", "--pairs", "AB,ABbar,BBbar",
    "--measures", "both",
]
GOLDEN_CRITICAL_OMEGAS = ("1e-3", "0.37", "1", "2", "7.5", "1e3")


# A 2,000-row log sweep, the input of the memory guards.
MEMORY_SWEEP = SweepConfig(omega=1.0, t_min=1e-3, t_max=1e3, steps=2000, grid="log")


def run_cli(args, env_extra=None, text=True, **run_kwargs):
    # A numpy warning leaked by the child process fails the test too.
    env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning")
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "hawksteer", *args],
                         capture_output=True, text=text, env=env, **run_kwargs)


class TestGoldenFiles:
    def test_sweep_matches_golden(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(GOLDEN_SWEEP + ["-o", str(out)]) == 0
        assert out.read_bytes() == (DATA / "golden_sweep.csv").read_bytes()

    def test_plot_matches_golden(self, tmp_path):
        out = tmp_path / "fig3.svg"
        assert main(["plot", str(DATA / "golden_sweep.csv"),
                     "--panel", "fig3", "-o", str(out)]) == 0
        assert out.read_bytes() == (DATA / "golden_fig3.svg").read_bytes()


class TestSweep:
    def test_json_agrees_with_csv(self, tmp_path):
        c, j = tmp_path / "s.csv", tmp_path / "s.json"
        base = ["sweep", "--t-min", "0.1", "--t-max", "2", "--steps", "5"]
        assert main(base + ["-o", str(c)]) == 0
        assert main(base + ["--format", "json", "-o", str(j)]) == 0
        with open(c, newline="") as fh:
            csv_rows = list(csv.DictReader(fh))
        json_rows = json.loads(j.read_text())
        assert len(csv_rows) == len(json_rows) == 5
        for cr, jr in zip(csv_rows, json_rows):
            for col, cell in cr.items():
                want = jr[col]
                assert float(cell) == want

    def test_entropy_only_leaves_ent_columns_empty(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--t-min", "0.5", "--t-max", "2", "--steps", "3",
                     "--pairs", "AB", "--measures", "entropy",
                     "-o", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        for r in rows:
            assert r["AB_t_ab"] == ""
            assert r["AB_s_ab"] != ""
            assert r["AB_concurrence"] != ""

    def test_transitions_visible_in_sweep(self):
        # The ABbar curve turns on near T = 1.82; the BBbar curve peaks
        # near 0.76 and dies near 3.21.
        with open(DATA / "golden_sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        t = [float(r["t_over_omega"]) for r in rows]
        abbar = [float(r["ABbar_t_ba"]) for r in rows]
        bbbar = [float(r["BBbar_t_ab"]) for r in rows]
        birth = next(tt for tt, v in zip(t, abbar) if v > 0.0)
        assert t[t.index(birth) - 1] <= 1.0 / math.log(math.sqrt(3.0)) <= birth
        peak = t[bbbar.index(max(bbbar))]
        assert abs(peak - 1.0 / math.log(2.0 + math.sqrt(3.0))) < 0.3
        death = next(tt for tt, v in zip(t, bbbar) if tt > peak and v == 0.0)
        assert death >= -1.0 / math.log(math.sqrt(3.0) - 1.0) - 0.3

    def test_invalid_grid_range(self, capsys):
        assert main(["sweep", "--t-min", "2", "--t-max", "1",
                     "--steps", "5"]) == 2
        assert "error:" in capsys.readouterr().err


def peak_allocation(fn, *args):
    """fn(*args) and the peak of the memory it allocated, in bytes (tracemalloc)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


# JSON cells as sweep, critical and monogamy rows hold them, and the edge
# cases of the encoder: non-finite and subnormal floats, -0.0, float
# subclasses, and strings that need escaping.
JSON_CELLS = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300]),
    st.floats().map(np.float64),
    st.none(),
    st.text(st.sampled_from('a"\\/ω😀\x00\n\t\ud800,:'), max_size=6),
)


@st.composite
def json_tables(draw):
    """(rows, cols): rows over the same keys, maybe with a key not in cols,
    as monogamy's rows carry `threshold`."""
    cols = draw(st.lists(st.text(st.sampled_from('ab"\\ω_'), max_size=4),
                         max_size=4, unique=True))
    keys = cols + draw(st.sampled_from([[], ["threshold"]]))
    rows = draw(st.lists(st.lists(JSON_CELLS, min_size=len(keys), max_size=len(keys)),
                         max_size=4))
    return [dict(zip(keys, row)) for row in rows], cols


class TestJson:
    @settings(max_examples=100, deadline=None)
    @given(json_tables())
    @example(([], []))
    @example(([{"t": 1.0, "threshold": math.nan, "status": "pass"}], ["t", "status"]))
    def test_same_bytes_as_json_dumps(self, table):
        rows, cols = table
        assert render_table(rows, cols, "json") == json.dumps(rows, indent=2) + "\n"

    @pytest.mark.parametrize("measures", ["both", "ent"])
    def test_large_sweep_same_bytes_as_json_dumps(self, measures, sweeps_10k_by_measures):
        # 10^4 rows from T = 0 (the frozen limit); "ent" leaves null cells.
        cfg, records = sweeps_10k_by_measures[measures]
        assert to_json(cfg, records) == json.dumps(records, indent=2) + "\n"

    @pytest.mark.parametrize("argv", [
        ["critical", "--omega", "0.37"],
        ["monogamy", "--t-values", "0.5,1,2,100"],
    ])
    def test_commands_same_bytes_as_json_dumps(self, argv, monkeypatch, capsys):
        tables = []

        def spy(rows, *args, **kwargs):
            tables.append(rows)
            return render_table(rows, *args, **kwargs)

        monkeypatch.setattr(cli, "render_table", spy)
        assert main(argv + ["--format", "json"]) == 0
        assert capsys.readouterr().out == json.dumps(tables[0], indent=2) + "\n"

    def test_writer_memory_bounded_by_its_text(self):
        # json.dumps(indent=2) peaks at ~5.8x the text it returns.
        records = run_sweep(MEMORY_SWEEP)
        text, peak = peak_allocation(to_json, MEMORY_SWEEP, records)
        assert peak <= 3 * len(text), peak / len(text)


class TestBoundaries:
    def test_rejects_non_finite_parameters(self, capsys):
        for argv, field in (
            (["sweep", "--omega", "inf", "--t-min", "0.1", "--t-max", "1",
              "--steps", "3"], "omega"),
            (["sweep", "--t-min", "0.1", "--t-max", "inf", "--steps", "3"], "t_max"),
            (["sweep", "--t-min", "0.1", "--t-max", "nan", "--steps", "3"], "t_max"),
            (["monogamy", "--t-values", "inf"], "temperature"),
            (["monogamy", "--omega", "inf", "--t-values", "1"], "omega"),
            # t_over_omega = 2 / 5e-324 would be inf.
            (["sweep", "--omega", "5e-324", "--t-min", "1", "--t-max", "2",
              "--steps", "2"], "t_max / omega"),
            (["sweep", "--omega", "1e-300", "--t-min", "1", "--t-max", "1e10",
              "--steps", "2"], "t_max / omega"),
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # a warning fails the call
                assert main(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.out == "", argv
            assert field in captured.err, argv

    def test_log_grid_to_the_float_max(self, capsys):
        # geomspace overflows on its way to the last point, then sets it to
        # t_max: no warning escapes, and the CSV is what it is with warnings off.
        argv = ["sweep", "--grid", "log", "--t-min", "1", "--t-max",
                "1.7976931348623157e308", "--steps", "3"]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(argv) == 0
        quiet = capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # as under python -W error
            assert main(argv) == 0
        assert capsys.readouterr() == quiet
        t = [row["t_over_omega"] for row in csv.DictReader(quiet.out.splitlines())]
        assert t[::2] == ["1.0", repr(sys.float_info.max)] and math.isfinite(float(t[1]))

    def test_linear_grid_to_the_float_max(self, capsys):
        # linspace overflows adding t_min to its last step, then sets the last
        # point to t_max: no warning escapes, and every row is finite.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["sweep", "--t-min", "1e308", "--t-max", repr(sys.float_info.max),
                         "--steps", "8"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        t = [float(row["t_over_omega"]) for row in csv.DictReader(captured.out.splitlines())]
        assert len(t) == 8 and all(map(math.isfinite, t))
        assert t[-1] == sys.float_info.max  # t_max / omega at omega = 1

    def test_monogamy_refuses_infinite_threshold(self, capsys):
        # omega / ln(sqrt 3) overflows for omega > ln(sqrt 3) * float max; the
        # JSON would hold "threshold": Infinity and every r3/r4 would be n/a.
        top = sys.float_info.max * math.log(math.sqrt(3.0))
        for omega in ("1e308", repr(math.nextafter(top, math.inf)), repr(sys.float_info.max)):
            for fmt in ("csv", "json"):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    assert main(["monogamy", "--omega", omega, "--format", fmt,
                                 "--t-values", "1"]) == 2, omega
                assert capsys.readouterr() == (
                    "", "error: omega / ln(sqrt(3)) must be finite and > 0, got inf\n"), omega
        # Just below, the threshold is finite and the JSON is strict JSON.
        omega = math.nextafter(top, 0.0)
        assert math.isfinite(monogamy_threshold(omega))
        assert main(["monogamy", "--omega", repr(omega), "--format", "json",
                     "--t-values", "1"]) == 0
        rows = json.loads(capsys.readouterr().out, parse_constant=pytest.fail)
        assert rows[0]["threshold"] == monogamy_threshold(omega)

    def test_subnormal_temperature_gives_frozen_limit(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["sweep", "--grid", "log", "--t-min", "1e-320",
                         "--t-max", "1", "--steps", "2"]) == 0
        tiny = list(csv.DictReader(capsys.readouterr().out.splitlines()))[0]
        # The first row of a linear grid from T = 0 is the frozen limit.
        assert main(["sweep", "--t-min", "0", "--t-max", "1", "--steps", "2"]) == 0
        frozen = list(csv.DictReader(capsys.readouterr().out.splitlines()))[0]
        assert float(tiny.pop("t_over_omega")) == 1e-320
        assert frozen.pop("t_over_omega") == "0.0"
        assert tiny == frozen


# Flag values at and past the edges of the float range, and one that is no number.
CLI_VALUES = st.sampled_from(["0", "1", "-1", "inf", "-inf", "nan", "5e-324", "1e-320",
                              "2.4e-312", "1e-300", "1e300", "1e308",
                              repr(sys.float_info.max), "abc"])


@st.composite
def sweep_argvs(draw):
    """A sweep argv: every number from CLI_VALUES, --steps an integer <= 17 or one of them."""
    argv = ["sweep", f"--t-min={draw(CLI_VALUES)}", f"--t-max={draw(CLI_VALUES)}",
            f"--steps={draw(st.one_of(st.integers(-1, 17).map(str), CLI_VALUES))}",
            f"--grid={draw(st.sampled_from(['linear', 'log']))}",
            f"--measures={draw(st.sampled_from(MEASURES))}"]
    return argv + ([f"--omega={draw(CLI_VALUES)}"] if draw(st.booleans()) else [])


@st.composite
def monogamy_argvs(draw):
    """A monogamy argv: 1-6 --t-values entries and maybe --omega, from CLI_VALUES."""
    argv = ["monogamy", "--t-values=" + ",".join(draw(st.lists(CLI_VALUES, min_size=1,
                                                               max_size=6)))]
    return argv + ([f"--omega={draw(CLI_VALUES)}"] if draw(st.booleans()) else [])


def refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


class TestBoundaryProperty:
    """sweep and monogamy on any of CLI_VALUES, in process with warnings as errors."""

    @settings(max_examples=300, deadline=None)
    @given(argv=st.one_of(sweep_argvs(), monogamy_argvs()),
           fmt=st.sampled_from(["csv", "json"]))
    def test_every_run_ends_one_of_three_ways(self, argv, fmt):
        # Each flag as --flag=value, so that argparse takes "-1" as a value.
        argv = argv + [f"--format={fmt}"]
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refuses a value its type cannot read
                code = exc.code
        out, err = out.getvalue(), err.getvalue()
        if code == 2:  # refused: one error line, no data
            assert out == "" and sum("error:" in line for line in err.splitlines()) == 1, err
            return
        assert code in (0, 1) and err == "", (code, err)
        rows = (json.loads(out, parse_constant=refuse_constant) if fmt == "json"
                else list(csv.DictReader(out.splitlines())))
        assert rows
        statuses = set()
        for row in rows:
            for key, v in row.items():
                if key == "status":
                    statuses.add(v)
                elif v not in (None, "", "n/a (T <= omega/ln(sqrt(3)))"):
                    assert math.isfinite(float(v)), (key, v)
                    if key.endswith(("_s_ab", "_s_ba", "_t_ab", "_t_ba")):
                        assert 0.0 <= float(v) <= 1.0, (key, v)
        # monogamy exits 1 exactly when a row fails; sweep has no status.
        assert statuses <= {"pass", "fail"} and ("fail" in statuses) == (code == 1), statuses


class TestCritical:
    def test_omega_scaling(self, tmp_path):
        outs = {}
        for omega in ("1", "2"):
            out = tmp_path / f"c{omega}.json"
            assert main(["critical", "--omega", omega, "--format", "json",
                         "-o", str(out)]) == 0
            outs[omega] = json.loads(out.read_text())
        for r1, r2 in zip(outs["1"], outs["2"]):
            assert r1["name"] == r2["name"]
            assert r2["numeric"] == pytest.approx(2.0 * r1["numeric"], rel=1e-9)

    def test_csv_has_closed_forms(self, capsys):
        assert main(["critical"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "name,closed_form,numeric,discrepancy"
        assert len(lines) == 6
        assert any("t_peak_bbbar" in line for line in lines)

    def test_rejects_bad_omega(self, capsys):
        # 1e305, 5e-324 and 1e-321 put an end of the scan grid [1e-3, 1e4] * omega
        # at inf or 0; 2.4e-312 and 1e-320 keep the grid positive, but the
        # bisection's xtol 1e-12 * omega underflows to 0.
        for omega in ("-1", "inf", "nan", "1e305", "5e-324", "1e-321", "2.4e-312",
                      "1e-320"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # a warning fails the call
                assert main(["critical", "--omega", omega]) == 2
            assert "omega" in capsys.readouterr().err, omega

    def test_matches_golden(self, tmp_path):
        # Concatenated CSV outputs pinned from the scipy-based finders, so
        # the stdlib bisection and golden-section search must replicate
        # scipy's steps exactly.
        text = b""
        for omega in GOLDEN_CRITICAL_OMEGAS:
            out = tmp_path / f"c{omega}.csv"
            assert main(["critical", "--omega", omega, "-o", str(out)]) == 0
            text += out.read_bytes()
        assert text == (DATA / "golden_critical.csv").read_bytes()


def per_temperature_table(temps, omega, fmt) -> str:
    """monogamy's output with each T through the pipeline on its own."""
    rows = []
    for t in temps:
        [res] = monogamy_grid([HawkingParams(t, omega)])
        ok = all(abs(r) <= MONOGAMY_TOL for r in res.applicable)
        rows.append({"temperature": t, "threshold": monogamy_threshold(omega),
                     "r1": res.r1, "r2": res.r2, "r3": res.r3, "r4": res.r4,
                     "status": "pass" if ok else "fail"})
    return render_table(rows, ["temperature", "r1", "r2", "r3", "r4", "status"], fmt,
                        missing="n/a (T <= omega/ln(sqrt(3)))")


class TestMonogamy:
    def test_pass_with_na_markers(self, capsys):
        assert main(["monogamy", "--t-values", "0.5,1,100"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "temperature,r1,r2,r3,r4,status"
        assert lines[1].count("n/a") == 2  # T=0.5 below the threshold
        assert lines[3].count("n/a") == 0  # T=100 has all four
        assert all(line.endswith(",pass") for line in lines[1:])

    def test_json_format(self, capsys):
        assert main(["monogamy", "--t-values", "2", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["status"] == "pass"
        assert abs(rows[0]["r3"]) <= 1e-12

    def test_rejects_negative_temperature(self, capsys):
        assert main(["monogamy", "--t-values", "-1"]) == 2
        assert "temperature" in capsys.readouterr().err

    def test_first_bad_entry_named(self, capsys):
        # Every entry is parsed and validated, in order, before any is evaluated.
        for values, err in (("1,-1,abc", "temperature must be finite and > 0, got -1.0"),
                            ("abc,-1", "--t-values entry 'abc' is not a number")):
            assert main(["monogamy", "--t-values", values]) == 2, values
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", f"error: {err}\n"), values

    @pytest.mark.parametrize("omega", [1.0, 0.37])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_same_bytes_as_per_temperature_path(self, omega, fmt, capsys):
        # T at, just around and across omega / ln(sqrt 3), and T / omega at 1e-300, 1e300.
        th = monogamy_threshold(omega)
        temps = [th, math.nextafter(th, 0.0), math.nextafter(th, math.inf),
                 *(float(t) for t in th * np.geomspace(0.5, 2.0, 13)),
                 1e-300 * omega, 1e300 * omega]
        assert main(["monogamy", "--omega", repr(omega), "--format", fmt,
                     "--t-values", ",".join(map(repr, temps))]) == 0
        assert capsys.readouterr().out == per_temperature_table(temps, omega, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_one_entry(self, fmt, capsys):
        # A grid of one temperature is a stack of one, below and above the threshold.
        for omega, t in ((1.0, 0.5), (1.0, 2.0), (0.37, 1e-300), (0.37, 1e300)):
            assert main(["monogamy", "--omega", repr(omega), "--format", fmt,
                         "--t-values", repr(t)]) == 0
            assert capsys.readouterr().out == per_temperature_table([t], omega, fmt)

    def test_rejects_non_numeric_entry(self, capsys):
        for values, entry in (("", "''"), ("1,,2", "''"), ("abc", "'abc'"),
                              ("0.5,1e", "'1e'")):
            assert main(["monogamy", "--t-values", values]) == 2, values
            captured = capsys.readouterr()
            assert captured.out == "", values
            assert captured.err.startswith("error:"), values
            assert "--t-values" in captured.err and entry in captured.err, values


GOLDEN_LINES = (DATA / "golden_sweep.csv").read_text().splitlines(keepends=True)
# Small sweep CSVs for the plot reader property: all pairs and both measures
# (the golden file), and pair subsets with one measure deselected.
PLOT_BASES = [
    "".join(GOLDEN_LINES),
    *(to_csv(cfg, run_sweep(cfg)) for cfg in (
        SweepConfig(omega=1.0, t_min=0.01, t_max=4.0, steps=8, pairs=("AB", "BBbar"),
                    measures="ent"),
        SweepConfig(omega=0.37, t_min=1e-3, t_max=1e3, steps=8, grid="log",
                    pairs=("ABbar",), measures="entropy"))),
]
# Cells that float() and np.loadtxt might read differently (the first list
# float() reads), or that csv and np.loadtxt might split differently.
PLOT_CELLS = st.one_of(st.sampled_from([
    "nan", "-nan", "NaN", "inf", "-inf", "Infinity", "-0.0", "0.0", "5e-324", "-5e-324",
    "1e308", "-1e308", "1e309", " 0.5", "0.5 ", "\t0.25\t", " 1e308 ", "1_0", "+.5",
]), st.sampled_from([
    "", " ", "0x10", "abc", '"0.5"', '"0,5"', 'x"y', "0.5,0.5", "#1", "0.5\0", "1" * 131_073,
]))


@st.composite
def plot_csvs(draw):
    """A panel, and a sweep CSV's text with that panel's pair: some of its rows,
    with cells, rows and lines mutated."""
    lines = draw(st.sampled_from(PLOT_BASES)).splitlines()
    panel = draw(st.sampled_from([panel for panel, pair in cli._PANEL_PAIR.items()
                                  if f"{pair}_s_ab," in lines[0]]))
    rows = [lines[0].split(",")] + [lines[i].split(",") for i in draw(
        st.lists(st.integers(1, len(lines) - 1), min_size=1, max_size=6))]
    for _ in range(draw(st.integers(0, 4))):
        r = draw(st.integers(0, len(rows) - 1))
        c = draw(st.integers(0, len(rows[r]) - 1))
        op = draw(st.sampled_from(["cell", "cell", "cell", "quote", "short", "extra"]))
        if op == "cell":  # in the header, the first data row or a later one
            rows[r][c] = draw(PLOT_CELLS)
        elif op == "quote":  # csv reads the cell as it is, or with a comma
            rows[r][c] = f'"{rows[r][c]}{draw(st.sampled_from(["", ","]))}"'
        elif op == "short":  # inside or outside the panel's columns
            del rows[r][c + 1:]
        else:
            rows[r] += draw(st.lists(PLOT_CELLS, min_size=1, max_size=2))
    text = [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 3))):  # blank lines, and lines of one space
        text.insert(draw(st.integers(1, len(text))), draw(st.sampled_from(["", "", " "])))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return eol.join(text) + draw(st.sampled_from([eol, ""])), panel


def plot_outcome(src: Path, panel: str, fast: bool):
    """plot's exit status, stdout, stderr and SVG bytes, with the np.loadtxt
    read on or forced off; any warning raises."""
    out, err = src.with_suffix(".svg"), io.StringIO()
    out.unlink(missing_ok=True)
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings(), \
            contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()) as std:
        warnings.simplefilter("error")
        if not fast:
            mp.setattr(cli, "_read_panel", lambda path, pair: None)
        status = main(["plot", str(src), "--panel", panel, "-o", str(out)])
    return status, std.getvalue(), err.getvalue(), out.read_bytes() if out.exists() else None


class TestPlot:
    @settings(max_examples=200, deadline=None)
    @given(plot_csvs())
    @example(("".join(GOLDEN_LINES), "fig3"))
    @example((GOLDEN_LINES[0], "fig3"))  # no data row
    @example(("\n" + "".join(GOLDEN_LINES), "fig3"))  # a blank line before the header
    # A quoted comma before the panel's columns, and an oversized field past the first row.
    @example(("".join(GOLDEN_LINES[:2]) + GOLDEN_LINES[2].replace(",", ',"0.5,",', 1), "fig1"))
    @example(("".join(GOLDEN_LINES[:2]) + GOLDEN_LINES[2].replace(",", f",{'1' * 131_073},", 1),
              "fig1"))
    def test_fast_read_same_as_csv_read(self, tmp_path_factory, csv_panel):
        # The SVG bytes, or the exit status and the error, are the same
        # whether np.loadtxt reads the columns or csv does.
        text, panel = csv_panel
        src = tmp_path_factory.getbasetemp() / "plot_property.csv"
        src.write_bytes(text.encode("utf-8"))
        assert plot_outcome(src, panel, fast=True) == plot_outcome(src, panel, fast=False)

    @pytest.mark.parametrize("measures", ["both", "ent", "entropy"])
    def test_sweep_csvs_take_the_fast_read(self, measures, sweeps_10k_by_measures, tmp_path,
                                           monkeypatch):
        # Every panel of a 10^4-row sweep is read by np.loadtxt alone, to
        # the bytes of the csv read.
        cfg, records = sweeps_10k_by_measures[measures]
        src = tmp_path / "s.csv"
        src.write_text(to_csv(cfg, records), encoding="utf-8", newline="")
        slow = {panel: plot_outcome(src, panel, fast=False) for panel in ("fig1", "fig2", "fig3")}

        def refuse(path, pair):
            raise AssertionError(f"{path} for {pair} fell back to the csv read")

        monkeypatch.setattr(cli, "_read_columns", refuse)
        for panel, want in slow.items():
            got = plot_outcome(src, panel, fast=True)
            assert got[0] == 0 and got == want, (panel, got[:3])

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="named pipes need POSIX")
    def test_pipe_and_fifo_are_read_once(self, tmp_path):
        # A pipe or a FIFO can be read only once, so plot reads it with csv
        # alone: the golden fig3 from a piped stdin and from a named FIFO.
        data = (DATA / "golden_sweep.csv").read_bytes()
        golden = (DATA / "golden_fig3.svg").read_bytes()
        fifo = tmp_path / "sweep.fifo"
        os.mkfifo(fifo)
        for name, src, feed in (("stdin", "/dev/stdin", data), ("fifo", str(fifo), None)):
            if feed is None:  # the writer's open returns once plot opens the FIFO
                threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True).start()
            out = tmp_path / f"{name}.svg"
            done = run_cli(["plot", src, "--panel", "fig3", "-o", str(out)],
                           text=False, input=feed, timeout=60)
            assert (done.returncode, done.stderr) == (0, b""), name
            assert out.read_bytes() == golden, name

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        for out in (a, b):
            assert main(["plot", str(DATA / "golden_sweep.csv"),
                         "--panel", "fig1", "-o", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().startswith("<svg")

    def test_missing_columns(self, tmp_path, capsys):
        out = tmp_path / "only_ab.csv"
        assert main(["sweep", "--t-min", "0.5", "--t-max", "2", "--steps", "3",
                     "--pairs", "AB", "-o", str(out)]) == 0
        assert main(["plot", str(out), "--panel", "fig3"]) == 2
        assert "missing columns for pair BBbar" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["plot", "no_such_file.csv", "--panel", "fig1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_temperature_column(self, tmp_path, capsys):
        lines = (DATA / "golden_sweep.csv").read_text().splitlines(keepends=True)
        bad = tmp_path / "no_t.csv"
        bad.write_text(lines[0].replace("t_over_omega", "temperature") + "".join(lines[1:]))
        assert main(["plot", str(bad), "--panel", "fig3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "t_over_omega" in err

    def test_short_row(self, tmp_path, capsys):
        lines = (DATA / "golden_sweep.csv").read_text().splitlines(keepends=True)
        bad = tmp_path / "short.csv"
        bad.write_text("".join(lines[:3]) + ",".join(lines[3].split(",")[:5]) + "\n"
                       + "".join(lines[4:]))
        assert main(["plot", str(bad), "--panel", "fig3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "row 3" in err

    def test_short_row_outside_the_panel_columns(self, tmp_path, capsys):
        # Row 3 lacks only BBbar_concurrence, which no panel plots; every
        # short row is still refused.
        lines = (DATA / "golden_sweep.csv").read_text().splitlines(keepends=True)
        bad = tmp_path / "short.csv"
        bad.write_text("".join(lines[:3]) + lines[3].rsplit(",", 1)[0] + "\n"
                       + "".join(lines[4:]))
        assert main(["plot", str(bad), "--panel", "fig1"]) == 2
        assert capsys.readouterr().err == (f"error: data row 3 of {bad} has 23 cells, "
                                           "the header has 24\n")

    def test_short_row_between_blank_lines(self, tmp_path, capsys):
        # Blank lines are skipped and not counted: the short row is data row 3.
        lines = (DATA / "golden_sweep.csv").read_text().splitlines(keepends=True)
        bad = tmp_path / "short.csv"
        bad.write_text(lines[0] + "\n" + lines[1] + "\n\n" + lines[2] + "\n"
                       + ",".join(lines[3].split(",")[:5]) + "\n" + "".join(lines[4:]))
        assert main(["plot", str(bad), "--panel", "fig3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: data row 3 of {bad} has 5 cells, the header has 24\n"

    def test_header_only(self, tmp_path, capsys):
        header = tmp_path / "header.csv"
        header.write_text((DATA / "golden_sweep.csv").read_text().splitlines()[0] + "\n")
        assert main(["plot", str(header), "--panel", "fig3"]) == 2
        assert capsys.readouterr() == ("", "error: nothing to plot\n")

    def test_oversized_field(self, tmp_path, capsys):
        # A cell over the csv module's field limit (131,072 characters).
        lines = (DATA / "golden_sweep.csv").read_text().splitlines(keepends=True)
        bad = tmp_path / "huge.csv"
        bad.write_text("".join(lines[:3]) + '"' + "1" * 140_000 + '"'
                       + lines[3][lines[3].index(","):] + "".join(lines[4:]))
        assert main(["plot", str(bad), "--panel", "fig3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {bad}, line 4: ")
        assert "field limit" in captured.err

    @pytest.mark.parametrize("measures", ["entropy", "ent"])
    def test_deselected_measure_plots_the_rest(self, measures, tmp_path):
        # The deselected measure's columns are empty and not drawn.  The
        # reference reads the CSV with csv.DictReader and renders directly.
        src, out = tmp_path / "s.csv", tmp_path / "s.svg"
        assert main(["sweep", "--t-min", "0.01", "--t-max", "10", "--steps", "50",
                     "--measures", measures, "-o", str(src)]) == 0
        assert main(["plot", str(src), "--panel", "fig2", "-o", str(out)]) == 0
        with open(src, newline="") as fh:
            rows = list(csv.DictReader(fh))
        prefix = "s_" if measures == "entropy" else "t_"
        curves = [(f, [float(r[f"ABbar_{f}"]) for r in rows])
                  for f in ("s_ab", "s_ba", "s_delta", "t_ab", "t_ba", "t_delta")
                  if f.startswith(prefix)]
        want = render_lineplot([float(r["t_over_omega"]) for r in rows], curves,
                               xlabel="T/ω", ylabel="steerability", title="fig2: pair ABbar")
        assert out.read_bytes() == want.encode("utf-8")

    def test_memory_bounded_by_the_csv(self, tmp_path):
        # Reading every cell of every row peaked at ~7.7x the file's size.
        # fig1 peaks highest of the three panels (~2.6x; fig3 ~2.2x).
        src = tmp_path / "s.csv"
        src.write_text(to_csv(MEMORY_SWEEP, run_sweep(MEMORY_SWEEP)))
        status, peak = peak_allocation(
            main, ["plot", str(src), "--panel", "fig1", "-o", str(tmp_path / "p.svg")])
        assert status == 0
        assert peak <= 5 * src.stat().st_size, peak / src.stat().st_size

    def test_csv_dialect_variants_plot_the_same(self, tmp_path):
        text = (DATA / "golden_sweep.csv").read_text()
        lines = text.splitlines(keepends=True)
        cells = lines[3].rstrip("\n").split(",")
        cells[-3] = f'"{cells[-3]}"'  # BBbar_t_ab, plotted in fig3
        variants = {
            "crlf": text.replace("\n", "\r\n"),
            "quoted": ('"t_over_omega"' + lines[0].removeprefix("t_over_omega")
                       + "".join(lines[1:3]) + ",".join(cells) + "\n" + "".join(lines[4:])),
            "blank_lines": lines[0] + "\n" + "\n".join(lines[1:]) + "\n\n",
            "extra_cell": "".join(lines[:5]) + lines[5].rstrip("\n") + ",extra\n"
                          + "".join(lines[6:]),
        }
        golden = (DATA / "golden_fig3.svg").read_bytes()
        for name, variant in variants.items():
            src, out = tmp_path / f"{name}.csv", tmp_path / f"{name}.svg"
            src.write_bytes(variant.encode())
            assert main(["plot", str(src), "--panel", "fig3", "-o", str(out)]) == 0, name
            assert out.read_bytes() == golden, name

    def test_constant_temperature(self, tmp_path):
        # One data row, or a constant t_over_omega column: the x range is
        # empty and widens to [x, x + 1], as the y range does.  At |x| >= 2^53
        # the + 1 rounds away and the range is one ulp wide instead; likewise
        # for curves that are all one value <= -2^53.
        lines = (DATA / "golden_sweep.csv").read_text().splitlines(keepends=True)
        flat = [lines[0]] + ["1.0" + line[line.index(","):] for line in lines[1:]]
        huge_x = "1e17" + lines[1][lines[1].index(","):]
        huge_y = ",".join(["1.0"] + ["-1e17"] * (lines[0].count(",") - 1) + ["0.5"]) + "\n"
        for name, text, points in (("one_row", lines[0] + lines[1], 1),
                                   ("flat", "".join(flat), len(lines) - 1),
                                   ("huge_x", lines[0] + huge_x, 1),
                                   ("huge_negative_y", lines[0] + huge_y, 1)):
            src, out = tmp_path / f"{name}.csv", tmp_path / f"{name}.svg"
            src.write_text(text)
            assert main(["plot", str(src), "--panel", "fig3", "-o", str(out)]) == 0, name
            polylines = re.findall(r'<polyline points="([^"]*)"', out.read_text())
            assert len(polylines) == 6, name
            for pts in polylines:
                xs = [p.split(",")[0] for p in pts.split(" ")]
                assert xs == ["70"] * points, name

    def test_output_independent_of_locale(self, tmp_path):
        # Under the C locale without UTF-8 mode the locale encoding is ASCII,
        # which cannot encode the "ω" of the axis label.  Both the -o file and
        # stdout get the UTF-8 bytes.
        out = tmp_path / "fig3.svg"
        golden = (DATA / "golden_fig3.svg").read_bytes()
        argv = ["plot", str(DATA / "golden_sweep.csv"), "--panel", "fig3"]
        locale = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
        r = run_cli(argv + ["-o", str(out)], env_extra=locale)
        assert r.returncode == 0, r.stderr
        assert out.read_bytes() == golden
        r = run_cli(argv, env_extra=locale, text=False)
        assert r.returncode == 0, r.stderr
        assert r.stdout == golden

    def test_stdout_redirected_in_process(self):
        # A text stream without a byte buffer gets the same text.
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(["plot", str(DATA / "golden_sweep.csv"), "--panel", "fig3"]) == 0
        assert buf.getvalue().encode("utf-8") == (DATA / "golden_fig3.svg").read_bytes()


# For each selfcheck check, a stand-in that makes its oracle, pipeline or
# residuals NaN: (module, attribute, replacement).
def nan_pipeline_columns(params):
    return {pair: dataclasses.replace(col, concurrence=np.full_like(col.concurrence, math.nan))
            for pair, col in pipeline_columns(params).items()}


NAN_PATCHES = {
    "check_concurrence_oracle": (steering_ent, "concurrence_oracle", lambda d: math.nan),
    "check_entropy_oracle": (steering_entropy, "entropy_sum_from_oracle",
                             lambda d, direction: math.nan),
    "check_pipeline_equivalence": (selfcheck, "pipeline_columns", nan_pipeline_columns),
    "check_monogamy": (selfcheck, "monogamy_grid",
                       lambda params: [MonogamyResiduals(r1=math.nan, r2=0.0, r3=None, r4=None)
                                       for _ in params]),
}


class TestSelfcheck:
    def test_all_pass(self, capsys):
        assert main(["selfcheck"]) == 0
        out = capsys.readouterr().out
        assert "[FAIL]" not in out
        assert out.strip().endswith("4/4 checks passed")
        # One [PASS] line per check, in ALL_CHECKS order, each worst case
        # within the tolerance that check applies.
        lines = out.splitlines()[:-1]
        tolerances = (ORACLE_TOL, ORACLE_TOL, PIPELINE_TOL, MONOGAMY_TOL)
        assert len(lines) == len(tolerances)
        for line, tol in zip(lines, tolerances):
            assert line.startswith("[PASS] "), line
            assert float(line.rsplit(" ", 1)[1]) <= tol, line

    @pytest.mark.parametrize("check", NAN_PATCHES)
    def test_nan_fails(self, monkeypatch, capsys, check):
        # A NaN is no discrepancy within tolerance: the check fails, and so
        # does a selfcheck run (here of that one check).
        target, name, fake = NAN_PATCHES[check]
        calls = []

        def stand_in(*args):
            calls.append(args)
            return fake(*args)

        monkeypatch.setattr(target, name, stand_in)
        monkeypatch.setattr(selfcheck, "ALL_CHECKS", (getattr(selfcheck, check),))
        assert main(["selfcheck"]) == 1
        assert calls, f"{name} was patched but never called"
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 2 and out[1] == "0/1 checks passed", out
        assert out[0].startswith("[FAIL] ") and out[0].endswith(" nan"), out
