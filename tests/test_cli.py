import csv
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from hawksteer.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN_SWEEP = [
    "sweep", "--omega", "1", "--t-min", "0.01", "--t-max", "10",
    "--steps", "50", "--grid", "linear", "--pairs", "AB,ABbar,BBbar",
    "--measures", "both",
]
GOLDEN_CRITICAL_OMEGAS = ("1e-3", "0.37", "1", "2", "7.5", "1e3")


def run_cli(args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "hawksteer", *args],
                         capture_output=True, text=True, env=env)


class TestGoldenFiles:
    def test_sweep_matches_golden(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(GOLDEN_SWEEP + ["-o", str(out)]) == 0
        assert out.read_bytes() == (DATA / "golden_sweep.csv").read_bytes()

    def test_sweep_deterministic_across_threads(self, tmp_path):
        golden = (DATA / "golden_sweep.csv").read_bytes()
        for threads in ("1", "8"):
            out = tmp_path / f"sweep_{threads}.csv"
            r = run_cli(GOLDEN_SWEEP + ["-o", str(out)],
                        env_extra={"HAWKSTEER_THREADS": threads})
            assert r.returncode == 0, r.stderr
            assert out.read_bytes() == golden

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
        for omega in ("-1", "inf", "nan"):
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


class TestPlot:
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


class TestSelfcheck:
    def test_all_pass(self, capsys):
        assert main(["selfcheck"]) == 0
        out = capsys.readouterr().out
        assert "[FAIL]" not in out
        assert out.strip().endswith("4/4 checks passed")
