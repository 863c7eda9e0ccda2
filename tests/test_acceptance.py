"""Acceptance gate: the ten headline guarantees, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines.  Each
test prints its verdict before asserting, so a red criterion still
reports its measured numbers.
"""

import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from hawksteer.hawking import (
    HawkingParams,
    closed_form_report,
    critical_temperatures,
    monogamy_grid,
    monogamy_threshold,
    pipeline_report,
)
from hawksteer.selfcheck import (
    ORACLE_TOL,
    PIPELINE_TOL,
    check_concurrence_oracle,
    check_entropy_oracle,
    check_pipeline_equivalence,
    grid_temperatures,
)

SQRT3 = math.sqrt(3.0)
DATA = Path(__file__).parent / "data"

HOT = HawkingParams(1e4, 1.0)


def verdict(num: int, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, detail


def timed_best(fn, repeats=20):
    best = math.inf
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return out, best


def test_criterion_1_entropy_asymmetry_asymptote():
    rep, secs = timed_best(lambda: closed_form_report(HOT, "AB"))
    dev = abs(rep.entropy.delta - 0.0944)
    ok = dev < 5e-4 and secs < 1e-3
    verdict(1, ok, f"entropy asymmetry at T=1e4w: |delta - 0.0944| = {dev:.2e} "
                   f"(< 5e-4), runtime {secs * 1e3:.3f} ms (< 1 ms)")


def test_criterion_2_ent_asymmetry_asymptote():
    # The quantifier asymmetry approaches sqrt(3)/12 only as 1/T; at
    # T = 1e4 w the remaining gap is ~1.4e-5, above the 1e-6 demand.
    # The computation is faithful; the stated tolerance needs T >~ 1.5e5 w.
    rep, secs = timed_best(lambda: closed_form_report(HOT, "AB"))
    dev = abs(rep.ent.delta - SQRT3 / 12.0)
    ok = dev < 1e-6 and secs < 1e-3
    verdict(2, ok, f"quantifier asymmetry at T=1e4w: |delta - sqrt(3)/12| = "
                   f"{dev:.2e} (< 1e-6), runtime {secs * 1e3:.3f} ms (< 1 ms)")


def test_criterion_3_critical_temperatures():
    t0 = time.perf_counter()
    ct = critical_temperatures(1.0)
    secs = time.perf_counter() - t0
    rels = []
    for pt, want, tol in (
        (ct.t_birth_ent_abar_to_a, 1.0 / math.log(SQRT3), 1e-6),
        (ct.t_peak_bbbar, 1.0 / math.log(2.0 + SQRT3), 1e-6),
        (ct.t_death_bbbar, -1.0 / math.log(SQRT3 - 1.0), 1e-6),
        (ct.t_birth_entropy_abar_to_a, 5.8021, 1e-3),
    ):
        rels.append((abs(pt.numeric - want) / want, tol))
    ok = all(r <= tol for r, tol in rels) and secs < 1.0
    worst = max(r / tol for r, tol in rels)
    verdict(3, ok, f"four critical temperatures within tolerance "
                   f"(worst at {worst:.2f}x of its budget), runtime {secs:.3f} s (< 1 s)")


def test_criterion_4_monogamy():
    t0 = time.perf_counter()
    residuals = []
    grid = grid_temperatures()
    for t, r in zip(grid, monogamy_grid([HawkingParams(float(t), 1.0) for t in grid])):
        if t <= monogamy_threshold(1.0):
            assert r.r3 is None and r.r4 is None
        residuals += r.applicable
    worst = float(np.max(np.abs(residuals)))  # a NaN residual is the worst and fails
    secs = time.perf_counter() - t0
    ok = worst <= 1e-12 and secs < 1.0
    verdict(4, ok, f"monogamy residuals on 200-point grid: worst {worst:.2e} "
                   f"(<= 1e-12), runtime {secs:.2f} s (< 1 s)")


def selfcheck_verdict(num: int, check, tol: float):
    # The selfcheck suite is the one implementation of criteria 5-7: 1000
    # random X-states (seed 20240817) plus the 200-point grid x 3 pairs.
    # The gate still demands 1e-10 whatever tolerance selfcheck applies.
    name, ok, detail = check()
    verdict(num, ok and tol <= 1e-10, f"{name}: {detail} (<= {tol:g})")


def test_criterion_5_concurrence_oracle():
    selfcheck_verdict(5, check_concurrence_oracle, ORACLE_TOL)


def test_criterion_6_entropy_oracle():
    selfcheck_verdict(6, check_entropy_oracle, ORACLE_TOL)


def test_criterion_7_pipeline_equivalence():
    selfcheck_verdict(7, check_pipeline_equivalence, PIPELINE_TOL)


def test_criterion_8_exact_zeros():
    ok = True
    for t in grid_temperatures():
        rep = pipeline_report(HawkingParams(float(t), 1.0), "BBbar")
        if rep.entropy.s_ab != 0.0 or rep.entropy.s_ba != 0.0 or rep.ent.t_ba != 0.0:
            ok = False
            break
    verdict(8, ok, "entropy steerabilities and reverse quantifier of the "
                   "horizon pair are exactly 0 across the grid")


def test_criterion_9_orderings_and_shapes():
    grid = grid_temperatures()
    ab = [closed_form_report(HawkingParams(float(t), 1.0), "AB") for t in grid]
    ok = all(r.entropy.s_ab >= r.entropy.s_ba for r in ab)
    for f, g in (("s_ab", "entropy"), ("s_ba", "entropy"), ("t_ab", "ent"), ("t_ba", "ent")):
        vals = [getattr(getattr(r, g), f) for r in ab]
        ok = ok and all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
    bb = [closed_form_report(HawkingParams(float(t), 1.0), "BBbar").ent.t_ab
          for t in grid]
    signs = [np.sign(b - a) for a, b in zip(bb, bb[1:]) if b != a]
    flips = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    ok = ok and flips == 1
    hot = HawkingParams(1e6, 1.0)
    a, b = closed_form_report(hot, "AB"), closed_form_report(hot, "ABbar")
    ok = ok and abs(a.entropy.s_ab - b.entropy.s_ab) < 1e-5
    ok = ok and abs(a.ent.t_ab - b.ent.t_ab) < 1e-5
    verdict(9, ok, "directional ordering, monotone decay, unimodal horizon "
                   "curve and 1e-5 asymptotic pairing all hold")


def test_criterion_10_cli_determinism(tmp_path):
    cmd = [sys.executable, "-m", "hawksteer", "sweep", "--omega", "1",
           "--t-min", "0.01", "--t-max", "10", "--steps", "50",
           "--grid", "linear", "--pairs", "AB,ABbar,BBbar", "--measures", "both"]
    golden_csv = (DATA / "golden_sweep.csv").read_bytes()
    ok = True
    for run in range(3):
        out = tmp_path / f"s{run}.csv"
        r = subprocess.run(cmd + ["-o", str(out)], capture_output=True)
        ok = ok and r.returncode == 0 and out.read_bytes() == golden_csv
    svg = tmp_path / "f.svg"
    for _ in range(2):
        r = subprocess.run([sys.executable, "-m", "hawksteer", "plot",
                            str(DATA / "golden_sweep.csv"), "--panel", "fig3",
                            "-o", str(svg)], capture_output=True)
        ok = ok and r.returncode == 0
        ok = ok and svg.read_bytes() == (DATA / "golden_fig3.svg").read_bytes()
    verdict(10, ok, "sweep CSV and panel SVG byte-identical across runs")
