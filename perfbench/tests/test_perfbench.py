"""Tests of the benchmark itself.

Run from the root of the repository:
    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run as bench  # noqa: E402  (perfbench/run.py)
import workloads  # noqa: E402
from hawksteer import cli, steering_ent  # noqa: E402
from hawksteer.selfcheck import ORACLE_TOL  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ("--seconds", "1", "--scale", "0.02")


def bench_run(*args, cwd=ROOT, env=None):
    if env is None:
        env = {k: v for k, v in os.environ.items() if k != "HAWKSTEER_THREADS"}
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170, env=env)


def result(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def printed(proc, tag: str) -> dict[str, tuple[str, str]]:
    """'# <tag> name value unit ...' report lines as name -> (value, unit)."""
    out = {}
    for line in proc.stdout.splitlines():
        parts = line.split()
        if parts[:2] == ["#", tag]:
            out[parts[2]] = (parts[3], parts[4])
    return out


def sha(proc) -> str:
    (line,) = [ln for ln in proc.stdout.splitlines() if ln.startswith("# output_sha256")]
    return line.split()[-1]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric_with_its_unit(workload):
    proc = bench_run("--workload", workload, "--seed", "3", "--trace", "0", *TINY)
    assert proc.returncode == 0, proc.stderr[-2000:]
    res = result(proc)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in res["metrics"].values())
    lines = printed(proc, "metric")
    want = {}
    for stem, kind, _, unit in bench.REPORT[workload]:
        for suffix in ("s", "ref"):
            want[f"{stem}_{suffix}"] = f"{unit}/{suffix}" if kind == "rate" else suffix
    want.update(reference_ms="ms", setup_s="s", peak_rss_mb="MB", error_rate="ratio")
    assert {k: u for k, (_, u) in lines.items()} == want
    assert float(lines["error_rate"][0]) == 0.0


def test_traced_runs_repeat_counts_and_print_every_layer_metric():
    runs = [bench_run("--workload", "figures", "--seed", "4", "--trace", "1", *TINY)
            for _ in range(2)]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert result(proc)["correct"]
        assert {k: v["unit"] for k, v in result(proc)["metrics"].items()} == {
            m["name"]: m["unit"] for m in SPEC["per_layer"]}
    a, b = (result(p)["metrics"] for p in runs)
    counts = [k for k in a if a[k]["unit"] in ("count", "bytes")]
    assert counts and all(a[k]["value"] == b[k]["value"] for k in counts)
    # Completeness: one kernel call per row and selected pair, asserted in the run.
    assert a["hawking.closed_form.calls"]["value"] > 0
    assert sha(runs[0]) == sha(runs[1])


def test_traced_verify_counts_oracle_calls_per_state():
    proc = bench_run("--workload", "verify", "--seed", "4", "--trace", "1", *TINY)
    assert proc.returncode == 0, proc.stderr[-2000:]
    m = result(proc)["metrics"]
    assert m["steering_ent.concurrence_oracle.calls"]["value"] > 0
    assert m["steering_entropy.calibrations_per_oracle_call"]["value"] == 1.0
    assert "# completeness" not in proc.stdout


def test_same_seed_same_output_sha256():
    a, b, c = (bench_run("--workload", "critical", "--seed", s, "--trace", "0", *TINY)
               for s in ("7", "7", "8"))
    assert sha(a) == sha(b) != sha(c)


def test_flipped_csv_byte_counts_in_error_rate(tmp_path, monkeypatch):
    real = cli.to_csv

    def flipped(cfg, records):
        text = real(cfg, records)
        i = text.index("\n") + 1  # first byte of the first data row
        return text[:i] + ("3" if text[i] != "3" else "4") + text[i + 1:]

    monkeypatch.setattr(cli, "to_csv", flipped)
    rec = workloads.run_timed(workloads.Runner(ROOT, tmp_path), "figures", 1, 0.0, 0.02)
    assert 0 < rec.failed < rec.attempted
    assert any(f.startswith("golden_sweep") for f in rec.failures)
    assert any(f.startswith("sweep_s") for f in rec.failures)


def test_oracle_past_tolerance_counts_in_error_rate(tmp_path, monkeypatch):
    runner = workloads.Runner(ROOT, tmp_path)
    runner.run(workloads.oracle_op(5, 1), measured=True, hashed=False)
    assert (runner.record.attempted, runner.record.failed) == (1, 0)
    real = steering_ent.concurrence_oracle
    monkeypatch.setattr(steering_ent, "concurrence_oracle", lambda d: real(d) + 2 * ORACLE_TOL)
    runner.run(workloads.oracle_op(5, 1), measured=True, hashed=False)
    assert (runner.record.attempted, runner.record.failed) == (2, 1)
    assert "closed" in runner.record.failures[0]


def test_refuses_to_run_with_thread_override():
    env = dict(os.environ, HAWKSTEER_THREADS="1")
    proc = bench_run("--workload", "critical", "--seed", "1", "--trace", "0", *TINY, env=env)
    assert proc.returncode != 0 and "{" not in proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench_run("--workload", "figures", "--seed", "1", "--trace", "0", *TINY,
                     cwd=tmp_path)
    assert proc.returncode != 0 and "{" not in proc.stdout


@pytest.mark.parametrize("n, value, label", [(5, 4, "max"), (20, 9, "p50"), (100, 89, "p90")])
def test_tail_keeps_ten_samples_beyond(n, value, label):
    assert bench.tail(list(range(n))) == (value, label)
