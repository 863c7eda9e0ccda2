"""hawksteer benchmark: one seeded closed-loop client per workload.

Usage, from the root of a checkout:
    python3 perfbench/run.py --workload figures|critical|verify --seed N \
        --seconds S --trace 0|1 [--scale F]

--trace 0 measures the end-to-end metrics: set-up time from fresh
interpreters, then the workload in one child process (perfbench/worker.py)
for S seconds.  --trace 1 runs each round of a fixed, seeded list in the
child twice, untraced and traced, and reports the per-layer metrics.
--scale shrinks the inputs (sweep rows, batch and grid sizes) for the
benchmark's own tests; the benchmark proper uses 1.

Report lines start with '#'; the last line of stdout is the JSON result
{"correct", "attempted", "failed", "metrics"}.  Everything the run saw
(samples, failures, environment) is also written to
.perfbench_out/result-<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
WORKER = Path(__file__).resolve().parent / "worker.py"
THREADS_ENV = "HAWKSTEER_THREADS"
RUN_LIMIT_S = 175.0
SETUP_LAUNCHES = 6
IMPORTTIME_LAUNCHES = 3
IMPORT_CMD = "import hawksteer.cli"

# Per workload, the metrics the report prints: (name stem, kind, sample
# key, work unit).  Each is printed twice: in seconds (`<stem>_s`) and in
# units of the reference operation (`<stem>_ref`, see workloads.reference).
# A "rate" is the work one command does over its median time; every
# command of a kind does the same amount of work.
REPORT = {
    "figures": (
        ("sweep_rows_per", "rate", "sweep_s", "rows"),
        ("sweep_p50", "p50", "sweep_s", None),
        ("sweep_tail", "tail", "sweep_s", None),
        ("plot_rows_per", "rate", "plot_s", "rows"),
        ("plot_p50", "p50", "plot_s", None),
        ("plot_tail", "tail", "plot_s", None),
    ),
    "critical": (
        ("critical_omegas_per", "rate", "critical_s", "omegas"),
        ("critical_p50", "p50", "critical_s", None),
        ("critical_tail", "tail", "critical_s", None),
    ),
    "verify": (
        ("verify_states_per", "rate", "oracle_s", "states"),
        ("oracle_batch_p50", "p50", "oracle_s", None),
        ("pipeline_temps_per", "rate", "pipeline_s", "temps"),
        ("pipeline_p50", "p50", "pipeline_s", None),
        ("pipeline_tail", "tail", "pipeline_s", None),
        ("selfcheck", "p50", "selfcheck_s", None),
    ),
}

# The end-to-end metrics of BENCHMARK.json, in reference units, each the
# same role in every workload: throughput, and the median and tail latency
# of the workload's most frequent command.  On figures that is `plot`: the
# sweep's thread pool swings by more than any bound between runs (see
# README.md), so the sweep metrics are printed but not gated.
E2E = {
    "throughput_per_ref": ("1/ref", {"figures": "plot_rows_per",
                                     "critical": "critical_omegas_per",
                                     "verify": "verify_states_per"}),
    "cmd_p50_ref": ("ref", {"figures": "plot_p50", "critical": "critical_p50",
                            "verify": "pipeline_p50"}),
    "cmd_tail_ref": ("ref", {"figures": "plot_tail", "critical": "critical_tail",
                             "verify": "pipeline_tail"}),
}

SETUP_FAMILIES = {"numpy": "setup.numpy_import_s",
                  "scipy": "setup.scipy_optimize_import_s",
                  "hawksteer": "setup.hawksteer_import_s"}

LAYER_UNITS = {"self_s": "s", "calls": "count", "bytes": "bytes", "us_per_call": "us",
               "pool_workers": "count", "kernel_calls_per_omega": "count",
               "calibrations_per_oracle_call": "ratio", "overhead_ratio": "ratio"}


def layer_unit(name: str) -> str:
    return "s" if name.startswith("setup.") else LAYER_UNITS[name.rsplit(".", 1)[1]]


def tail(values: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it (the max below 11)."""
    xs = sorted(values)
    n = len(xs)
    if n < 11:
        return xs[-1], "max"
    return xs[n - 11], f"p{100 * (n - 10) // n}"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def setup_times(launches: int) -> list[float]:
    """Wall time of fresh interpreters that import hawksteer.cli and exit."""
    out = []
    for _ in range(launches):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_CMD], env=child_env(), cwd=ROOT,
                       check=True, timeout=60)
        out.append(time.perf_counter() - start)
    return out


def import_breakdown(launches: int) -> dict[str, float]:
    """Median import time of numpy, scipy (optimize and what it pulls in) and hawksteer.

    `-X importtime` prints one line per module, children before their
    parent and indented one step deeper.  A family's time is the sum of
    the cumulative times of its members that have no ancestor in the
    family (for numpy and scipy: in either of the two, so numpy modules
    that scipy pulls in count for scipy).  scipy's lazy loader lists the
    `scipy.optimize` submodules directly under `hawksteer.hawking`,
    without a `scipy.optimize` line of their own.
    """
    seen: dict[str, list[float]] = {m: [] for m in SETUP_FAMILIES}
    for _ in range(launches):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", IMPORT_CMD],
                              env=child_env(), cwd=ROOT, check=True, timeout=60,
                              capture_output=True, text=True)
        totals = dict.fromkeys(SETUP_FAMILIES, 0.0)
        ancestors: list[tuple[int, str]] = []
        for line in reversed(proc.stderr.splitlines()):
            cells = line.removeprefix("import time:").split("|")
            if len(cells) != 3 or not cells[1].strip().isdigit():
                continue
            depth = len(cells[2]) - len(cells[2].lstrip())
            name = cells[2].strip()
            while ancestors and ancestors[-1][0] >= depth:
                ancestors.pop()
            family = name.split(".")[0]
            owners = {family} if family == "hawksteer" else {"numpy", "scipy"}
            if family in totals and all(a.split(".")[0] not in owners for _, a in ancestors):
                totals[family] += int(cells[1]) * 1e-6
            ancestors.append((depth, name))
        for family, value in totals.items():
            seen[family].append(value)
    return {metric: statistics.median(seen[f]) for f, metric in SETUP_FAMILIES.items()}


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict[str, str]:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "missing"
    return {"nproc": str(len(os.sched_getaffinity(0))), "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"), "commit": commit()}


def run_worker(args, deadline: float) -> dict:
    OUT.mkdir(exist_ok=True)
    result_path = OUT / f"worker-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", repr(args.scale), "--result", str(result_path)]
    proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT, stdout=sys.stderr)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RuntimeError("worker timed out")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise RuntimeError(f"worker exited {code}")
    with open(result_path) as fh:
        return json.load(fh)


def summarize(workload: str, res: dict) -> dict[str, tuple[float, str, str]]:
    """Report metrics as name -> (value, unit, sample note)."""
    out = {}
    for stem, kind, key, unit in REPORT[workload]:
        for suffix, samples in (("s", res["samples"]), ("ref", res["ref_samples"])):
            name = f"{stem}_{suffix}"
            xs = samples[key]
            if kind == "rate":
                per_command = res["work"][key] / len(xs)
                out[name] = (per_command / statistics.median(xs), f"{unit}/{suffix}",
                             f"n={len(xs)} ({per_command:g} {unit} each)")
            elif kind == "p50":
                out[name] = (statistics.median(xs), suffix, f"n={len(xs)}")
            else:
                value, pct = tail(xs)
                out[name] = (value, suffix, f"{pct} n={len(xs)}")
    return out


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through run_worker, which stops the worker


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=tuple(REPORT), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", type=float, default=1.0)
    args = ap.parse_args(argv)
    if args.seconds < 1 or not (0.0 < args.scale <= 1.0):
        ap.error("need --seconds >= 1 and 0 < --scale <= 1")
    if THREADS_ENV in os.environ:
        print(f"error: {THREADS_ENV} is set; the benchmark measures the default "
              "thread pool, unset it", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "hawksteer" / "__init__.py").is_file() \
            or not (ROOT / "tests" / "data" / "golden_sweep.csv").is_file():
        print(f"error: no hawksteer source tree under {ROOT}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    env = environment()
    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} scale={args.scale:g}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    try:
        if args.trace:
            setup = import_breakdown(IMPORTTIME_LAUNCHES)
            res = run_worker(args, deadline)
        else:
            # Half the launches before the workload and half after, so the
            # median spans the run's own stretch of machine time.
            setup = setup_times(SETUP_LAUNCHES // 2)
            res = run_worker(args, deadline)
            setup += setup_times(SETUP_LAUNCHES - SETUP_LAUNCHES // 2)
    except (RuntimeError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    problems = res.get("completeness", [])
    correct = res["failed"] == 0 and not problems
    print(f"# output_sha256 {args.workload} seed={args.seed} {res['output_sha256']}")
    for line in res["failures"]:
        print(f"# failure {line}")
    if args.trace:
        layers = dict(res["layers"], **setup)
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(layers.items())}
        for line in problems:
            print(f"# completeness {line}")
        if res["untraced"]:
            print(f"# not traced (missing): {', '.join(res['untraced'])}")
        print(f"# spans written to {res['spans']}")
        for k, m in metrics.items():
            print(f"# layer {k} {m['value']:.6g} {m['unit']}")
    else:
        report = summarize(args.workload, res)
        report["reference_ms"] = (1e3 * statistics.median(res["refs"]), "ms",
                                  f"n={len(res['refs'])}")
        report["setup_s"] = (statistics.median(setup), "s", f"n={len(setup)}")
        report["peak_rss_mb"] = (res["peak_rss_mb"], "MB", "n=1")
        for name, (value, unit, note) in report.items():
            print(f"# metric {name} {value:.6g} {unit} {note}")
        print(f"# metric error_rate {res['failed'] / res['attempted']:.6g} ratio "
              f"n={res['attempted']} ({res['failed']} failed)")
        metrics = {name: {"value": report[per[args.workload] + "_ref"][0], "unit": unit}
                   for name, (unit, per) in E2E.items()}
        metrics["setup_s"] = {"value": report["setup_s"][0], "unit": "s"}
        metrics["peak_rss_mb"] = {"value": report["peak_rss_mb"][0], "unit": "MB"}
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump({"args": vars(args), "env": env, "setup": setup, "worker": res,
                   "metrics": metrics}, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
