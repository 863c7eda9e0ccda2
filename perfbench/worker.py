"""Child process of run.py: runs one workload in-process and writes its record.

Usage (run.py starts it with PYTHONPATH pointing at the checkout's src/):
    python3 perfbench/worker.py --workload figures --seed 1 --seconds 30 \
        --trace 0 --scale 1 --result out.json
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
from pathlib import Path

import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"


def completeness(tracer, fixed) -> list[str]:
    """Exact span counts each traced operation must give; returns the mismatches."""
    ops = [op for ops in fixed for op in ops]
    counted = {}
    problems = []
    for op_id, op in enumerate(ops):
        for name, want in (op.expect or {}).items():
            if name not in counted:
                counted[name] = tracer.calls_by_op(name)
            got = counted[name].get(op_id, 0)
            if got != want:
                problems.append(f"{op.kind} #{op_id}: {name}.calls = {got}, expected {want}")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    workdir = OUT / f"work-{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    result = {}
    try:
        if args.trace:
            t = tracing.Tracer()
            runner = workloads.Runner(ROOT, workdir, t)
            rec, plain_s, traced_s, fixed = workloads.run_traced(
                runner, t, args.workload, args.seed, args.seconds, args.scale)
            layers = t.layer_metrics()
            layers["tracing.overhead_ratio"] = traced_s / plain_s
            problems = completeness(t, fixed)
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.csv"
            t.write_spans(spans)
            result.update(layers=layers, completeness=problems, untraced=t.missing,
                          spans=str(spans.relative_to(ROOT)))
        else:
            runner = workloads.Runner(ROOT, workdir)
            rec = workloads.run_timed(runner, args.workload, args.seed, args.seconds,
                                      args.scale)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.update(
        samples=rec.samples, ref_samples=rec.ref_samples, refs=[d for _, d in rec.refs],
        work=rec.work, attempted=rec.attempted, failed=rec.failed,
        failures=rec.failures[:20], output_sha256=rec.sha.hexdigest(),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
