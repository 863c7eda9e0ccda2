"""Spans around calls into the hawksteer modules, recorded from outside.

`Tracer.install()` replaces each traced function with a wrapper in every
hawksteer module namespace that holds it (including tuples such as
`selfcheck.ALL_CHECKS`), so a call made through any import site is
seen.  Each wrapper records one span: name, start, end, parent span,
operation id and thread.  Spans stay in memory, one buffer per thread,
until `write_spans()` at the end of the run; `layer_metrics()` turns
them into the per-layer metrics.

Two rules keep the counts exact:

- a call that enters a layer while the same layer is already the
  innermost open span on that thread (`closed_form_report` calling
  `closed_form_report_from_amplitudes`) is one call, not two;
- a span opened on a worker thread with nothing open on it (the
  `run_sweep` thread pool) takes the innermost open span of the main
  thread as its parent.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
from array import array
from collections import defaultdict
from time import perf_counter

# (module, attribute, layer name).  Twin entry points share a layer name.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("sweep", "run_sweep", "sweep.run_sweep"),
    ("sweep", "to_csv", "sweep.to_csv"),
    ("sweep", "to_json", "sweep.to_json"),
    ("hawking", "amplitudes", "hawking.amplitudes"),
    ("hawking", "closed_form_report", "hawking.closed_form"),
    ("hawking", "closed_form_report_from_amplitudes", "hawking.closed_form"),
    ("hawking", "critical_temperatures", "hawking.critical_temperatures"),
    ("hawking", "pipeline_report", "hawking.pipeline_report"),
    ("hawking", "pipeline_report_from_amplitudes", "hawking.pipeline_report"),
    ("hawking", "tripartite_state", "hawking.tripartite_state"),
    ("hawking", "monogamy_residuals", "hawking.monogamy_residuals"),
    ("qstate", "DenseState.__post_init__", "qstate.DenseState"),
    ("qstate", "partial_trace", "qstate.partial_trace"),
    ("qstate", "extract_xstate", "qstate.extract_xstate"),
    ("qstate", "embed_dense", "qstate.embed_dense"),
    ("qstate", "bloch_coefficients", "qstate.bloch_coefficients"),
    ("steering_ent", "concurrence_oracle", "steering_ent.concurrence_oracle"),
    ("steering_ent", "concurrence_xstate", "steering_ent.concurrence_xstate"),
    ("steering_ent", "steerability_ent", "steering_ent.steerability_ent"),
    ("steering_entropy", "entropy_sum_oracle", "steering_entropy.entropy_sum_oracle"),
    ("steering_entropy", "entropy_sum_closed_form",
     "steering_entropy.entropy_sum_closed_form"),
    ("steering_entropy", "steerability_entropy", "steering_entropy.steerability_entropy"),
    ("steering_entropy", "oracle_affine_calibration",
     "steering_entropy.oracle_affine_calibration"),
    ("steering_entropy", "entropy_sum_from_oracle",
     "steering_entropy.entropy_sum_from_oracle"),
    ("selfcheck", "check_concurrence_oracle", "selfcheck.check_concurrence_oracle"),
    ("selfcheck", "check_entropy_oracle", "selfcheck.check_entropy_oracle"),
    ("selfcheck", "check_pipeline_equivalence", "selfcheck.check_pipeline_equivalence"),
    ("selfcheck", "check_monogamy", "selfcheck.check_monogamy"),
    ("svgplot", "render_lineplot", "svgplot.render_lineplot"),
)

# Layers whose string result is output; its UTF-8 size is summed as `.bytes`.
BYTES_LAYERS = ("sweep.to_csv", "sweep.to_json", "svgplot.render_lineplot")

SELF_S = (
    "cli.main", "sweep.run_sweep", "sweep.to_csv", "sweep.to_json",
    "hawking.amplitudes", "hawking.closed_form", "hawking.critical_temperatures",
    "hawking.pipeline_report", "hawking.tripartite_state", "hawking.monogamy_residuals",
    "qstate.DenseState", "qstate.partial_trace", "qstate.extract_xstate",
    "qstate.embed_dense", "qstate.bloch_coefficients",
    "steering_ent.concurrence_oracle", "steering_ent.concurrence_xstate",
    "steering_ent.steerability_ent",
    "steering_entropy.entropy_sum_oracle", "steering_entropy.entropy_sum_closed_form",
    "steering_entropy.steerability_entropy",
    "selfcheck.check_concurrence_oracle", "selfcheck.check_entropy_oracle",
    "selfcheck.check_pipeline_equivalence", "selfcheck.check_monogamy",
    "svgplot.render_lineplot",
)
CALLS = (
    "hawking.amplitudes", "hawking.closed_form", "hawking.pipeline_report",
    "qstate.DenseState", "steering_ent.concurrence_oracle",
    "steering_entropy.entropy_sum_oracle",
)


class _Buffer:
    """Spans finished on one thread, as parallel arrays."""

    def __init__(self, thread: int):
        self.thread = thread
        self.stack: list[tuple[int, int]] = []  # open spans: (span id, layer index)
        self.ids = array("q")
        self.names = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.ops = array("q")


class Tracer:
    def __init__(self):
        self.paused = False
        self.op = -1
        self.names: list[str] = []
        self.missing: list[str] = []
        self.bytes: dict[str, int] = defaultdict(int)
        self._index: dict[str, int] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[_Buffer] = []
        self._undo: list[tuple[object, str, object]] = []
        self._main = self._buffer()

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            with self._lock:
                buf = _Buffer(len(self._buffers))
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def _wrap(self, fn, name: str):
        idx = self._index.setdefault(name, len(self._index))
        if idx == len(self.names):
            self.names.append(name)
        sized = name in BYTES_LAYERS
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            buf = tracer._buffer()
            stack = buf.stack
            if stack and stack[-1][1] == idx:
                return fn(*args, **kwargs)
            if stack:
                parent = stack[-1][0]
            else:
                main_stack = tracer._main.stack
                parent = main_stack[-1][0] if main_stack and buf is not tracer._main else -1
            sid = next(tracer._ids)
            stack.append((sid, idx))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                buf.ids.append(sid)
                buf.names.append(idx)
                buf.starts.append(start)
                buf.ends.append(end)
                buf.parents.append(parent)
                buf.ops.append(tracer.op)
            if sized:
                tracer.bytes[name] += len(result.encode())
            return result

        return wrapper

    def install(self):
        """Wrap every target in every loaded hawksteer module namespace."""
        self.missing = []
        modules = [m for n, m in sys.modules.items()
                   if n == "hawksteer" or n.startswith("hawksteer.")]
        for modname, attr, name in TARGETS:
            mod = sys.modules.get(f"hawksteer.{modname}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                orig = None if cls is None else cls.__dict__.get(meth)
                if orig is None:
                    self.missing.append(f"{modname}.{attr}")
                    continue
                setattr(cls, meth, self._wrap(orig, name))
                self._undo.append((cls, meth, orig))
                continue
            orig = getattr(mod, attr, None)
            if orig is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            wrapped = self._wrap(orig, name)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapped)
                    elif type(value) is tuple and any(v is orig for v in value):
                        setattr(m, key, tuple(wrapped if v is orig else v for v in value))
                    else:
                        continue
                    self._undo.append((m, key, value))

    def uninstall(self):
        for obj, key, value in reversed(self._undo):
            setattr(obj, key, value)
        self._undo.clear()

    def spans(self):
        """All finished spans as (id, name, start, end, parent, op, thread)."""
        for buf in self._buffers:
            for k in range(len(buf.ids)):
                yield (buf.ids[k], self.names[buf.names[k]], buf.starts[k], buf.ends[k],
                       buf.parents[k], buf.ops[k], buf.thread)

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("id,name,start,end,parent,op,thread\n")
            for s in self.spans():
                fh.write("%d,%s,%r,%r,%d,%d,%d\n" % s)

    def layer_metrics(self) -> dict[str, float]:
        """Calls, self time, bytes and the derived ratios, keyed by metric name."""
        spans = list(self.spans())
        children = defaultdict(list)
        for sid, _, start, end, parent, _, thread in spans:
            if parent >= 0:
                children[parent].append((start, end, thread))
        calls = defaultdict(int)
        self_s = defaultdict(float)
        workers = 0
        main = self._main.thread
        for sid, name, start, end, _, _, _ in spans:
            kids = children.get(sid, ())
            calls[name] += 1
            self_s[name] += (end - start) - _covered(kids, start, end)
            if name == "sweep.run_sweep":
                workers = max(workers, len({t for *_, t in kids if t != main}))
        out = {f"{n}.self_s": self_s[n] for n in SELF_S}
        out.update({f"{n}.calls": float(calls[n]) for n in CALLS})
        out.update({f"{n}.bytes": float(self.bytes[n]) for n in BYTES_LAYERS})
        out["sweep.pool_workers"] = float(workers)
        kernel = calls["hawking.closed_form"]
        out["hawking.closed_form.us_per_call"] = (
            1e6 * self_s["hawking.closed_form"] / kernel if kernel else 0.0)
        omegas = calls["hawking.critical_temperatures"]
        out["hawking.critical.kernel_calls_per_omega"] = kernel / omegas if omegas else 0.0
        from_oracle = calls["steering_entropy.entropy_sum_from_oracle"]
        out["steering_entropy.calibrations_per_oracle_call"] = (
            calls["steering_entropy.oracle_affine_calibration"] / from_oracle
            if from_oracle else 0.0)
        return out

    def calls_by_op(self, name: str) -> dict[int, int]:
        """Number of `name` spans recorded under each operation id."""
        out: dict[int, int] = defaultdict(int)
        for _, n, _, _, _, op, _ in self.spans():
            if n == name:
                out[op] += 1
        return out


def _covered(intervals, start: float, end: float) -> float:
    """Length of the union of `intervals`, clipped to [start, end]."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi, _ in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total
