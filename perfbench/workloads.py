"""The benchmark workloads: seeded inputs, the commands they run, and the checks.

A workload is a stream of rounds drawn from one `random.Random(seed)`;
a round is a list of operations, run one at a time (a single closed-loop
client).  Every operation's output is checked after its timer stops;
an operation fails if it raises, exits nonzero or fails its check.

- figures:  one 10^4-row `hawksteer sweep` followed by the fig1-fig3
  `hawksteer plot` panels of the pairs it selected (CSV sweeps only).
- critical: one `hawksteer critical --omega w` per round.
- verify:   a batch of random X-states through both oracles, then a
  temperature grid through the 8x8 pipeline against the closed forms
  plus `hawksteer monogamy` on the same grid; one full
  `hawksteer selfcheck` per run.

Every run also regenerates the golden sweep CSV and fig3 SVG of the
test suite and compares them byte for byte.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import re
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from hawksteer import cli, hawking, qstate, selfcheck, steering_ent, steering_entropy
from hawksteer.selfcheck import MONOGAMY_TOL, ORACLE_TOL, PIPELINE_TOL

WORKLOADS = ("figures", "critical", "verify")

PAIRS = ("AB", "ABbar", "BBbar")
PANELS = {"AB": "fig1", "ABbar": "fig2", "BBbar": "fig3"}
FIELDS = ("s_ab", "s_ba", "s_delta", "t_ab", "t_ba", "t_delta", "concurrence")
MEASURE_FIELDS = {"entropy": FIELDS[:3], "ent": FIELDS[3:6]}

SWEEP_ROWS = 10_000
STATES_PER_BATCH = 50
TEMPS_PER_GRID = 50
CHECKED_ROWS = 8  # seeded rows of each sweep recomputed through pipeline_report
CRITICAL_REL_TOL = 1e-6  # acceptance criterion 3
# Entropic birth of Abar -> A steering in units of omega, known to 1e-3
# (acceptance criterion 3); it has no closed form.
ENTROPY_BIRTH_RATIO, ENTROPY_BIRTH_REL_TOL = 5.8021, 1e-3
HASHED_ROUNDS = 3  # warm-up round + two measured rounds feed output_sha256

GOLDEN_ARGV = ["sweep", "--omega", "1", "--t-min", "0.01", "--t-max", "10",
               "--steps", "50", "--grid", "linear", "--pairs", "AB,ABbar,BBbar",
               "--measures", "both"]


class CheckError(Exception):
    """An operation's output is wrong."""


@dataclass
class Op:
    kind: str  # sample key, e.g. "sweep_s"
    run: Callable[[], object]
    check: Callable[[object], bytes]  # raises CheckError; returns the bytes to hash
    work: int = 0  # items (rows, states, ...) one call handles
    expect: dict[str, int] | None = None  # exact span counts a traced call must give


# References within this many seconds of an operation, or within its own
# duration if longer, normalize it.
REF_WINDOW_S = 1.0


@dataclass
class Record:
    """What one run observed: samples, work done, failures and the output hash.

    `samples` holds seconds; `ref_samples` holds the same operations in
    units of the reference operation (see `reference`): each operation's
    seconds over the median reference time near it.
    """

    samples: dict[str, list[float]] = field(default_factory=dict)
    ref_samples: dict[str, list[float]] = field(default_factory=dict)
    work: dict[str, float] = field(default_factory=dict)
    refs: list[tuple[float, float]] = field(default_factory=list)  # (when, seconds)
    timed: list[tuple[Op, float, float]] = field(
        default_factory=list)  # (operation, start, end) of measured operations
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    sha: object = field(default_factory=hashlib.sha256)

    def normalize(self) -> None:
        """Fill `ref_samples` from `timed`."""
        for op, start, end in self.timed:
            window = max(REF_WINDOW_S, end - start)
            in_refs = (end - start) / statistics.median(
                d for t, d in self.refs if start - window <= t <= end + window)
            self.ref_samples.setdefault(op.kind, []).append(in_refs)


def _ref_work(i: int) -> str:
    acc = 0.0
    for k in range(150):
        acc += math.exp(-k * 1e-3) * math.log2(1.0 + k + i)
    return repr(acc)


_REF_MATRIX = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)


def reference() -> float:
    """Seconds for a fixed piece of work that uses no hawksteer code.

    The host's speed swings by +-25% over seconds to minutes, for every
    kind of work alike, so each measured operation is also expressed in
    units of this reference, timed after every measured operation.  The
    mix follows the program's: Python float math and repr, and small
    numpy eigensolves.  It is serial: the sweep's thread pool swings
    further than serial work does, and that part of its spread is
    reported as measured.
    """
    start = perf_counter()
    for i in range(40):
        _ref_work(i)
    for _ in range(40):
        np.linalg.eigvalsh(_REF_MATRIX)
    return perf_counter() - start


class Runner:
    """Runs operations in order, timing, checking and counting each one."""

    def __init__(self, root: Path, workdir: Path, tracer=None):
        self.root = root
        self.workdir = workdir
        self.tracer = tracer
        self.record = Record()

    def _reference(self) -> None:
        self.record.refs.append((perf_counter(), reference()))

    def run(self, op: Op, measured: bool, hashed: bool, op_id: int = -1) -> float:
        rec = self.record
        rec.attempted += 1
        if self.tracer is not None:
            self.tracer.op = op_id
        if measured and not rec.refs:
            self._reference()
        start = perf_counter()
        try:
            out = op.run()
            end = perf_counter()
            if measured:
                self._reference()
            with self._untraced():
                digest = op.check(out)
        except Exception as exc:  # any failure of the program counts against error_rate
            rec.failed += 1
            rec.failures.append(f"{op.kind}: {type(exc).__name__}: {exc}")
            return perf_counter() - start
        if hashed:
            rec.sha.update(op.kind.encode() + b"\0" + digest + b"\0")
        if measured:
            rec.samples.setdefault(op.kind, []).append(end - start)
            rec.timed.append((op, start, end))
            rec.work[op.kind] = rec.work.get(op.kind, 0) + op.work
        return end - start

    @contextlib.contextmanager
    def _untraced(self):
        if self.tracer is None:
            yield
            return
        self.tracer.paused = True
        try:
            yield
        finally:
            self.tracer.paused = False

    def path(self, name: str) -> str:
        return str(self.workdir / name)


def _cli(argv: list[str]) -> Callable[[], int]:
    def run():
        code = cli.main(argv)
        if code != 0:
            raise CheckError(f"hawksteer {argv[0]} exited {code}")
        return code
    return run


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _loguniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


# ---------------------------------------------------------------------------
# golden files


def golden_ops(r: Runner) -> list[Op]:
    data = r.root / "tests" / "data"
    csv_path, svg_path = r.path("golden_sweep.csv"), r.path("golden_fig3.svg")

    def same_as(golden: Path, path: str) -> Callable[[object], bytes]:
        def check(_):
            got = _read(path)
            if got != golden.read_bytes():
                raise CheckError(f"{path} differs from {golden.name}")
            return got
        return check

    return [
        Op("golden_sweep", _cli(GOLDEN_ARGV + ["-o", csv_path]),
           same_as(data / "golden_sweep.csv", csv_path)),
        Op("golden_plot", _cli(["plot", csv_path, "--panel", "fig3", "-o", svg_path]),
           same_as(data / "golden_fig3.svg", svg_path)),
    ]


# ---------------------------------------------------------------------------
# figures


@dataclass(frozen=True)
class SweepSpec:
    omega: float
    t_min: float
    t_max: float
    steps: int
    grid: str
    pairs: tuple[str, ...]
    measures: str
    fmt: str
    check_seed: int

    def temperatures(self) -> np.ndarray:
        if self.grid == "linear":
            return np.linspace(self.t_min, self.t_max, self.steps)
        return np.geomspace(self.t_min, self.t_max, self.steps)

    def columns(self) -> list[str]:
        return ["t_over_omega", "c_sq", "s_sq"] + [
            f"{p}_{f}" for p in self.pairs for f in FIELDS]

    def wanted(self) -> set[str]:
        if self.measures == "both":
            return set(FIELDS)
        return set(MEASURE_FIELDS[self.measures]) | {"concurrence"}

    def filled(self) -> dict[str, bool]:
        """Every column but t_over_omega: True if it holds a value in [0, 1]."""
        wanted = self.wanted()
        out = {"c_sq": True, "s_sq": True}
        out.update({f"{p}_{f}": f in wanted for p in self.pairs for f in FIELDS})
        return out


# Shape of round n % len(SHAPES): most sweeps take all pairs, both
# measures and CSV; the minority shapes sit at fixed positions so every
# run has the same mix, and only which subset they take is seeded.
SHAPES = ("full", "full", "full", "pairs", "full", "full", "measures", "full", "json", "full")


def draw_sweep(rng: random.Random, rows: int, n: int) -> SweepSpec:
    """omega in [0.1, 10]; T/omega from [1e-3, 0.1] up to [2, 1e4]."""
    omega = _loguniform(rng, 0.1, 10.0)
    lo, hi = _loguniform(rng, 1e-3, 0.1), _loguniform(rng, 2.0, 1e4)
    grid = rng.choice(("linear", "log"))
    shape = SHAPES[n % len(SHAPES)]
    pairs, measures = PAIRS, "both"
    if shape == "pairs":
        chosen = rng.sample(PAIRS, rng.randint(1, 2))
        pairs = tuple(p for p in PAIRS if p in chosen)
    elif shape == "measures":
        measures = rng.choice(("entropy", "ent"))
    fmt = "json" if shape == "json" else "csv"
    return SweepSpec(omega, lo * omega, hi * omega, rows, grid, pairs, measures, fmt,
                     rng.randrange(2 ** 32))


def _check_row(spec: SweepSpec, t: float, cells: dict[str, object]) -> None:
    """One sampled row against the matrix pipeline and the amplitude identities."""
    x = spec.omega / t
    c_sq = 1.0 / (1.0 + math.exp(-x))
    s_sq = math.exp(-x) * c_sq
    for key, want in (("c_sq", c_sq), ("s_sq", s_sq)):
        if abs(cells[key] - want) > PIPELINE_TOL * max(1.0, abs(want)):
            raise CheckError(f"{key} at T={t!r}: {cells[key]!r} != {want!r}")
    p = hawking.HawkingParams(float(t), spec.omega)
    for pair in spec.pairs:
        rep = hawking.pipeline_report(p, pair)
        ref = {"s_ab": rep.entropy.s_ab, "s_ba": rep.entropy.s_ba,
               "s_delta": rep.entropy.delta, "t_ab": rep.ent.t_ab, "t_ba": rep.ent.t_ba,
               "t_delta": rep.ent.delta, "concurrence": rep.concurrence}
        for f in spec.wanted():
            got = cells[f"{pair}_{f}"]
            if abs(got - ref[f]) > PIPELINE_TOL:
                raise CheckError(f"{pair}_{f} at T={t!r}: {got!r} vs pipeline {ref[f]!r}")


def _check_cells(filled_cols: dict[str, bool], i: int, t_over: float,
                 cells: dict[str, object]) -> None:
    if cells["t_over_omega"] != t_over:
        raise CheckError(f"row {i}: t_over_omega {cells['t_over_omega']!r} != {t_over!r}")
    for col, filled in filled_cols.items():
        v = cells[col]
        if not filled:
            if v is not None:
                raise CheckError(f"row {i}: deselected {col} = {v!r}")
        elif v is None or not (0.0 <= v <= 1.0):
            raise CheckError(f"row {i}: {col} = {v!r} outside [0, 1]")


def _parse_csv(spec: SweepSpec, data: bytes) -> list[dict[str, object]]:
    lines = data.decode().split("\n")
    if lines[-1] != "" or lines[0].split(",") != spec.columns():
        raise CheckError("bad CSV header or missing final newline")
    cols = spec.columns()
    rows = []
    for i, line in enumerate(lines[1:-1]):
        cells = line.split(",")
        if len(cells) != len(cols):
            raise CheckError(f"row {i}: {len(cells)} cells, want {len(cols)}")
        rows.append({c: (None if v == "" else float(v)) for c, v in zip(cols, cells)})
    return rows


def _parse_json(spec: SweepSpec, data: bytes) -> list[dict[str, object]]:
    rows = json.loads(data)
    cols = spec.columns()
    for i, row in enumerate(rows):
        if list(row) != cols:
            raise CheckError(f"row {i}: keys {list(row)[:4]}... differ from the columns")
    return rows


def sweep_round(r: Runner, spec: SweepSpec) -> list[Op]:
    out = r.path(f"sweep.{spec.fmt}")
    argv = ["sweep", "--omega", repr(spec.omega), "--t-min", repr(spec.t_min),
            "--t-max", repr(spec.t_max), "--steps", str(spec.steps), "--grid", spec.grid,
            "--pairs", ",".join(spec.pairs), "--measures", spec.measures,
            "--format", spec.fmt, "-o", out]

    def check(_):
        data = _read(out)
        rows = (_parse_csv if spec.fmt == "csv" else _parse_json)(spec, data)
        temps = spec.temperatures()
        if len(rows) != spec.steps:
            raise CheckError(f"{len(rows)} rows, want {spec.steps}")
        t_over = [float(t / spec.omega) for t in temps]
        filled = spec.filled()
        for i, row in enumerate(rows):
            _check_cells(filled, i, t_over[i], row)
        pick = random.Random(spec.check_seed).sample(range(1, spec.steps - 1),
                                                     min(CHECKED_ROWS, spec.steps - 2))
        for i in [0, spec.steps - 1] + pick:
            _check_row(spec, float(temps[i]), rows[i])
        return data

    ops = [Op("sweep_s", _cli(argv), check, spec.steps,
              expect={"hawking.closed_form": spec.steps * len(spec.pairs)})]
    if spec.fmt == "csv":
        curves = 6 if spec.measures == "both" else 3
        for pair in spec.pairs:
            ops.append(plot_op(r, out, PANELS[pair], pair, curves, spec.steps))
    return ops


def plot_op(r: Runner, csv_path: str, panel: str, pair: str, curves: int,
            points: int) -> Op:
    out = r.path(f"{panel}.svg")

    def check(_):
        data = _read(out)
        svg = data.decode()
        if not svg.startswith('<svg xmlns="http://www.w3.org/2000/svg"') \
                or not svg.endswith("</svg>\n"):
            raise CheckError(f"{panel}: not a complete SVG document")
        if f">{panel}: pair {pair}</text>" not in svg:
            raise CheckError(f"{panel}: title missing")
        lines = re.findall(r'<polyline points="([^"]*)"', svg)
        if len(lines) != curves:
            raise CheckError(f"{panel}: {len(lines)} curves, want {curves}")
        for pts in lines:
            if len(pts.split(" ")) != points:
                raise CheckError(f"{panel}: a curve has {len(pts.split(' '))} points")
        return data

    return Op("plot_s", _cli(["plot", csv_path, "--panel", panel, "-o", out]), check, points)


def figures_rounds(r: Runner, rng: random.Random, scale: float):
    rows = max(10, round(SWEEP_ROWS * scale))
    n = 0
    while True:
        yield sweep_round(r, draw_sweep(rng, rows, n))
        n += 1


# ---------------------------------------------------------------------------
# critical

SQRT3 = math.sqrt(3.0)
CRITICAL_NAMES = ("t_birth_entropy_a_to_abar", "t_birth_entropy_abar_to_a",
                  "t_birth_ent_abar_to_a", "t_peak_bbbar", "t_death_bbbar")


def closed_forms(omega: float) -> dict[str, float]:
    return {"t_birth_ent_abar_to_a": omega / math.log(SQRT3),
            "t_peak_bbbar": omega / math.log(2.0 + SQRT3),
            "t_death_bbbar": -omega / math.log(SQRT3 - 1.0)}


def check_critical(omega: float, data: bytes) -> bytes:
    lines = data.decode().split("\n")
    if lines[0] != "name,closed_form,numeric,discrepancy" or lines[-1] != "" \
            or len(lines) != len(CRITICAL_NAMES) + 2:
        raise CheckError("bad critical CSV layout")
    want = closed_forms(omega)
    for line, name in zip(lines[1:-1], CRITICAL_NAMES):
        got_name, closed, numeric, _ = line.split(",")
        if got_name != name:
            raise CheckError(f"row {got_name}, want {name}")
        if numeric == "":
            raise CheckError(f"{name}: no numeric value (bracket failure)")
        t = float(numeric)
        if not (math.isfinite(t) and t > 0.0):
            raise CheckError(f"{name}: numeric {numeric}")
        if name in want:
            ref = want[name]
            if abs(float(closed) - ref) > 1e-12 * ref:
                raise CheckError(f"{name}: closed form {closed} != {ref!r}")
            if abs(t - ref) > CRITICAL_REL_TOL * ref:
                raise CheckError(f"{name}: numeric {t!r} vs closed {ref!r}")
        elif closed != "":
            raise CheckError(f"{name}: unexpected closed form {closed}")
        if name == "t_birth_entropy_abar_to_a" and \
                abs(t / omega - ENTROPY_BIRTH_RATIO) > ENTROPY_BIRTH_REL_TOL * ENTROPY_BIRTH_RATIO:
            raise CheckError(f"{name}: {t / omega!r} omega, want {ENTROPY_BIRTH_RATIO}")
    return data


def critical_op(r: Runner, omega: float) -> Op:
    out = r.path("critical.csv")
    return Op("critical_s", _cli(["critical", "--omega", repr(omega), "-o", out]),
              lambda _: check_critical(omega, _read(out)), 1)


def critical_rounds(r: Runner, rng: random.Random, scale: float):
    while True:
        yield [critical_op(r, _loguniform(rng, 1e-3, 1e3))]


# ---------------------------------------------------------------------------
# verify

DIRECTIONS = (steering_entropy.A_TO_B, steering_entropy.B_TO_A)


def oracle_op(n_states: int, seed: int) -> Op:
    def run():
        out = []
        for s in selfcheck.random_xstates(n_states, seed):
            d = qstate.embed_dense(s)
            b = qstate.bloch_coefficients(s)
            row = [steering_ent.concurrence_xstate(s), steering_ent.concurrence_oracle(d)]
            for direction in DIRECTIONS:
                row.append(steering_entropy.entropy_sum_closed_form(b, direction))
                row.append(steering_entropy.entropy_sum_from_oracle(d, direction))
            out.append(row)
        return out

    def check(rows):
        if len(rows) != n_states:
            raise CheckError(f"{len(rows)} states, want {n_states}")
        for i, row in enumerate(rows):
            for closed, oracle in zip(row[0::2], row[1::2]):
                if not abs(closed - oracle) <= ORACLE_TOL:
                    raise CheckError(f"state {i} (seed {seed}): closed {closed!r} "
                                     f"vs oracle {oracle!r}")
        return repr(rows).encode()

    return Op("oracle_s", run, check, n_states,
              expect={"steering_ent.concurrence_oracle": n_states})


def pipeline_op(r: Runner, omega: float, temps: list[float]) -> Op:
    out = r.path("monogamy.csv")
    argv = ["monogamy", "--omega", repr(omega),
            "--t-values", ",".join(repr(t) for t in temps), "-o", out]

    def run():
        pairs = []
        for t in temps:
            p = hawking.HawkingParams(t, omega)
            for pair in PAIRS:
                pairs.append((hawking.closed_form_report(p, pair),
                              hawking.pipeline_report(p, pair)))
        _cli(argv)()
        return pairs

    def check(pairs):
        for a, b in pairs:
            diffs = [abs(getattr(a.entropy, f) - getattr(b.entropy, f))
                     for f in selfcheck.ENTROPY_FIELDS]
            diffs += [abs(getattr(a.ent, f) - getattr(b.ent, f)) for f in selfcheck.ENT_FIELDS]
            diffs.append(abs(a.concurrence - b.concurrence))
            if not max(diffs) <= PIPELINE_TOL:
                raise CheckError(f"pipeline vs closed form, {a.pair}: {max(diffs):.3e}")
        data = _read(out)
        lines = data.decode().split("\n")
        if lines[0] != "temperature,r1,r2,r3,r4,status" or lines[-1] != "" \
                or len(lines) != len(temps) + 2:
            raise CheckError("bad monogamy CSV layout")
        threshold = omega / math.log(SQRT3)
        for t, line in zip(temps, lines[1:-1]):
            cells = line.split(",")
            if float(cells[0]) != t or cells[5] != "pass":
                raise CheckError(f"monogamy row {line}")
            for k, cell in enumerate(cells[1:5]):
                if (k >= 2 and t <= threshold) != cell.startswith("n/a"):
                    raise CheckError(f"r{k + 1} = {cell} at T={t!r}, threshold {threshold!r}")
                if not cell.startswith("n/a") and not abs(float(cell)) <= MONOGAMY_TOL:
                    raise CheckError(f"r{k + 1} = {cell} at T={t!r}")
        return repr([(a, b) for a, b in pairs]).encode() + data

    return Op("pipeline_s", run, check, len(temps))


SELFCHECK_TOLS = (ORACLE_TOL, ORACLE_TOL, PIPELINE_TOL, MONOGAMY_TOL)


def selfcheck_op() -> Op:
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["selfcheck"])
        if code != 0:
            raise CheckError(f"selfcheck exited {code}: {buf.getvalue()[-300:]}")
        return buf.getvalue()

    def check(text):
        lines = text.splitlines()
        if len(lines) != len(SELFCHECK_TOLS) + 1 or lines[-1] != "4/4 checks passed":
            raise CheckError(f"unexpected selfcheck output: {text[-300:]}")
        for line, tol in zip(lines, SELFCHECK_TOLS):
            worst = float(line.rsplit(" ", 1)[1])
            if not line.startswith("[PASS]") or not worst <= tol:
                raise CheckError(f"{line} (tolerance {tol:.0e})")
        return text.encode()

    return Op("selfcheck_s", run, check)


def verify_rounds(r: Runner, rng: random.Random, scale: float):
    n_states = max(2, round(STATES_PER_BATCH * scale))
    n_temps = max(2, round(TEMPS_PER_GRID * scale))
    while True:
        omega = _loguniform(rng, 0.1, 10.0)
        lo, hi = _loguniform(rng, 1e-2, 1.0), _loguniform(rng, 10.0, 1e4)
        temps = [float(t) for t in omega * np.geomspace(lo, hi, n_temps)]
        yield [oracle_op(n_states, rng.randrange(2 ** 32)), pipeline_op(r, omega, temps)]


ROUNDS = {"figures": figures_rounds, "critical": critical_rounds, "verify": verify_rounds}


# ---------------------------------------------------------------------------
# runs


def run_timed(r: Runner, workload: str, seed: int, seconds: float, scale: float) -> Record:
    """Untraced run: golden files, a warm-up round, then rounds for `seconds`."""
    rounds = ROUNDS[workload](r, random.Random(seed), scale)
    for op in golden_ops(r):
        r.run(op, measured=False, hashed=True)
    for op in next(rounds):
        r.run(op, measured=False, hashed=True)
    # verify runs one full selfcheck half way through, so that references
    # taken on both sides of it normalize it.
    selfcheck_due = workload == "verify"
    start = perf_counter()
    done = 1
    while done < HASHED_ROUNDS or perf_counter() - start < seconds:
        if selfcheck_due and perf_counter() - start >= seconds / 2:
            r.run(selfcheck_op(), measured=True, hashed=False)
            selfcheck_due = False
        for op in next(rounds):
            r.run(op, measured=True, hashed=done < HASHED_ROUNDS)
        done += 1
    if selfcheck_due:
        r.run(selfcheck_op(), measured=True, hashed=False)
    r.record.normalize()
    return r.record


def trace_list_length(workload: str, seconds: float) -> int:
    """Rounds in a traced run: fixed by workload and seconds, so counts repeat.

    Sized so that both passes over the list take about `seconds`, except
    on critical: one round there records about 6,400 spans, so its list
    stays at one round per second to keep the span buffers small.
    """
    per_round_s = {"figures": 3.5, "critical": 1.0, "verify": 1.0}[workload]
    return max(HASHED_ROUNDS - 1, round(seconds / per_round_s))


def run_traced(r: Runner, tracer, workload: str, seed: int, seconds: float,
               scale: float) -> tuple[Record, float, float, list[list[Op]]]:
    """Traced run: each of a fixed list of rounds once untraced and once traced.

    The two passes over a round run back to back, alternating which goes
    first, so that the host's drift over the run cancels out of
    `tracing.overhead_ratio`.  Returns the record, the untraced and
    traced operation time, and the rounds, for the completeness checks.
    """
    rounds = ROUNDS[workload](r, random.Random(seed), scale)
    for op in golden_ops(r):
        r.run(op, measured=False, hashed=True)
    for op in next(rounds):
        r.run(op, measured=False, hashed=True)
    fixed = [next(rounds) for _ in range(trace_list_length(workload, seconds))]
    if workload == "verify":
        fixed.insert(len(fixed) // 2, [selfcheck_op()])
    times = {False: 0.0, True: 0.0}
    op_id = 0
    unhashed = HASHED_ROUNDS - 1
    for k, ops in enumerate(fixed):
        hashed = unhashed > 0 and ops[0].kind != "selfcheck_s"
        unhashed -= hashed
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
            try:
                for i, op in enumerate(ops):
                    times[traced] += r.run(op, measured=False, hashed=hashed and not traced,
                                           op_id=op_id + i)
            finally:
                tracer.uninstall()
        op_id += len(ops)
    return r.record, times[False], times[True], fixed
