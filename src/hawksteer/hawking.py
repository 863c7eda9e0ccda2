"""The Schwarzschild state family and everything derived from it.

A maximally entangled fermionic pair shared by Alice and Bob turns,
once Bob hovers near the horizon, into a pure three-mode state over
(A, B, Bbar) parameterized by the Fermi-Dirac amplitude pair

    C = 1 / sqrt(exp(-w/T) + 1),   S = 1 / sqrt(exp(w/T) + 1),

with C^2 + S^2 = 1.  This module provides the amplitude map, the 8x8
three-mode density matrix, closed-form steering reports for the three
two-mode reductions, the matching generic pipeline (partial trace +
X-state machinery) used as a cross-check, critical temperatures, and
the steering/entanglement monogamy residuals.
"""

from __future__ import annotations

import functools
import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import steering_ent, steering_entropy
from .qstate import DenseState, TwoQubitXState, XStateColumns, partial_traces
from .steering_ent import BRANCH_CORNER, BRANCH_INNER, SQRT3, EntSteeringReport
from .steering_entropy import EntropySteeringReport, keep_above

PAIRS = ("AB", "ABbar", "BBbar")
_KEPT = {"AB": ("A", "B"), "ABbar": ("A", "Bbar"), "BBbar": ("B", "Bbar")}

# Steerability below this level counts as zero when locating births/deaths.
BIRTH_EPS = 1e-14


def require_positive(name: str, v: float) -> None:
    """Raise ValueError naming `name` unless v is finite and > 0 (NaN fails too)."""
    if not 0.0 < v < math.inf:
        raise ValueError(f"{name} must be finite and > 0, got {v}")


@dataclass(frozen=True)
class HawkingParams:
    """Hawking temperature and mode frequency, natural units (hbar=G=c=k=1)."""

    temperature: float
    omega: float

    def __post_init__(self):
        require_positive("temperature", self.temperature)
        require_positive("omega", self.omega)


@dataclass(frozen=True)
class HawkingAmplitudes:
    """(C, S) at one temperature, or as float64 columns over a grid."""

    c_amp: float | np.ndarray
    s_amp: float | np.ndarray


def _square(x):
    """x ** 2: for a float or a numpy scalar that is libm's pow, not a multiply."""
    return x ** 2


_LIBM = {fn: np.frompyfunc(fn, 1, 1) for fn in (math.exp, math.sqrt, math.log2, _square)}


def _libm(fn, x):
    """fn(x) for a float; for an array, the same libm call on every element.

    numpy's own exp and log2 differ from libm in the last ulp on some
    inputs, which would make columns disagree with the float path.
    """
    if isinstance(x, np.ndarray):
        return _LIBM[fn](x).astype(np.float64)
    return fn(x)


def amplitudes_at(x) -> HawkingAmplitudes:
    """Amplitude pair (C, S) at x = omega / T, a float or a float64 array.

    Both amplitudes are computed from t = exp(-x) <= 1 so that no
    exponential overflows; for x >> 1 the small amplitude is formed as
    exp(-x/2) / sqrt(1 + t) and underflows gracefully.
    """
    root = _libm(math.sqrt, 1.0 + _libm(math.exp, -x))
    return HawkingAmplitudes(c_amp=1.0 / root, s_amp=_libm(math.exp, -0.5 * x) / root)


def amplitudes(p: HawkingParams) -> HawkingAmplitudes:
    """Amplitude pair (C, S) for given (T, omega), stable for extreme ratios.

    x = omega / T is divided as Python floats: for a tiny np.float64 T
    numpy would warn on the overflow to x = inf, which is the frozen limit.
    """
    return amplitudes_at(float(p.omega) / float(p.temperature))


def amplitudes_grid(params: Sequence[HawkingParams]) -> HawkingAmplitudes:
    """amplitudes at every params, as float64 columns equal to it bit for bit."""
    return amplitudes_at(np.array([float(p.omega) / float(p.temperature) for p in params]))


def tripartite_states(a: HawkingAmplitudes) -> DenseState:
    """Pure three-mode density matrix (1/2) v v^T with v = C|000> + S|011> + |110>.

    One 8x8 matrix at float (C, S); at float64 columns an (N, 8, 8)
    stack, validated as one.
    """
    c = np.asarray(a.c_amp)
    v = np.zeros(c.shape + (8,))
    v[..., 0b000] = c
    v[..., 0b011] = a.s_amp
    v[..., 0b110] = 1.0
    return DenseState(v[..., :, None] * v[..., None, :] / 2.0)


def reduced_xstate(a: HawkingAmplitudes, pair: str) -> TwoQubitXState:
    """Closed-form two-mode reduction of the three-mode state."""
    c2, s2 = a.c_amp ** 2, a.s_amp ** 2
    if pair == "AB":
        return TwoQubitXState(c2 / 2, s2 / 2, 0.0, 0.5, c14=a.c_amp / 2, c23=0.0)
    if pair == "ABbar":
        return TwoQubitXState(c2 / 2, s2 / 2, 0.5, 0.0, c14=0.0, c23=a.s_amp / 2)
    if pair == "BBbar":
        return TwoQubitXState(c2 / 2, 0.0, 0.5, s2 / 2,
                              c14=a.c_amp * a.s_amp / 2, c23=0.0)
    raise ValueError(f"unknown pair: {pair!r}")


@dataclass(frozen=True)
class BipartitionReport:
    """Steering measures for one two-mode reduction at one temperature."""

    pair: str
    entropy: EntropySteeringReport
    ent: EntSteeringReport
    concurrence: float


def _xlg(x):
    """x log2 x with 0 log 0 = 0, elementwise through libm's log2 for arrays.

    Deliberately not steering_entropy's x log x: that one takes np.log2,
    which differs from libm's log2 in the last ulp on some inputs, so
    sharing it would change the golden bytes.
    """
    if isinstance(x, np.ndarray):
        pos = x > 0.0
        y = np.where(pos, x, 1.0)
        return np.where(pos, y * _libm(math.log2, y), 0.0)
    return x * math.log2(x) if x > 0.0 else 0.0


def closed_form_report(p: HawkingParams, pair: str) -> BipartitionReport:
    """Evaluate the per-pair analytic steerability formulas directly.

    Bypasses the generic X-state machinery on purpose: this is one side
    of the pipeline-vs-closed-form cross-validation.
    """
    return closed_form_report_from_amplitudes(amplitudes(p), pair)


def closed_form_report_from_amplitudes(a: HawkingAmplitudes, pair: str) -> BipartitionReport:
    """The per-pair closed forms at (C, S): floats, or float64 columns.

    Both halves from one C * C and S * S, plus the concurrence.  For columns
    every numeric field is an array equal, bit for bit, to the float report.
    """
    c, s = a.c_amp, a.s_amp
    c2, s2 = c * c, s * s
    return BipartitionReport(pair=pair, entropy=closed_form_entropy(a, pair, c2, s2),
                             ent=closed_form_ent(a, pair, c2, s2),
                             concurrence=c if pair == "AB" else s if pair == "ABbar" else c * s)


def closed_form_entropy(a: HawkingAmplitudes, pair: str, c2, s2) -> EntropySteeringReport:
    """The pair's entropic closed forms at a, given c2 = C * C and s2 = S * S."""
    c, s = a.c_amp, a.s_amp
    xc, xs = _xlg(c2), _xlg(s2)
    if pair in ("AB", "ABbar"):
        # ABbar is AB with C, S swapped (anti-Bob's mode bit-flipped): k the pair's, o the other.
        k, o2, xo = (c, s2, xs) if pair == "AB" else (s, c2, xc)
        lp = _xlg(1.0 + k) + _xlg(1.0 - k)
        raw_ab = 0.25 * (2.0 * lp + xc + xs)
        raw_ba = 0.25 * (2.0 * lp - _xlg(1.0 + o2) + xo)
    elif pair == "BBbar":
        cs = c * s
        lp = _xlg(1.0 + cs) + _xlg(1.0 - cs)
        raw_ab = 0.25 * (2.0 * lp + xs - _xlg(1.0 + s2))
        raw_ba = 0.25 * (2.0 * lp + xc - _xlg(1.0 + c2))
    else:
        raise ValueError(f"unknown pair: {pair!r}")
    i_ab, i_ba = 4.0 * raw_ab + 2.0, 4.0 * raw_ba + 2.0
    s_ab = steering_entropy.steerability_from_sum(i_ab)
    s_ba = steering_entropy.steerability_from_sum(i_ba)
    return EntropySteeringReport(i_ab=i_ab, i_ba=i_ba, s_ab=s_ab, s_ba=s_ba,
                                 delta=abs(s_ab - s_ba))


def closed_form_ent(a: HawkingAmplitudes, pair: str, c2, s2) -> EntSteeringReport:
    """The pair's witness closed forms: they need c2 = C * C and s2 = S * S, not a."""
    if pair in ("AB", "ABbar"):
        # The same bit flip as in closed_form_entropy moves c14 to c23, hence "inner".
        k2, o2, branch = (c2, s2, BRANCH_CORNER) if pair == "AB" else (s2, c2, BRANCH_INNER)
        t_ab, t_ba = k2 - c2 * s2 / SQRT3, k2 - o2 / SQRT3
    elif pair == "BBbar":
        t_ab, t_ba, branch = c2 * s2 - s2 / SQRT3, c2 * s2 - c2 / SQRT3, BRANCH_CORNER
    else:
        raise ValueError(f"unknown pair: {pair!r}")
    t_ab, t_ba = keep_above(t_ab, 0.0), keep_above(t_ba, 0.0)
    return EntSteeringReport(t_ab=t_ab, t_ba=t_ba, delta=abs(t_ab - t_ba),
                             branch_ab=branch, branch_ba=branch)


def _measures(pair: str, reduced: TwoQubitXState | XStateColumns) -> BipartitionReport:
    return BipartitionReport(
        pair=pair,
        entropy=steering_entropy.steerability_entropy(reduced),
        ent=steering_ent.steerability_ent(reduced),
        concurrence=steering_ent.concurrence_xstate(reduced),
    )


def _reductions(a: HawkingAmplitudes) -> list[list[TwoQubitXState]]:
    """Each pair's X-state reductions of tripartite_states(a), a at float64 columns.

    One list per pair, in PAIRS order.  The three pairs come from one
    gather of the (N, 8, 8) stack, one validation of the (3N, 4, 4)
    result and one X-pattern check.
    """
    states = tripartite_states(a)
    xs = partial_traces(states, *(_KEPT[pair] for pair in PAIRS))
    n = len(states.matrix)
    return [xs[k * n:(k + 1) * n] for k in range(len(PAIRS))]


# pipeline_report's callers outside the tests, perfbench's row checks and its
# verify pipeline op, ask for the three pairs at one temperature back to back,
# so a few remembered temperatures serve them; the bound keeps a long
# temperature grid from holding more than that.
@functools.lru_cache(maxsize=8)
def reductions_at(a: HawkingAmplitudes) -> tuple[TwoQubitXState, ...]:
    """Each pair's X-state reduction at one float (C, S), in PAIRS order.

    Remembered for the last few temperatures; the states are immutable.
    """
    column = HawkingAmplitudes(np.array([a.c_amp]), np.array([a.s_amp]))
    return tuple(xs[0] for xs in _reductions(column))


def pipeline_report(p: HawkingParams, pair: str) -> BipartitionReport:
    """Generic path: three-mode matrix -> partial trace -> steering measures.

    The three pairs' reductions at p are gathered, validated and
    remembered together.  Must agree with closed_form_report field by
    field; the test suite enforces 1e-10 on a temperature grid.
    """
    if pair not in PAIRS:
        raise ValueError(f"unknown pair: {pair!r}")
    return _measures(pair, reductions_at(amplitudes(p))[PAIRS.index(pair)])


def pipeline_columns(params: Sequence[HawkingParams]) -> dict[str, BipartitionReport]:
    """Each pair's pipeline measures at every params, as one report of float64 columns.

    The three-mode states are one validated (N, 8, 8) stack, the three pairs
    one partial trace of it, and each pair's N reductions one column of
    measures, equal to pipeline_report's bit for bit.
    """
    return {pair: _measures(pair, XStateColumns.of(reds))
            for pair, reds in zip(PAIRS, _reductions(amplitudes_grid(params)))}


# ---------------------------------------------------------------------------
# Critical temperatures


@dataclass(frozen=True)
class CriticalPoint:
    """A critical temperature with its closed form (when one exists).

    `numeric` is NaN and `error` carries the message when the finder
    failed to bracket; the other entries are still produced.
    """

    name: str
    closed_form: float | None
    numeric: float
    discrepancy: float | None
    error: str | None = None


@dataclass(frozen=True)
class CriticalTemperatures:
    t_birth_entropy_a_to_abar: CriticalPoint
    t_birth_entropy_abar_to_a: CriticalPoint
    t_birth_ent_abar_to_a: CriticalPoint
    t_peak_bbbar: CriticalPoint
    t_death_bbbar: CriticalPoint

    def points(self) -> tuple[CriticalPoint, ...]:
        return (self.t_birth_entropy_a_to_abar, self.t_birth_entropy_abar_to_a,
                self.t_birth_ent_abar_to_a, self.t_peak_bbbar, self.t_death_bbbar)


class BracketError(RuntimeError):
    """No sign change found on the scan grid."""


# scipy.optimize.bisect's relative tolerance and scipy.optimize.golden's
# rounding of the golden-ratio conjugate 2 / (1 + sqrt 5): the finders
# below take exactly scipy's steps, so they return its results bit for bit.
_BISECT_RTOL = 4.0 * sys.float_info.epsilon
_GOLDEN_R = 0.61803399


def _bisect(f, a: float, b: float, fa: float, fb: float, xtol: float) -> float:
    """Root of f in [a, b], where f(a) = fa and f(b) = fb differ in sign."""
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    dm = b - a
    for _ in range(100):
        dm *= 0.5
        xm = a + dm
        fm = f(xm)
        if fm * fa >= 0.0:
            a = xm
        if fm == 0.0 or abs(dm) < xtol + _BISECT_RTOL * abs(xm):
            return xm
    raise BracketError(f"bisection did not converge in 100 steps in [{a}, {b}]")


def _golden_max(f, xa: float, xb: float, xc: float, tol: float) -> float:
    """Golden-section search for the maximum of f bracketed by xa < xb < xc."""
    gc = 1.0 - _GOLDEN_R
    x0, x3 = xa, xc
    if abs(xc - xb) > abs(xb - xa):
        x1, x2 = xb, xb + gc * (xc - xb)
    else:
        x1, x2 = xb - gc * (xb - xa), xb
    f1, f2 = f(x1), f(x2)
    for _ in range(5000):
        if abs(x3 - x0) <= tol * (abs(x1) + abs(x2)):
            break
        if f2 > f1:
            x0, x1, x2 = x1, x2, _GOLDEN_R * x2 + gc * x3
            f1, f2 = f2, f(x2)
        else:
            x3, x2, x1 = x2, x1, _GOLDEN_R * x1 + gc * x0
            f2, f1 = f1, f(x1)
    return x1 if f1 > f2 else x2


def _find_crossing(f, grid: np.ndarray, column: np.ndarray, omega: float, kind: str) -> float:
    """First T where f rises through BIRTH_EPS ("birth") or last where it falls ("death")."""
    vals = column - BIRTH_EPS
    below, above = (vals[:-1], vals[1:]) if kind == "birth" else (vals[1:], vals[:-1])
    idx = np.nonzero((below <= 0.0) & (above > 0.0))[0]
    if idx.size == 0:
        raise BracketError(f"bracket failure: no {kind} in [1e-3, 1e4] * omega={omega}")
    i = idx[0] if kind == "birth" else idx[-1]
    return _bisect(lambda t: f(t) - BIRTH_EPS, float(grid[i]), float(grid[i + 1]),
                   vals[i], vals[i + 1], xtol=1e-12 * omega)


def _find_peak(f, grid: np.ndarray, column: np.ndarray, omega: float) -> float:
    """Interior maximum of f via golden-section search."""
    i = int(np.argmax(column))
    if i == 0 or i == len(grid) - 1:
        raise BracketError(f"bracket failure: peak not interior for omega={omega}")
    return _golden_max(f, *(float(t) for t in grid[i - 1:i + 2]), tol=1e-10)


def monogamy_threshold(omega: float) -> float:
    """omega / ln(sqrt 3): ABbar's B->A witness steering is born, r3 and r4 apply above."""
    return omega / math.log(SQRT3)


#: The five critical points, in CriticalTemperatures field order: name,
#: pair, the closed-form half that holds the measure, the measure, kind
#: (birth, peak or death) and the closed form in omega (None if there is none).
_CRITICAL_POINTS = (
    ("t_birth_entropy_a_to_abar", "ABbar", closed_form_entropy, "s_ab", "birth", None),
    ("t_birth_entropy_abar_to_a", "ABbar", closed_form_entropy, "s_ba", "birth", None),
    ("t_birth_ent_abar_to_a", "ABbar", closed_form_ent, "t_ba", "birth", monogamy_threshold),
    ("t_peak_bbbar", "BBbar", closed_form_ent, "t_ab", "peak",
     lambda w: w / math.log(2.0 + SQRT3)),
    ("t_death_bbbar", "BBbar", closed_form_ent, "t_ab", "death",
     lambda w: -w / math.log(SQRT3 - 1.0)),
)


def critical_temperatures(omega: float) -> CriticalTemperatures:
    """All five critical temperatures, closed form and numeric side by side.

    The scan evaluates each closed-form half in _CRITICAL_POINTS once, as a
    column over 600 points in [1e-3, 1e4] * omega (ABbar entropic and witness,
    BBbar witness).  Each finder brackets from its column, and each of its
    steps evaluates that half alone, at amplitudes_at(omega / t).
    """
    require_positive("omega", omega)
    # The low end of the scan grid is 1e-3 * omega and the bisection's
    # xtol is 1e-12 * omega: both must stay positive, so check the smaller.
    require_positive("1e-12 * omega", 1e-12 * omega)
    require_positive("1e4 * omega", 1e4 * omega)
    # Near the float max, geomspace overflows on its last point, then sets it to 1e4 * omega.
    with np.errstate(over="ignore"):
        grid = np.geomspace(1e-3 * omega, 1e4 * omega, 600)
    cols = amplitudes_at(omega / grid)
    sq = cols.c_amp * cols.c_amp, cols.s_amp * cols.s_amp
    scans = {(pair, half): half(cols, pair, *sq) for _, pair, half, *_ in _CRITICAL_POINTS}

    def point(name, pair, half, attr, kind, closed_form):
        def f(t):
            a = amplitudes_at(omega / t)
            return getattr(half(a, pair, a.c_amp * a.c_amp, a.s_amp * a.s_amp), attr)

        closed = None if closed_form is None else closed_form(omega)
        column = getattr(scans[pair, half], attr)
        try:
            numeric = (_find_peak(f, grid, column, omega) if kind == "peak"
                       else _find_crossing(f, grid, column, omega, kind))
        except BracketError as exc:
            return CriticalPoint(name=name, closed_form=closed, numeric=math.nan,
                                 discrepancy=None, error=str(exc))
        disc = None if closed is None else abs(numeric - closed)
        return CriticalPoint(name=name, closed_form=closed, numeric=numeric,
                             discrepancy=disc)

    return CriticalTemperatures(*(point(*row) for row in _CRITICAL_POINTS))


# ---------------------------------------------------------------------------
# Monogamy


@dataclass(frozen=True)
class MonogamyResiduals:
    """Residuals of the four steering/entanglement redistribution identities.

    r3 and r4 involve the clamped B->A quantifiers and only hold above
    T = omega / ln(sqrt 3); below that they are None (not applicable).
    """

    r1: float
    r2: float
    r3: float | None
    r4: float | None

    @property
    def applicable(self) -> tuple[float, ...]:
        return tuple(r for r in (self.r1, self.r2, self.r3, self.r4) if r is not None)


def monogamy_grid(params: Sequence[HawkingParams]) -> list[MonogamyResiduals]:
    """The four residuals at every params, from one pipeline_columns.

    r3 and r4 are None at or below monogamy_threshold.  A concurrence is
    squared by libm's pow: numpy's array ** 2 is a multiply, which differs
    from it in the last ulp and would change the printed residuals.
    """
    columns = pipeline_columns(params)
    ab, abbar, bbbar = (columns[pair] for pair in PAIRS)
    cab2, cabbar2, cbbbar2 = (_libm(_square, r.concurrence) for r in (ab, abbar, bbbar))
    r1 = (ab.ent.t_ab - abbar.ent.t_ab) - (cab2 - cabbar2)
    r2 = (ab.ent.t_ab + abbar.ent.t_ab) - (cab2 + cabbar2 - 2.0 / SQRT3 * cbbbar2)
    r3 = 0.5 * (3.0 - SQRT3) * (ab.ent.t_ba - abbar.ent.t_ba) - (cab2 - cabbar2)
    r4 = 0.5 * (3.0 + SQRT3) * (ab.ent.t_ba + abbar.ent.t_ba) - (cab2 + cabbar2)
    return [MonogamyResiduals(r1=w, r2=x, r3=y, r4=z)
            if p.temperature > monogamy_threshold(p.omega)
            else MonogamyResiduals(r1=w, r2=x, r3=None, r4=None)
            for p, w, x, y, z in zip(params, r1, r2, r3, r4)]
