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

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import steering_ent, steering_entropy
from .qstate import DenseState, TwoQubitXState, partial_trace
from .steering_ent import BRANCH_CORNER, BRANCH_INNER, SQRT3, EntSteeringReport
from .steering_entropy import EntropySteeringReport, keep_above

PAIRS = ("AB", "ABbar", "BBbar")
_KEPT = {"AB": ("A", "B"), "ABbar": ("A", "Bbar"), "BBbar": ("B", "Bbar")}

# Steerability below this level counts as zero when locating births/deaths.
BIRTH_EPS = 1e-14


@dataclass(frozen=True)
class HawkingParams:
    """Hawking temperature and mode frequency, natural units (hbar=G=c=k=1)."""

    temperature: float
    omega: float

    def __post_init__(self):
        if not (self.temperature > 0.0):
            raise ValueError(f"temperature must be > 0, got {self.temperature}")
        if not (self.omega > 0.0):
            raise ValueError(f"omega must be > 0, got {self.omega}")

    @property
    def mass(self) -> float:
        """Black-hole mass, M = 1 / (8 pi T)."""
        return 1.0 / (8.0 * math.pi * self.temperature)


@dataclass(frozen=True)
class HawkingAmplitudes:
    """(C, S) at one temperature, or as float64 columns over a grid."""

    c_amp: float | np.ndarray
    s_amp: float | np.ndarray


#: Analytic zero-temperature limit (frozen vacuum).
FROZEN = HawkingAmplitudes(c_amp=1.0, s_amp=0.0)

_LIBM = {fn: np.frompyfunc(fn, 1, 1) for fn in (math.exp, math.sqrt, math.log2)}


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
    """Amplitude pair (C, S) for given (T, omega), stable for extreme ratios."""
    return amplitudes_at(p.omega / p.temperature)


def tripartite_state(a: HawkingAmplitudes) -> DenseState:
    """Pure three-mode density matrix (1/2) v v^T with v = C|000> + S|011> + |110>."""
    v = np.zeros(8)
    v[0b000] = a.c_amp
    v[0b011] = a.s_amp
    v[0b110] = 1.0
    return DenseState(np.outer(v, v) / 2.0)


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

    Deliberately not steering_entropy._xlogx: that one takes np.log2,
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

    For columns every numeric field of the report is an array, equal
    element by element, bit for bit, to the report at the float inputs.
    """
    c, s = a.c_amp, a.s_amp
    c2, s2 = c * c, s * s
    xc, xs = _xlg(c2), _xlg(s2)
    if pair == "AB":
        lp = _xlg(1.0 + c) + _xlg(1.0 - c)
        raw_ab = 0.25 * (2.0 * lp + xc + xs)
        raw_ba = 0.25 * (2.0 * lp - _xlg(1.0 + s2) + xs)
        t_ab = c2 - c2 * s2 / SQRT3
        t_ba = c2 - s2 / SQRT3
        conc = c
        branch = BRANCH_CORNER
    elif pair == "ABbar":
        lp = _xlg(1.0 + s) + _xlg(1.0 - s)
        raw_ab = 0.25 * (2.0 * lp + xc + xs)
        raw_ba = 0.25 * (2.0 * lp - _xlg(1.0 + c2) + xc)
        t_ab = s2 - c2 * s2 / SQRT3
        t_ba = s2 - c2 / SQRT3
        conc = s
        branch = BRANCH_INNER
    elif pair == "BBbar":
        cs = c * s
        lp = _xlg(1.0 + cs) + _xlg(1.0 - cs)
        raw_ab = 0.25 * (2.0 * lp + xs - _xlg(1.0 + s2))
        raw_ba = 0.25 * (2.0 * lp + xc - _xlg(1.0 + c2))
        t_ab = c2 * s2 - s2 / SQRT3
        t_ba = c2 * s2 - c2 / SQRT3
        conc = cs
        branch = BRANCH_CORNER
    else:
        raise ValueError(f"unknown pair: {pair!r}")
    i_ab, i_ba = 4.0 * raw_ab + 2.0, 4.0 * raw_ba + 2.0
    s_ab = steering_entropy.steerability_from_sum(i_ab)
    s_ba = steering_entropy.steerability_from_sum(i_ba)
    entropy = EntropySteeringReport(i_ab=i_ab, i_ba=i_ba, s_ab=s_ab, s_ba=s_ba,
                                    delta=abs(s_ab - s_ba))
    t_ab, t_ba = keep_above(t_ab, 0.0), keep_above(t_ba, 0.0)
    ent = EntSteeringReport(t_ab=t_ab, t_ba=t_ba, delta=abs(t_ab - t_ba),
                            branch_ab=branch, branch_ba=branch)
    return BipartitionReport(pair=pair, entropy=entropy, ent=ent, concurrence=conc)


def pipeline_report(p: HawkingParams, pair: str) -> BipartitionReport:
    """Generic path: three-mode matrix -> partial trace -> steering measures.

    Must agree with closed_form_report field by field; the test suite
    enforces 1e-10 on a temperature grid.
    """
    a = amplitudes(p)
    return pipeline_report_from_amplitudes(a, pair)


def pipeline_report_from_amplitudes(a: HawkingAmplitudes, pair: str) -> BipartitionReport:
    if pair not in PAIRS:
        raise ValueError(f"unknown pair: {pair!r}")
    rho = tripartite_state(a)
    reduced = partial_trace(rho, _KEPT[pair])
    return BipartitionReport(
        pair=pair,
        entropy=steering_entropy.steerability_entropy(reduced),
        ent=steering_ent.steerability_ent(reduced),
        concurrence=steering_ent.concurrence_xstate(reduced),
    )


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


def _find_birth(f, grid: np.ndarray, column: np.ndarray, omega: float) -> float:
    """Smallest T where f (a clamped steerability) crosses BIRTH_EPS."""
    vals = column - BIRTH_EPS
    idx = np.nonzero((vals[:-1] <= 0.0) & (vals[1:] > 0.0))[0]
    if idx.size == 0:
        raise BracketError(f"bracket failure: no birth in [1e-3, 1e4] * omega={omega}")
    i = idx[0]
    return _bisect(lambda t: f(t) - BIRTH_EPS, float(grid[i]), float(grid[i + 1]),
                   vals[i], vals[i + 1], xtol=1e-12 * omega)


def _find_death(f, grid: np.ndarray, column: np.ndarray, omega: float) -> float:
    """Largest T where f crosses BIRTH_EPS from above."""
    vals = column - BIRTH_EPS
    idx = np.nonzero((vals[:-1] > 0.0) & (vals[1:] <= 0.0))[0]
    if idx.size == 0:
        raise BracketError(f"bracket failure: no death in [1e-3, 1e4] * omega={omega}")
    i = idx[-1]
    return _bisect(lambda t: f(t) - BIRTH_EPS, float(grid[i]), float(grid[i + 1]),
                   vals[i], vals[i + 1], xtol=1e-12 * omega)


def _find_peak(f, grid: np.ndarray, column: np.ndarray, omega: float) -> float:
    """Interior maximum of f via golden-section search."""
    i = int(np.argmax(column))
    if i == 0 or i == len(grid) - 1:
        raise BracketError(f"bracket failure: peak not interior for omega={omega}")
    return _golden_max(f, *(float(t) for t in grid[i - 1:i + 2]), tol=1e-10)


def _measure(rep: BipartitionReport, attr: str):
    return getattr(rep.entropy if attr.startswith("s_") else rep.ent, attr)


def critical_temperatures(omega: float) -> CriticalTemperatures:
    """All five critical temperatures, closed form and numeric side by side.

    The kernel runs once per pair over a 600-point grid in
    [1e-3, 1e4] * omega; each finder takes its bracket from those
    columns and refines it with the kernel at single temperatures.
    """
    if not (math.isfinite(omega) and omega > 0.0):
        raise ValueError(f"omega must be finite and > 0, got {omega}")
    grid = np.geomspace(1e-3 * omega, 1e4 * omega, 600)
    cols = amplitudes_at(omega / grid)
    reports = {pair: closed_form_report_from_amplitudes(cols, pair)
               for pair in ("ABbar", "BBbar")}

    def point(name, closed, finder, pair, attr):
        def f(t):
            return _measure(closed_form_report(HawkingParams(t, omega), pair), attr)

        try:
            numeric = finder(f, grid, _measure(reports[pair], attr), omega)
        except BracketError as exc:
            return CriticalPoint(name=name, closed_form=closed, numeric=math.nan,
                                 discrepancy=None, error=str(exc))
        disc = None if closed is None else abs(numeric - closed)
        return CriticalPoint(name=name, closed_form=closed, numeric=numeric,
                             discrepancy=disc)

    t_ent_birth = omega / math.log(math.sqrt(3.0))
    t_peak = omega / math.log(2.0 + math.sqrt(3.0))
    t_dea = -omega / math.log(math.sqrt(3.0) - 1.0)
    return CriticalTemperatures(
        t_birth_entropy_a_to_abar=point(
            "t_birth_entropy_a_to_abar", None, _find_birth, "ABbar", "s_ab"),
        t_birth_entropy_abar_to_a=point(
            "t_birth_entropy_abar_to_a", None, _find_birth, "ABbar", "s_ba"),
        t_birth_ent_abar_to_a=point(
            "t_birth_ent_abar_to_a", t_ent_birth, _find_birth, "ABbar", "t_ba"),
        t_peak_bbbar=point("t_peak_bbbar", t_peak, _find_peak, "BBbar", "t_ab"),
        t_death_bbbar=point("t_death_bbbar", t_dea, _find_death, "BBbar", "t_ab"),
    )


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


def monogamy_threshold(omega: float) -> float:
    return omega / math.log(math.sqrt(3.0))


def monogamy_residuals(p: HawkingParams) -> MonogamyResiduals:
    """Evaluate the four identities from the matrix pipeline (not closed forms)."""
    ab = pipeline_report(p, "AB")
    abbar = pipeline_report(p, "ABbar")
    bbbar = pipeline_report(p, "BBbar")
    cab2 = ab.concurrence ** 2
    cabbar2 = abbar.concurrence ** 2
    cbbbar2 = bbbar.concurrence ** 2
    r1 = (ab.ent.t_ab - abbar.ent.t_ab) - (cab2 - cabbar2)
    r2 = (ab.ent.t_ab + abbar.ent.t_ab) - (cab2 + cabbar2 - 2.0 / SQRT3 * cbbbar2)
    if p.temperature > monogamy_threshold(p.omega):
        r3 = 0.5 * (3.0 - SQRT3) * (ab.ent.t_ba - abbar.ent.t_ba) - (cab2 - cabbar2)
        r4 = 0.5 * (3.0 + SQRT3) * (ab.ent.t_ba + abbar.ent.t_ba) - (cab2 + cabbar2)
    else:
        r3 = r4 = None
    return MonogamyResiduals(r1=r1, r2=r2, r3=r3, r4=r4)
