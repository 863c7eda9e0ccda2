"""Steering quantification built on the entropic uncertainty bound.

For three Pauli measurement settings, the sum of measured conditional
entropies H(sigma_i^B | sigma_i^A) is bounded below by 2 for any
unsteerable state.  The closed form evaluated here is an affine repack
of that sum,

    closed_form = 6 - 2 * (H_x + H_y + H_z),

so large closed-form values mean strong steering: the Bell state gives
6, the maximally mixed state 0, pure product states 2.  The calibration
is locked by `oracle_affine_calibration` (evaluated on exactly those
reference states, once per process) and cross-checked against the
measurement-statistics oracle on random states in the test suite.

Steerability is the clamped, normalized excess over the unsteerable
bound: S = max{0, (closed_form - 2) / 4}, with the maximum value 6
attained by the Bell state, so S(Bell) = 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .qstate import (
    BlochXCoefficients,
    DenseState,
    TwoQubitXState,
    bloch_coefficients,
    embed_dense,
)

I_MAX = 6.0
LOG_CLAMP = 1e-12

_SIGMA = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}

A_TO_B = "a->b"
B_TO_A = "b->a"


@dataclass(frozen=True)
class EntropySteeringReport:
    """Both directional conditional-entropy sums, steerabilities and asymmetry."""

    i_ab: float
    i_ba: float
    s_ab: float
    s_ba: float
    delta: float


def _xlogx(x: float) -> float:
    """x * log2(x) with the 0 log 0 = 0 convention and noise clamping.

    Arguments in [-LOG_CLAMP, 0] are treated as 0; anything below is a
    genuinely invalid coefficient.
    """
    if x <= 0.0:
        if x < -LOG_CLAMP:
            raise ValueError(f"coefficient out of range: log argument {x:.3e}")
        return 0.0
    return x * np.log2(x)


def _pair(c: float) -> float:
    """(1+c)log(1+c) + (1-c)log(1-c), base 2."""
    return _xlogx(1.0 + c) + _xlogx(1.0 - c)


def _shared_terms(b: BlochXCoefficients) -> tuple[float, float, float]:
    """quad and the c1, c2 pairs: the terms both directions' sums share, in that order.

    Evaluated before either direction's local pair, so an out-of-range
    log argument raises for the first failing term: quad, c1, c2, p, q.
    """
    quad = 0.5 * math.fsum((
        _xlogx((1.0 + b.c3) + (b.p + b.q)),
        _xlogx((1.0 + b.c3) - (b.p + b.q)),
        _xlogx((1.0 - b.c3) + (b.q - b.p)),
        _xlogx((1.0 - b.c3) + (b.p - b.q)),
    ))
    return quad, _pair(b.c1), _pair(b.c2)


def _entropy_sum(shared: tuple[float, float, float], local: float) -> float:
    """The closed-form sum from the shared terms and one local polarization."""
    # fsum keeps the result independent of term order, so exchanging the
    # qubit roles swaps the two directions bit-exactly.
    return math.fsum((*shared, -_pair(local)))


def entropy_sum_closed_form(b: BlochXCoefficients, direction: str = A_TO_B) -> float:
    """Closed-form conditional-entropy combination for an X-state, in bits.

    The two directions differ only in which local polarization (p for
    A->B, q for B->A) is subtracted.
    """
    if direction not in (A_TO_B, B_TO_A):
        raise ValueError(f"unknown direction: {direction!r}")
    return _entropy_sum(_shared_terms(b), b.p if direction == A_TO_B else b.q)


#: Joint eigenprojectors (1 +/- sigma_i)/2 x (1 +/- sigma_i)/2 as a 12x4x4
#: stack: axes x, y, z in turn, first-qubit sign outer, second-qubit inner.
_JOINT_PROJECTORS = np.array([
    np.kron(0.5 * (np.eye(2) + sa * _SIGMA[axis]), 0.5 * (np.eye(2) + sb * _SIGMA[axis]))
    for axis in "xyz" for sa in (1, -1) for sb in (1, -1)
])


def _neg_entropy_rows(p: np.ndarray) -> np.ndarray:
    """sum p log2 p along each row, with 0 log 0 = 0 and p <= 0 contributing 0."""
    return (p * np.log2(p, out=np.zeros_like(p), where=p > 0.0)).sum(axis=1)


def entropy_sum_oracle(d: DenseState, direction: str = A_TO_B) -> float:
    """Measurement-statistics oracle: sum of H(sigma_i^B | sigma_i^A), in bits.

    Builds the 2x2 joint outcome distribution for each Pauli axis from
    eigenprojectors (1 +/- sigma_i)/2 and sums the three conditional
    entropies H(joint) - H(conditioning marginal).  For B->A the roles
    of the two qubits are swapped.
    """
    if d.matrix.shape != (4, 4):  # one matrix, not a stack
        raise ValueError("invalid state: need a two-qubit density matrix")
    if direction not in (A_TO_B, B_TO_A):
        raise ValueError(f"unknown direction: {direction!r}")
    joint = np.trace(d.matrix @ _JOINT_PROJECTORS, axis1=1, axis2=2).real.reshape(3, 2, 2)
    if direction == B_TO_A:
        joint = joint.transpose(0, 2, 1)  # condition on the second qubit's outcome
    cond_marginal = joint.sum(axis=2)
    joint = joint.reshape(3, 4)
    if joint.min() < -LOG_CLAMP or cond_marginal.min() < -LOG_CLAMP:
        bad = next(p for axis in zip(joint, cond_marginal) for p in axis
                   if p.min() < -LOG_CLAMP)
        raise ValueError(f"coefficient out of range: probability {bad.min():.3e}")
    # numpy adds a row this short left to right and a zero term adds nothing,
    # so each row sum equals the sum over its positive entries alone.
    h = _neg_entropy_rows(cond_marginal) - _neg_entropy_rows(joint)
    return float(h[0] + h[1] + h[2])


@functools.cache
def oracle_affine_calibration() -> tuple[float, float]:
    """Affine map (slope, intercept) sending the oracle to the closed form.

    Fixed by evaluating both quantities on the Bell state and the
    maximally mixed state: closed = slope * oracle + intercept.  It is a
    constant, evaluated once per process on first use.
    """
    bell = TwoQubitXState(0.5, 0.0, 0.0, 0.5, 0.5, 0.0)
    mixed = TwoQubitXState(0.25, 0.25, 0.25, 0.25, 0.0, 0.0)
    pts = []
    for s in (bell, mixed):
        oracle = entropy_sum_oracle(embed_dense(s), A_TO_B)
        closed = entropy_sum_closed_form(bloch_coefficients(s), A_TO_B)
        pts.append((oracle, closed))
    (x0, y0), (x1, y1) = pts
    slope = (y1 - y0) / (x1 - x0)
    return slope, y0 - slope * x0


def entropy_sum_from_oracle(d: DenseState, direction: str = A_TO_B) -> float:
    """Oracle value mapped through the calibrated affine relation.

    The calibration is evaluated once per process and reused.
    """
    slope, intercept = oracle_affine_calibration()
    return slope * entropy_sum_oracle(d, direction) + intercept


#: Steerabilities below this are roundoff on the unsteerable bound and flush to 0.
STEER_FLUSH = 1e-14


def keep_above(x, floor: float):
    """x where x > floor, else 0.0 (NaN included); elementwise for arrays."""
    if isinstance(x, np.ndarray):
        return np.where(x > floor, x, 0.0)
    return x if x > floor else 0.0


def steerability_from_sum(i):
    """Normalized steerability max{0, (I - 2) / (I_max - 2)}, elementwise for arrays.

    Sums that analytically sit on the bound I = 2 can come out a few
    ulps above it; anything below STEER_FLUSH is clamped to exact zero.
    """
    return keep_above((i - 2.0) / (I_MAX - 2.0), STEER_FLUSH)


def steerability_entropy(s: TwoQubitXState) -> EntropySteeringReport:
    """Directional steerabilities and steering asymmetry for an X-state."""
    b = bloch_coefficients(s)
    shared = _shared_terms(b)
    i_ab, i_ba = _entropy_sum(shared, b.p), _entropy_sum(shared, b.q)
    s_ab = steerability_from_sum(i_ab)
    s_ba = steerability_from_sum(i_ba)
    return EntropySteeringReport(i_ab=i_ab, i_ba=i_ba, s_ab=s_ab, s_ba=s_ba,
                                 delta=abs(s_ab - s_ba))
