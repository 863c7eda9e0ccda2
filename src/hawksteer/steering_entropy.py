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
    XStateColumns,
    bloch_coefficients,
    embed_dense,
)

I_MAX = 6.0
LOG_CLAMP = 1e-12

_log2 = np.log2  # looked up once: one state's closed form calls it per argument

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


def _zero(x: float) -> float:
    """x log2 x = 0.0 for x <= 0 within LOG_CLAMP of 0 (noise); below it x is invalid."""
    if x < -LOG_CLAMP:
        raise ValueError(f"coefficient out of range: log argument {x:.3e}")
    return 0.0


def _sums(t: list) -> list[float]:
    """One state's sums from its x log x terms: quad and the c1, c2 pairs less each local pair.

    fsum keeps each sum independent of term order, so exchanging the qubit
    roles swaps the two directions bit-exactly.
    """
    quad, c1, c2 = 0.5 * math.fsum(t[:4]), t[4] + t[5], t[6] + t[7]
    sums = []
    for k in range(8, len(t), 2):
        sums.append(math.fsum((quad, c1, c2, -(t[k] + t[k + 1]))))
    return sums


def _entropy_sums(b: BlochXCoefficients, *local):
    """The closed-form sum for each local polarization: floats, or float64 columns.

    The x log x arguments are quad's four, then 1 + c and 1 - c for c1, c2
    and each local polarization, the order in which an invalid one raises.
    One state takes np.log2 per argument, columns one np.log2 over their
    (N, K) block, which equals it on each value alone.
    """
    hi, lo, pq = 1.0 + b.c3, 1.0 - b.c3, b.p + b.q
    args = [hi + pq, hi - pq, lo + (b.q - b.p), lo + (b.p - b.q),
            1.0 + b.c1, 1.0 - b.c1, 1.0 + b.c2, 1.0 - b.c2]
    for c in local:
        args += (1.0 + c, 1.0 - c)
    if not isinstance(hi, np.ndarray):
        return _sums([_zero(x) if x <= 0.0 else x * _log2(x) for x in args])
    x = np.array(args).T
    zero, bad = x <= 0.0, x < -LOG_CLAMP
    if bad.any():
        _zero(x.flat[np.argmax(bad)])  # the first failing state's first invalid argument
    terms = np.where(zero, 0.0, x * np.log2(x, out=np.ones_like(x), where=~zero))
    return np.array([_sums(t) for t in terms.tolist()]).reshape(-1, len(local)).T


def entropy_sum_closed_form(b: BlochXCoefficients, direction: str = A_TO_B):
    """Closed-form conditional-entropy combination for an X-state, in bits.

    The two directions differ only in which local polarization (p for
    A->B, q for B->A) is subtracted.  A float, or a column for columns.
    """
    if direction not in (A_TO_B, B_TO_A):
        raise ValueError(f"unknown direction: {direction!r}")
    return _entropy_sums(b, b.p if direction == A_TO_B else b.q)[0]


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


def steerability_entropy(s: TwoQubitXState | XStateColumns) -> EntropySteeringReport:
    """Directional steerabilities and steering asymmetry for an X-state, or columns of them."""
    b = bloch_coefficients(s)
    i_ab, i_ba = _entropy_sums(b, b.p, b.q)
    s_ab, s_ba = steerability_from_sum(i_ab), steerability_from_sum(i_ba)
    return EntropySteeringReport(i_ab=i_ab, i_ba=i_ba, s_ab=s_ab, s_ba=s_ba,
                                 delta=abs(s_ab - s_ba))
