"""Steering quantification built on entanglement witnesses.

A state is steerable from one side iff a particular mixture of the
state with a locally depolarized copy (the tau state) is entangled.
For X-states the witness reduces to comparing the squared coherences
against three threshold combinations Q_a, Q_b, Q_c of the populations;
the quantifier rescales the witness excess by 8/sqrt(3) so the Bell
state scores exactly 1.

Direction convention: tau1 (depolarizing the second qubit) witnesses
steering from the second party to the first (B -> A); the quantifier
for that direction carries +Q_b, the A -> B one carries -Q_b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .qstate import PSD_TOL, DenseState, InvalidStateError, TwoQubitXState, XStateColumns
from .steering_entropy import keep_above

SQRT3 = math.sqrt(3.0)
SCALE = 8.0 / SQRT3  # the witness quantifier's scale: the Bell state scores 1

BRANCH_CORNER = "corner"  # driven by c14, the |00><11| coherence
BRANCH_INNER = "inner"    # driven by c23, the |01><10| coherence

_SY = np.array([[0, -1j], [1j, 0]])
_SPIN_FLIP = np.kron(_SY, _SY)


class WitnessThresholds(NamedTuple):
    qa: float
    qb: float
    qc: float


@dataclass(frozen=True)
class EntSteeringReport:
    """Directional entanglement-based steerabilities with the active branch."""

    t_ab: float
    t_ba: float
    delta: float
    branch_ab: str
    branch_ba: str


def concurrence_xstate(s: TwoQubitXState | XStateColumns):
    """Concurrence of an X-state: 2 max{|c14| - sqrt(p22 p33), |c23| - sqrt(p11 p44), 0}.

    The maximum is Python's max in that order, elementwise for columns: the
    second term only where it is larger, 0.0 only where larger still.
    """
    corner, inner = abs(s.c14) - np.sqrt(s.p22 * s.p33), abs(s.c23) - np.sqrt(s.p11 * s.p44)
    if isinstance(corner, float):  # one state (np.float64 is a float)
        m = inner if inner > corner else corner
        return 2.0 * (0.0 if 0.0 > m else m)
    m = np.where(inner > corner, inner, corner)
    return 2.0 * np.where(0.0 > m, 0.0, m)


#: Eigenvalues of rho below this are refined by _exact_projection.
_RITZ_BELOW = 1e-10


def _scaled_int(x: float) -> int:
    """x * 2^1074 as an exact int: every finite float is a multiple of 2^-1074."""
    n, d = x.as_integer_ratio()
    return n << (1075 - d.bit_length())


def _exact_projection(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """v^H m v for an (n, n) m and an (n, k) v, each entry exact from the floats, rounded once."""
    def exact(a):  # complex floats as (re, im) pairs of scaled ints
        return [[(_scaled_int(z.real), _scaled_int(z.imag)) for z in row] for row in a.tolist()]

    def dot(x, y):  # sum of x_i * y_i over (re, im) pairs
        return (sum(a * c - b * d for (a, b), (c, d) in zip(x, y)),
                sum(a * d + b * c for (a, b), (c, d) in zip(x, y)))

    cols = list(zip(*exact(v)))
    mv = [[dot(row, col) for row in exact(m)] for col in cols]  # the columns of m v
    scale = 1 << (3 * 1074)
    return np.array([[complex(*(x / scale for x in dot([(re, -im) for re, im in col], w)))
                      for w in mv] for col in cols])


def concurrence_oracle(d: DenseState) -> float:
    """Spin-flip eigenvalue concurrence for an arbitrary two-qubit state.

    Independent of the X-state closed form: the square roots of the
    eigenvalues of rho (sy x sy) rho* (sy x sy), sorted descending, give
    max{0, l1 - l2 - l3 - l4}.  They are evaluated as the singular
    values of sqrt(rho~) sqrt(rho) with rho~ the spin-flipped state,
    which is the same spectrum without the sqrt-amplified roundoff of
    the non-Hermitian product.
    """
    if d.matrix.shape != (4, 4):  # one matrix, not a stack
        raise InvalidStateError("invalid state: need a two-qubit density matrix")
    ev, vec = np.linalg.eigh(d.matrix)
    if ev.min() < -PSD_TOL:
        raise InvalidStateError(f"invalid state: eigenvalue {ev.min():.3e}")
    # eigh gets an eigenvalue only to ~1e-16 absolute, and sqrt would amplify
    # that to ~1e-8 for a small one, so the small eigenvalues are taken again
    # from rho itself on their eigenvectors' span, in exact arithmetic.
    small = ev < _RITZ_BELOW
    if small.any():
        mu, u = np.linalg.eigh(_exact_projection(d.matrix, vec[:, small]))
        ev = np.concatenate([np.maximum(mu, 0.0), ev[~small]])
        vec = np.concatenate([vec[:, small] @ u, vec[:, ~small]], axis=1)
    sqrt_rho = (vec * np.sqrt(ev)) @ vec.conj().T
    sqrt_flipped = _SPIN_FLIP @ sqrt_rho.conj() @ _SPIN_FLIP
    lam = np.linalg.svd(sqrt_flipped @ sqrt_rho, compute_uv=False)
    return max(0.0, lam[0] - lam[1] - lam[2] - lam[3])


def witness_thresholds(s: TwoQubitXState | XStateColumns) -> WitnessThresholds:
    """The three population combinations entering the witness inequalities: floats or columns."""
    # Population products are grouped so exchanging the qubits (which
    # swaps p22 <-> p33) leaves qa, qc bit-identical and negates qb.
    corner, inner = s.p11 * s.p44, s.p22 * s.p33
    cross = 0.25 * (s.p11 + s.p44) * (s.p22 + s.p33)
    qa = 0.5 * (2.0 - SQRT3) * corner + 0.5 * (2.0 + SQRT3) * inner + cross
    qb = 0.25 * (s.p11 - s.p44) * (s.p22 - s.p33)
    qc = 0.5 * (2.0 + SQRT3) * corner + 0.5 * (2.0 - SQRT3) * inner + cross
    return WitnessThresholds(qa=qa, qb=qb, qc=qc)


def steerability_ent(s: TwoQubitXState | XStateColumns) -> EntSteeringReport:
    """Directional entanglement-based steerabilities of an X-state, or columns of them.

    t_ab = max{0, (8/sqrt3)(c14^2 - Qa - Qb), (8/sqrt3)(c23^2 - Qc - Qb)}
    t_ba = max{0, (8/sqrt3)(c14^2 - Qa + Qb), (8/sqrt3)(c23^2 - Qc + Qb)}

    The branch is the corner one where its term is >= the inner one.
    """
    qa, qb, qc = witness_thresholds(s)
    corner, inner = s.c14 * s.c14 - qa, s.c23 * s.c23 - qc
    directions = []
    for sign in (-1.0, 1.0):
        c, i = SCALE * (corner + sign * qb), SCALE * (inner + sign * qb)
        if isinstance(c, float):  # one state
            directions.append((keep_above(c, 0.0), BRANCH_CORNER) if c >= i
                              else (keep_above(i, 0.0), BRANCH_INNER))
        else:
            on_corner = c >= i
            directions.append((keep_above(np.where(on_corner, c, i), 0.0),
                               np.where(on_corner, BRANCH_CORNER, BRANCH_INNER)))
    (t_ab, branch_ab), (t_ba, branch_ba) = directions
    return EntSteeringReport(t_ab=t_ab, t_ba=t_ba, delta=abs(t_ab - t_ba),
                             branch_ab=branch_ab, branch_ba=branch_ba)


def tau_states(s: TwoQubitXState) -> tuple[TwoQubitXState, TwoQubitXState]:
    """Witness states (tau1, tau2) for the two steering directions.

    tau1 = rho/sqrt3 + (3-sqrt3)/3 (rho_A x I/2): entangled iff B can
    steer A.  tau2 uses I/2 x rho_B and witnesses A steering B.  Both
    stay in X form; only diagonals shift.
    """
    k = 1.0 / SQRT3
    w = (3.0 - SQRT3) / 6.0
    # Marginal populations: rho_A diag = (p11+p22, p33+p44); rho_B = (p11+p33, p22+p44).
    ra0, ra1 = s.p11 + s.p22, s.p33 + s.p44
    rb0, rb1 = s.p11 + s.p33, s.p22 + s.p44
    tau1 = TwoQubitXState(
        p11=k * s.p11 + w * ra0, p22=k * s.p22 + w * ra0,
        p33=k * s.p33 + w * ra1, p44=k * s.p44 + w * ra1,
        c14=k * s.c14, c23=k * s.c23,
    )
    tau2 = TwoQubitXState(
        p11=k * s.p11 + w * rb0, p22=k * s.p22 + w * rb1,
        p33=k * s.p33 + w * rb0, p44=k * s.p44 + w * rb1,
        c14=k * s.c14, c23=k * s.c23,
    )
    return tau1, tau2
