"""Two-qubit X-state representation, dense density matrices and partial traces.

The X-state carries four real populations and the two real coherences
(|00><11| and |01><10|).  Dense matrices are plain complex arrays wrapped
with Hermiticity / trace / positivity validation; they back the oracle
paths and the three-mode state shared by Alice (A), Bob (B) and the
mode behind the horizon (Bbar).

Basis ordering for three modes is |abc> = |a>_A |b>_B |c>_Bbar with
lexicographic index 4a + 2b + c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Tolerances for validation, shared across the package.
TRACE_TOL = 1e-12
HERM_TOL = 1e-12
PSD_TOL = 1e-10
POP_CLAMP = 1e-12
XPATTERN_TOL = 1e-12

MODES = ("A", "B", "Bbar")

# Entries of a 4x4 matrix off the X pattern (diagonal and anti-diagonal).
_OFF_X = ~(np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1])


class InvalidStateError(ValueError):
    """Raised when a state fails its structural invariants."""


@dataclass(frozen=True)
class TwoQubitXState:
    """Real-symmetric X-form density matrix.

    Populations p11..p44 sit on the diagonal in the |00>,|01>,|10>,|11>
    basis; c14 couples |00><->|11| and c23 couples |01><->|10|.
    Populations in [-POP_CLAMP, 0) are treated as float noise and
    clamped to zero at construction.  The state is then checked (unit
    trace, no negative population, both 2x2 blocks PSD); a violation,
    NaN included, raises InvalidStateError listing every diagnostic with
    its residual.
    """

    p11: float
    p22: float
    p33: float
    p44: float
    c14: float
    c23: float

    def __post_init__(self):
        for name in ("p11", "p22", "p33", "p44"):
            v = getattr(self, name)
            if -POP_CLAMP <= v < 0.0:
                object.__setattr__(self, name, 0.0)
        # Each test is written "not ok" so that a NaN fails it.
        diags = []
        tr = self.p11 + self.p22 + self.p33 + self.p44
        if not abs(tr - 1.0) <= TRACE_TOL:
            diags.append(f"trace != 1: residual {tr - 1.0:.3e}")
        for name, v in zip(("p11", "p22", "p33", "p44"), self.populations):
            if not v >= -POP_CLAMP:
                diags.append(f"negative population {name}: {v:.3e}")
        for c, a, b in (("c14", "p11", "p44"), ("c23", "p22", "p33")):
            v = getattr(self, c)
            lim = math.sqrt(max(getattr(self, a), 0.0) * max(getattr(self, b), 0.0))
            if not abs(v) <= lim + POP_CLAMP:
                diags.append(f"PSD block violated: |{c}| > sqrt({a}*{b}) by {abs(v) - lim:.3e}")
        if diags:
            raise InvalidStateError("; ".join(diags))

    @property
    def populations(self) -> tuple[float, float, float, float]:
        return (self.p11, self.p22, self.p33, self.p44)

    def swapped(self) -> "TwoQubitXState":
        """Exchange the two qubits (|01> <-> |10|)."""
        return TwoQubitXState(self.p11, self.p33, self.p22, self.p44,
                              self.c14, self.c23)


@dataclass(frozen=True)
class BlochXCoefficients:
    """Correlation coefficients (c1, c2, c3) and local z-polarizations (p, q)."""

    c1: float
    c2: float
    c3: float
    p: float
    q: float


@dataclass(frozen=True)
class DenseState:
    """Validated dense density matrix of dimension 2, 4 or 8."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] not in (2, 4, 8):
            raise InvalidStateError(f"invalid input state: shape {m.shape}")
        if not np.isfinite(m).all():
            raise InvalidStateError("invalid input state: non-finite entry")
        if np.max(np.abs(m - m.conj().T)) > HERM_TOL:
            raise InvalidStateError("invalid input state: not Hermitian")
        tr = np.trace(m)
        if abs(tr.real - 1.0) > TRACE_TOL or abs(tr.imag) > TRACE_TOL:
            raise InvalidStateError("invalid input state: trace != 1")
        if np.linalg.eigvalsh(m)[0] < -PSD_TOL:
            raise InvalidStateError("invalid input state: negative eigenvalue")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def bloch_coefficients(s: TwoQubitXState) -> BlochXCoefficients:
    """Map an X-state to its (c1, c2, c3, p, q) parameterization.

    c1 = 2(c14 + c23), c2 = 2(c23 - c14), c3 = p11 - p22 - p33 + p44,
    p = p11 + p22 - p33 - p44 (first-qubit z-polarization),
    q = p11 - p22 + p33 - p44 (second-qubit z-polarization).
    """
    # Grouped so that exchanging the two qubits maps p <-> q bit-exactly.
    return BlochXCoefficients(
        c1=2.0 * (s.c14 + s.c23),
        c2=2.0 * (s.c23 - s.c14),
        c3=(s.p11 + s.p44) - (s.p22 + s.p33),
        p=(s.p11 + s.p22) - (s.p33 + s.p44),
        q=(s.p11 + s.p33) - (s.p22 + s.p44),
    )


def embed_dense(s: TwoQubitXState) -> DenseState:
    """Embed an X-state into a dense 4x4 matrix."""
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0], m[1, 1], m[2, 2], m[3, 3] = s.populations
    m[0, 3] = m[3, 0] = s.c14
    m[1, 2] = m[2, 1] = s.c23
    return DenseState(m)


def extract_xstate(d: DenseState) -> TwoQubitXState:
    """Extract the X-state from a dense 4x4 matrix.

    Raises InvalidStateError("non-X reduction: ...") when any entry off
    the diagonal/anti-diagonal pattern, or any imaginary part on the
    pattern, exceeds XPATTERN_TOL.
    """
    m = d.matrix
    if d.dim != 4:
        raise InvalidStateError("invalid input state: dim != 4")
    worst = np.max(np.abs(m[_OFF_X]))
    if worst > XPATTERN_TOL:
        raise InvalidStateError(f"non-X reduction: off-pattern entry {worst:.3e}")
    if np.max(np.abs(m.imag)) > XPATTERN_TOL:
        raise InvalidStateError("non-X reduction: complex entry on pattern")
    return TwoQubitXState(
        p11=m[0, 0].real, p22=m[1, 1].real, p33=m[2, 2].real, p44=m[3, 3].real,
        c14=m[0, 3].real, c23=m[1, 2].real,
    )


def partial_trace(t: DenseState, kept: tuple[str, str]) -> TwoQubitXState:
    """Trace an 8x8 three-mode state down to the two modes in `kept`.

    The output qubit order follows the order of `kept`; the reduction
    must have the X pattern or an error is raised.
    """
    if t.dim != 8:
        raise InvalidStateError("invalid input state: dim != 8")
    if len(kept) != 2 or any(k not in MODES for k in kept) or kept[0] == kept[1]:
        raise ValueError(f"kept must be two distinct labels from {MODES}: {kept}")
    axes = [MODES.index(k) for k in kept]
    (traced,) = [i for i in range(3) if i not in axes]
    r = t.matrix.reshape(2, 2, 2, 2, 2, 2)
    reduced = np.trace(r, axis1=traced, axis2=traced + 3)
    # After tracing, remaining row/col axes keep their relative mode order.
    remaining = [i for i in range(3) if i != traced]
    perm = [remaining.index(a) for a in axes]
    reduced = reduced.transpose(perm + [p + 2 for p in perm]).reshape(4, 4)
    return extract_xstate(DenseState(reduced))
