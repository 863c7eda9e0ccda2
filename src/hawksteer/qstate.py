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

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# Tolerances for validation, shared across the package.
TRACE_TOL = 1e-12
HERM_TOL = 1e-12
PSD_TOL = 1e-10
POP_CLAMP = 1e-12
XPATTERN_TOL = 1e-12

MODES = ("A", "B", "Bbar")

# Flat indices into a 4x4 matrix: the entries off the X pattern (diagonal
# and anti-diagonal), and p11, p22, p33, p44, c14, c23 in TwoQubitXState order.
_OFF_X = np.flatnonzero(~(np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1]))
_X_FIELDS = np.array([0, 5, 10, 15, 3, 6])


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


class XStateColumns(NamedTuple):
    """The fields of N validated X-states as float64 columns, for the column measures."""

    p11: np.ndarray
    p22: np.ndarray
    p33: np.ndarray
    p44: np.ndarray
    c14: np.ndarray
    c23: np.ndarray

    @classmethod
    def of(cls, states: Sequence[TwoQubitXState]) -> "XStateColumns":
        rows = [(*s.populations, s.c14, s.c23) for s in states]
        return cls(*np.array(rows, dtype=np.float64).reshape(-1, 6).T)


class BlochXCoefficients(NamedTuple):
    """Correlation coefficients (c1, c2, c3) and local z-polarizations (p, q): floats or columns."""

    c1: float
    c2: float
    c3: float
    p: float
    q: float


@dataclass(frozen=True)
class DenseState:
    """Validated dense density matrix of dimension 2, 4 or 8, or a stack of them.

    A stack has shape (N, d, d).  It is validated as a whole, with the
    checks, tolerances and messages of a single matrix and one eigvalsh
    call, so a bad matrix anywhere in it raises the error that it raises
    on its own.
    """

    matrix: np.ndarray

    def __post_init__(self):
        try:
            m = np.asarray(self.matrix, dtype=complex)
        except ValueError:  # a sequence of matrices of unequal shapes
            shapes = [np.shape(x) for x in self.matrix]
            bad = next((s for s in shapes if s != shapes[0] or not _square(s)), None)
            if bad is None:
                raise
            raise InvalidStateError(f"invalid input state: shape {bad}") from None
        object.__setattr__(self, "matrix", m)
        stacked = m.ndim == 3
        shape = m.shape[1:] if stacked else m.shape
        if not _square(shape):
            raise InvalidStateError(f"invalid input state: shape {shape}")
        if not np.isfinite(m).all():
            raise InvalidStateError("invalid input state: non-finite entry")
        if abs(m - m.conj().swapaxes(-1, -2)).max(initial=0.0) > HERM_TOL:
            raise InvalidStateError("invalid input state: not Hermitian")
        tr = m.trace(axis1=-2, axis2=-1)
        off_re, off_im = abs(tr.real - 1.0), abs(tr.imag)
        if stacked:
            off_re, off_im = off_re.max(initial=0.0), off_im.max(initial=0.0)
        if off_re > TRACE_TOL or off_im > TRACE_TOL:
            raise InvalidStateError("invalid input state: trace != 1")
        lowest = np.linalg.eigvalsh(m)[..., 0]
        if (lowest.min(initial=0.0) if stacked else lowest) < -PSD_TOL:
            raise InvalidStateError("invalid input state: negative eigenvalue")

    @property
    def dim(self) -> int:
        """Dimension of one matrix."""
        return self.matrix.shape[-1]


def _square(shape: tuple[int, ...]) -> bool:
    return len(shape) == 2 and shape[0] == shape[1] and shape[0] in (2, 4, 8)


def bloch_coefficients(s: TwoQubitXState | XStateColumns) -> BlochXCoefficients:
    """Map an X-state, or columns of them, to its (c1, c2, c3, p, q) parameterization.

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


def _xstates(m: np.ndarray) -> list[TwoQubitXState]:
    """The X-states of a validated (N, 4, 4) stack, or the first matrix's non-X error."""
    flat = m.reshape(-1, 16)
    off, imag = abs(flat[:, _OFF_X]), abs(flat.imag)
    if off.max(initial=0.0) > XPATTERN_TOL or imag.max(initial=0.0) > XPATTERN_TOL:
        first = np.argmax((off.max(axis=1) > XPATTERN_TOL) | (imag.max(axis=1) > XPATTERN_TOL))
        worst = off[first].max()
        if worst > XPATTERN_TOL:
            raise InvalidStateError(f"non-X reduction: off-pattern entry {worst:.3e}")
        raise InvalidStateError("non-X reduction: complex entry on pattern")
    return [TwoQubitXState(*fields) for fields in flat.real[:, _X_FIELDS]]


@functools.cache
def _trace_gather(kept: tuple[tuple[str, str], ...]) -> tuple[np.ndarray, np.ndarray]:
    """Flat 8x8 indices (g0, g1), each (K, 4, 4), for the K pairs in `kept`.

    The reduction to kept[k] is m.flat[g0[k]] + m.flat[g1[k]]: gt[k, i, j]
    indexes the entry whose kept modes carry the bits of i and j, in the
    order of kept[k], and whose traced mode is t on both sides.
    """
    gather = ([], [])
    for pair in kept:
        if len(pair) != 2 or any(k not in MODES for k in pair) or pair[0] == pair[1]:
            raise ValueError(f"kept must be two distinct labels from {MODES}: {pair}")
        axes = [MODES.index(k) for k in pair]
        (traced,) = [i for i in range(3) if i not in axes]
        shift = [2 - a for a in (*axes, traced)]  # mode 0 (A) is the high bit
        for t in (0, 1):
            index = np.array([((i >> 1) << shift[0]) | ((i & 1) << shift[1]) | (t << shift[2])
                              for i in range(4)])
            gather[t].append(8 * index[:, None] + index[None, :])
    return np.array(gather[0]), np.array(gather[1])


def _reduce(m: np.ndarray, *kept: tuple[str, str]) -> DenseState:
    """The validated reductions of an 8x8 matrix or an (N, 8, 8) stack to each kept pair.

    One (K * N, 4, 4) stack in pair-major order: the N reductions to
    kept[0] first.
    """
    g0, g1 = _trace_gather(tuple(map(tuple, kept)))
    flat = m.reshape(-1, 64)
    # The two-term sum np.trace forms, entry by entry; np.trace starts it at
    # +0.0, which only differs for two -0.0 terms (no three-mode state has one).
    return DenseState((flat[:, g0] + flat[:, g1]).swapaxes(0, 1).reshape(-1, 4, 4))


def partial_traces(t: DenseState, *kept: tuple[str, str]) -> list[TwoQubitXState]:
    """Trace each 8x8 matrix of an (N, 8, 8) stack down to each kept pair.

    Qubit order follows the order within each pair.  One gather, one
    validation of the (K * N, 4, 4) stack and one X-pattern check; the
    result is pair-major (the N reductions to kept[0] first), and a non-X
    reduction raises InvalidStateError for the first one in that order.
    """
    if t.matrix.ndim != 3 or t.dim != 8:
        raise InvalidStateError("invalid input state: dim != 8")
    return _xstates(_reduce(t.matrix, *kept).matrix)
