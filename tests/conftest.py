"""Suite-wide Hypothesis settings.

Every property draws the same examples on every run (seeded from a hash of
the test), so a tier-1 result can be reproduced.  `derandomize` implies no
example database; each test keeps its own `max_examples`.
"""

import dataclasses
import math
import types

import numpy as np
import pytest
from hypothesis import settings

from hawksteer.qstate import (
    HERM_TOL,
    POP_CLAMP,
    PSD_TOL,
    TRACE_TOL,
    InvalidStateError,
    TwoQubitXState,
)
from hawksteer.sweep import SweepConfig, run_sweep

settings.register_profile("reproducible", derandomize=True)
settings.load_profile("reproducible")


def swapped(s: TwoQubitXState) -> TwoQubitXState:
    """s with its two qubits exchanged (|01> <-> |10>)."""
    return TwoQubitXState(s.p11, s.p33, s.p22, s.p44, s.c14, s.c23)


def reference_xstate_fields(p11, p22, p33, p44, c14, c23) -> tuple:
    """The stored fields of TwoQubitXState(p11, ..., c23), by its validator as first
    written (one getattr per test, each message built as its test fails); raises
    that validator's InvalidStateError."""
    self = types.SimpleNamespace(p11=p11, p22=p22, p33=p33, p44=p44, c14=c14, c23=c23)
    for name in ("p11", "p22", "p33", "p44"):
        v = getattr(self, name)
        if -POP_CLAMP <= v < 0.0:
            setattr(self, name, 0.0)
    diags = []
    tr = self.p11 + self.p22 + self.p33 + self.p44
    if not abs(tr - 1.0) <= TRACE_TOL:
        diags.append(f"trace != 1: residual {tr - 1.0:.3e}")
    for name, v in zip(("p11", "p22", "p33", "p44"), (self.p11, self.p22, self.p33, self.p44)):
        if not v >= -POP_CLAMP:
            diags.append(f"negative population {name}: {v:.3e}")
    for c, a, b in (("c14", "p11", "p44"), ("c23", "p22", "p33")):
        v = getattr(self, c)
        lim = math.sqrt(max(getattr(self, a), 0.0) * max(getattr(self, b), 0.0))
        if not abs(v) <= lim + POP_CLAMP:
            diags.append(f"PSD block violated: |{c}| > sqrt({a}*{b}) by {abs(v) - lim:.3e}")
    if diags:
        raise InvalidStateError("; ".join(diags))
    return (self.p11, self.p22, self.p33, self.p44, self.c14, self.c23)


def reference_dense_check(matrix: np.ndarray) -> None:
    """DenseState's checks of a complex (d, d) matrix or (N, d, d) stack of d in (2, 4, 8),
    with the trace tested in two parts (real, then imaginary) as first written; raises
    its InvalidStateError."""
    m = np.asarray(matrix, dtype=complex)
    stacked = m.ndim == 3
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


@pytest.fixture(scope="session")
def linear_sweep_10k():
    """The 10^4-row linear sweep at omega = 1 from T = 0 (the frozen limit) to 10.

    All pairs and both measures, as `hawksteer sweep --t-min 0 --t-max 10
    --steps 10000` computes it.  Returns (config, records); tests must not
    change the records.
    """
    cfg = SweepConfig(omega=1.0, t_min=0.0, t_max=10.0, steps=10_000)
    return cfg, run_sweep(cfg)


@pytest.fixture(scope="session")
def sweeps_10k_by_measures(linear_sweep_10k):
    """`linear_sweep_10k` under each --measures value: maps "both", "ent" and
    "entropy" to (config, records) as run_sweep returns them."""
    cfg, records = linear_sweep_10k
    sweeps = {cfg.measures: (cfg, records)}
    for measures in ("ent", "entropy"):
        other = dataclasses.replace(cfg, measures=measures)
        sweeps[measures] = other, run_sweep(other)
    return sweeps
