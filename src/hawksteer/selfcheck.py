"""Built-in verification suites: every closed form against its oracle.

Each check returns (name, ok, detail).  The CLI `selfcheck` subcommand
runs them all and prints one line per check; the pytest acceptance
suite reuses them at the same tolerances.
"""

from __future__ import annotations

import numpy as np

from . import steering_ent, steering_entropy
from .hawking import (
    PAIRS,
    HawkingParams,
    amplitudes,
    amplitudes_grid,
    closed_form_report_from_amplitudes,
    monogamy_grid,
    pipeline_columns,
    reduced_xstate,
)
from .qstate import TwoQubitXState, XStateColumns, bloch_coefficients, embed_dense

ORACLE_TOL = 1e-10
PIPELINE_TOL = 1e-10
MONOGAMY_TOL = 1e-12

ENTROPY_FIELDS = ("i_ab", "i_ba", "s_ab", "s_ba", "delta")
ENT_FIELDS = ("t_ab", "t_ba", "delta")


def random_xstates(n: int, seed: int = 20240817) -> list[TwoQubitXState]:
    """Deterministic sample of valid X-states covering the full parameter box."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        pops = rng.dirichlet(np.ones(4))
        c14 = rng.uniform(-1.0, 1.0) * np.sqrt(pops[0] * pops[3])
        c23 = rng.uniform(-1.0, 1.0) * np.sqrt(pops[1] * pops[2])
        out.append(TwoQubitXState(*pops.tolist(), c14=float(c14), c23=float(c23)))
    return out


def grid_temperatures() -> np.ndarray:
    """Logarithmic 200-point temperature grid, in units of omega."""
    return np.geomspace(1e-2, 1e4, 200)


def reduced_state_population() -> list[TwoQubitXState]:
    """The three reduced-state families sampled on the temperature grid."""
    states = []
    for t in grid_temperatures():
        a = amplitudes(HawkingParams(t, 1.0))
        states.extend(reduced_xstate(a, pair) for pair in PAIRS)
    return states


def _verdict(name: str, label: str, diffs, tol: float) -> tuple[str, bool, str]:
    """(name, ok, detail) for the largest |diff|; a NaN among them is the worst and fails."""
    worst = float(np.max(np.abs(diffs), initial=0.0))
    return name, worst <= tol, f"{label} {worst:.3e}"


def oracle_states() -> list[TwoQubitXState]:
    """The oracle checks' states: 1000 random_xstates, then reduced_state_population."""
    return random_xstates(1000) + reduced_state_population()


def concurrence_diffs(states: list[TwoQubitXState]) -> np.ndarray:
    """Closed form - spin-flip oracle per state; the closed form as one column."""
    closed = steering_ent.concurrence_xstate(XStateColumns.of(states))
    return closed - [steering_ent.concurrence_oracle(embed_dense(s)) for s in states]


def entropy_diffs(states: list[TwoQubitXState]) -> np.ndarray:
    """Closed form - calibrated oracle per state, A->B row then B->A row.

    The closed forms are one column per direction, the oracle runs per state.
    """
    b = bloch_coefficients(XStateColumns.of(states))
    dense = [embed_dense(s) for s in states]
    return np.array([steering_entropy.entropy_sum_closed_form(b, direction)
                     - [steering_entropy.entropy_sum_from_oracle(d, direction) for d in dense]
                     for direction in (steering_entropy.A_TO_B, steering_entropy.B_TO_A)])


def check_concurrence_oracle() -> tuple[str, bool, str]:
    return _verdict("concurrence closed form vs spin-flip oracle",
                    "max discrepancy", concurrence_diffs(oracle_states()), ORACLE_TOL)


def check_entropy_oracle() -> tuple[str, bool, str]:
    return _verdict("entropy sum closed form vs measurement-statistics oracle",
                    "max discrepancy", entropy_diffs(oracle_states()), ORACLE_TOL)


def _grid_params() -> list[HawkingParams]:
    return [HawkingParams(t, 1.0) for t in grid_temperatures()]


def _values(rep) -> np.ndarray:
    """A column report's ENTROPY_FIELDS, ENT_FIELDS and concurrence, one row each."""
    return np.array([getattr(rep.entropy, f) for f in ENTROPY_FIELDS]
                    + [getattr(rep.ent, f) for f in ENT_FIELDS] + [rep.concurrence])


def check_pipeline_equivalence() -> tuple[str, bool, str]:
    params = _grid_params()
    reports, cols = pipeline_columns(params), amplitudes_grid(params)
    diffs = [_values(closed_form_report_from_amplitudes(cols, pair)) - _values(reports[pair])
             for pair in PAIRS]
    return _verdict("matrix pipeline vs closed-form reports",
                    "max discrepancy", diffs, PIPELINE_TOL)


def check_monogamy() -> tuple[str, bool, str]:
    residuals = [r for res in monogamy_grid(_grid_params()) for r in res.applicable]
    return _verdict("steering/entanglement monogamy residuals",
                    "max residual", residuals, MONOGAMY_TOL)


ALL_CHECKS = (
    check_concurrence_oracle,
    check_entropy_oracle,
    check_pipeline_equivalence,
    check_monogamy,
)


def run_all() -> list[tuple[str, bool, str]]:
    return [check() for check in ALL_CHECKS]
