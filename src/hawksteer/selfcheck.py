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
from .qstate import TwoQubitXState, embed_dense, bloch_coefficients

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


def grid_temperatures(n: int = 200) -> np.ndarray:
    """Logarithmic temperature grid, in units of omega."""
    return np.geomspace(1e-2, 1e4, n)


def reduced_state_population(n_grid: int = 200) -> list[TwoQubitXState]:
    """The three reduced-state families sampled on the temperature grid."""
    states = []
    for t in grid_temperatures(n_grid):
        a = amplitudes(HawkingParams(t, 1.0))
        states.extend(reduced_xstate(a, pair) for pair in PAIRS)
    return states


def _verdict(name: str, label: str, diffs, tol: float) -> tuple[str, bool, str]:
    """(name, ok, detail) for the largest |diff|; a NaN among them is the worst and fails."""
    worst = float(np.max(np.abs(diffs), initial=0.0))
    return name, worst <= tol, f"{label} {worst:.3e}"


def check_concurrence_oracle(n_random: int = 1000) -> tuple[str, bool, str]:
    diffs = [steering_ent.concurrence_xstate(s)
             - steering_ent.concurrence_oracle(embed_dense(s))
             for s in random_xstates(n_random) + reduced_state_population()]
    return _verdict("concurrence closed form vs spin-flip oracle",
                    "max discrepancy", diffs, ORACLE_TOL)


def check_entropy_oracle(n_random: int = 1000) -> tuple[str, bool, str]:
    diffs = []
    for s in random_xstates(n_random) + reduced_state_population():
        d = embed_dense(s)
        b = bloch_coefficients(s)
        for direction in (steering_entropy.A_TO_B, steering_entropy.B_TO_A):
            closed = steering_entropy.entropy_sum_closed_form(b, direction)
            diffs.append(closed - steering_entropy.entropy_sum_from_oracle(d, direction))
    return _verdict("entropy sum closed form vs measurement-statistics oracle",
                    "max discrepancy", diffs, ORACLE_TOL)


def _grid_params(n_grid: int) -> list[HawkingParams]:
    return [HawkingParams(t, 1.0) for t in grid_temperatures(n_grid)]


def _values(rep) -> np.ndarray:
    """A column report's ENTROPY_FIELDS, ENT_FIELDS and concurrence, one row each."""
    return np.array([getattr(rep.entropy, f) for f in ENTROPY_FIELDS]
                    + [getattr(rep.ent, f) for f in ENT_FIELDS] + [rep.concurrence])


def check_pipeline_equivalence(n_grid: int = 200) -> tuple[str, bool, str]:
    params = _grid_params(n_grid)
    reports, cols = pipeline_columns(params), amplitudes_grid(params)
    diffs = [_values(closed_form_report_from_amplitudes(cols, pair)) - _values(reports[pair])
             for pair in PAIRS]
    return _verdict("matrix pipeline vs closed-form reports",
                    "max discrepancy", diffs, PIPELINE_TOL)


def check_monogamy(n_grid: int = 200) -> tuple[str, bool, str]:
    residuals = [r for res in monogamy_grid(_grid_params(n_grid)) for r in res.applicable]
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
