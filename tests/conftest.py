"""Suite-wide Hypothesis settings.

Every property draws the same examples on every run (seeded from a hash of
the test), so a tier-1 result can be reproduced.  `derandomize` implies no
example database; each test keeps its own `max_examples`.
"""

import dataclasses

import pytest
from hypothesis import settings

from hawksteer.qstate import TwoQubitXState
from hawksteer.sweep import SweepConfig, run_sweep

settings.register_profile("reproducible", derandomize=True)
settings.load_profile("reproducible")


def swapped(s: TwoQubitXState) -> TwoQubitXState:
    """s with its two qubits exchanged (|01> <-> |10>)."""
    return TwoQubitXState(s.p11, s.p33, s.p22, s.p44, s.c14, s.c23)


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
