"""Temperature sweeps and their CSV/JSON serialization.

Column layout: `t_over_omega,c_sq,s_sq` followed, for each selected
pair in the canonical order AB, ABbar, BBbar, by
`P_s_ab,P_s_ba,P_s_delta,P_t_ab,P_t_ba,P_t_delta,P_concurrence`.
Cells for a deselected measure are emitted empty, never as 0.  Floats
are written as their shortest round-trip decimal so regenerated files
are byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .hawking import (
    FROZEN,
    PAIRS,
    HawkingParams,
    amplitudes,
    closed_form_report_from_amplitudes,
)

MEASURES = ("entropy", "ent", "both")
_MEASURE_FIELDS = {
    "entropy": ("s_ab", "s_ba", "s_delta"),
    "ent": ("t_ab", "t_ba", "t_delta"),
}


@dataclass(frozen=True)
class SweepConfig:
    omega: float
    t_min: float
    t_max: float
    steps: int
    grid: str = "linear"
    pairs: tuple[str, ...] = PAIRS
    measures: str = "both"

    def __post_init__(self):
        if not (self.omega > 0.0):
            raise ValueError(f"omega must be > 0, got {self.omega}")
        if not (self.t_min < self.t_max):
            raise ValueError(f"need t_min < t_max, got {self.t_min} >= {self.t_max}")
        if self.steps < 2:
            raise ValueError(f"steps must be >= 2, got {self.steps}")
        if self.grid not in ("linear", "log"):
            raise ValueError(f"grid must be linear or log, got {self.grid!r}")
        if self.t_min < 0.0:
            raise ValueError(f"t_min must be >= 0, got {self.t_min}")
        if self.t_min == 0.0 and self.grid != "linear":
            raise ValueError("t_min = 0 requires a linear grid")
        unknown = [p for p in self.pairs if p not in PAIRS]
        if unknown or not self.pairs:
            raise ValueError(f"pairs must be drawn from {PAIRS}, got {self.pairs}")
        if self.measures not in MEASURES:
            raise ValueError(f"measures must be one of {MEASURES}, got {self.measures!r}")

    @property
    def ordered_pairs(self) -> tuple[str, ...]:
        return tuple(p for p in PAIRS if p in self.pairs)

    def temperatures(self) -> np.ndarray:
        if self.grid == "linear":
            return np.linspace(self.t_min, self.t_max, self.steps)
        return np.geomspace(self.t_min, self.t_max, self.steps)


def columns(cfg: SweepConfig) -> list[str]:
    cols = ["t_over_omega", "c_sq", "s_sq"]
    for pair in cfg.ordered_pairs:
        cols += [f"{pair}_{f}" for f in
                 ("s_ab", "s_ba", "s_delta", "t_ab", "t_ba", "t_delta", "concurrence")]
    return cols


def _record(cfg: SweepConfig, t: float) -> dict[str, float | None]:
    a = FROZEN if t == 0.0 else amplitudes(HawkingParams(t, cfg.omega))
    rec: dict[str, float | None] = {
        "t_over_omega": t / cfg.omega,
        "c_sq": a.c_amp ** 2,
        "s_sq": a.s_amp ** 2,
    }
    wanted = []
    if cfg.measures in ("entropy", "both"):
        wanted += _MEASURE_FIELDS["entropy"]
    if cfg.measures in ("ent", "both"):
        wanted += _MEASURE_FIELDS["ent"]
    for pair in cfg.ordered_pairs:
        rep = closed_form_report_from_amplitudes(a, pair)
        values = {
            "s_ab": rep.entropy.s_ab, "s_ba": rep.entropy.s_ba,
            "s_delta": rep.entropy.delta,
            "t_ab": rep.ent.t_ab, "t_ba": rep.ent.t_ba, "t_delta": rep.ent.delta,
        }
        for f in ("s_ab", "s_ba", "s_delta", "t_ab", "t_ba", "t_delta"):
            rec[f"{pair}_{f}"] = values[f] if f in wanted else None
        rec[f"{pair}_concurrence"] = rep.concurrence
    return rec


def run_sweep(cfg: SweepConfig) -> list[dict[str, float | None]]:
    """Evaluate every grid point, in grid order."""
    return [_record(cfg, t) for t in cfg.temperatures()]


def _fmt(v: float | None) -> str:
    return "" if v is None else repr(float(v))


def to_csv(cfg: SweepConfig, records: list[dict[str, float | None]]) -> str:
    cols = columns(cfg)
    lines = [",".join(cols)]
    for rec in records:
        lines.append(",".join(_fmt(rec[c]) for c in cols))
    return "\n".join(lines) + "\n"


def to_json(cfg: SweepConfig, records: list[dict[str, float | None]]) -> str:
    cols = columns(cfg)
    out = [{c: rec[c] for c in cols} for rec in records]
    return json.dumps(out, indent=2) + "\n"
