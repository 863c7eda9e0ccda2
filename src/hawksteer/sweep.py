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
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .hawking import (
    PAIRS,
    BipartitionReport,
    HawkingParams,
    amplitudes,
    amplitudes_at,
    closed_form_report_from_amplitudes,
    require_positive,
)

MEASURES = ("entropy", "ent", "both")
# Per-pair fields: the s_* belong to the "entropy" measure, the t_* to "ent";
# concurrence is written under either.
PAIR_FIELDS = ("s_ab", "s_ba", "s_delta", "t_ab", "t_ba", "t_delta", "concurrence")
_DESELECTED_PREFIX = {"entropy": "t_", "ent": "s_"}
_INF = float("inf")


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
        require_positive("omega", self.omega)
        require_positive("t_max", self.t_max)
        if not np.isfinite(self.t_max / self.omega):  # the t_over_omega column
            raise ValueError(f"t_max / omega must be finite, got {self.t_max} / {self.omega}")
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
        # Near the float max either grid overflows on its last point, then sets it to t_max.
        with np.errstate(over="ignore"):
            if self.grid == "linear":
                return np.linspace(self.t_min, self.t_max, self.steps)
            return np.geomspace(self.t_min, self.t_max, self.steps)


def columns(cfg: SweepConfig) -> list[str]:
    cols = ["t_over_omega", "c_sq", "s_sq"]
    for pair in cfg.ordered_pairs:
        cols += [f"{pair}_{f}" for f in PAIR_FIELDS]
    return cols


def _pair_values(rep: BipartitionReport) -> tuple[float, ...]:
    """The report's values in PAIR_FIELDS order."""
    e, t = rep.entropy, rep.ent
    return (e.s_ab, e.s_ba, e.delta, t.t_ab, t.t_ba, t.delta, rep.concurrence)


def run_sweep(cfg: SweepConfig) -> list[dict[str, float | None]]:
    """Evaluate every grid point, in grid order."""
    cols, pairs = columns(cfg), cfg.ordered_pairs
    skip = _DESELECTED_PREFIX.get(cfg.measures)
    kept = [skip is None or not f.startswith(skip) for f in PAIR_FIELDS]

    def record(t: float) -> dict[str, float | None]:
        a = amplitudes_at(math.inf) if t == 0.0 else amplitudes(HawkingParams(t, cfg.omega))
        values = [t / cfg.omega, a.c_amp ** 2, a.s_amp ** 2]
        for pair in pairs:
            vals = _pair_values(closed_form_report_from_amplitudes(a, pair))
            values += [v if k else None for v, k in zip(vals, kept)]
        return dict(zip(cols, values))

    return [record(t) for t in cfg.temperatures()]


def _json_cell(v) -> str:
    """One cell as json.dumps writes it: a float by float.__repr__, a
    non-finite one as NaN, Infinity or -Infinity, None as null, and
    anything else (a string) by json.dumps itself."""
    if isinstance(v, float):
        if v != v:
            return "NaN"
        if v == _INF:
            return "Infinity"
        if v == -_INF:
            return "-Infinity"
        return float.__repr__(v)
    return "null" if v is None else json.dumps(v)


def _json_table(rows: list[dict]) -> str:
    """json.dumps(rows, indent=2) + "\n" for a list of flat dicts.

    json.dumps takes its pure-Python encoder whenever indent is set, and
    that encoder joins about one chunk string per token: ~6x the text's
    size at its peak.  Here each row is one string and the rows are joined
    once, with the brackets folded into the first and last row.
    """
    if not rows:
        return "[]\n"
    prefix = {k: f"    {json.dumps(k)}: " for k in dict.fromkeys(chain.from_iterable(rows))}
    texts = ["  {\n" + ",\n".join([prefix[k] + _json_cell(v) for k, v in row.items()])
             + "\n  }" if row else "  {}" for row in rows]
    texts[0] = "[\n" + texts[0]
    texts[-1] += "\n]\n"
    return ",\n".join(texts)


def render_table(rows: list[dict], cols: list[str], fmt: str, missing: str = "") -> str:
    """Rows as CSV over `cols` (fmt "csv"), or as a JSON list of the rows as given.

    A CSV cell is a string as it is, `missing` for None, and otherwise
    repr(float(v)), the shortest decimal that reads back bit for bit.  The
    JSON text is byte for byte json.dumps(rows, indent=2) plus a newline.
    """
    if fmt == "json":
        return _json_table(rows)
    lines = [",".join(cols)]
    for row in rows:
        lines.append(",".join([
            missing if (v := row[c]) is None else v if type(v) is str else repr(float(v))
            for c in cols]))
    return "\n".join(lines) + "\n"


def to_csv(cfg: SweepConfig, records: list[dict[str, float | None]]) -> str:
    return render_table(records, columns(cfg), "csv")


def to_json(cfg: SweepConfig, records: list[dict[str, float | None]]) -> str:
    return render_table(records, columns(cfg), "json")
