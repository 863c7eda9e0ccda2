"""The benchmark's workloads call only names and read only fields the package still has.

`perfbench/workloads.py` drives hawksteer through its module attributes
and reads the fields of its reports. A name deleted from the package, or
a field dropped from a report, would only show as a failed benchmark
run; these tests fail here instead.  So would a sweep that changes the
number of kernel calls the traced runs count.
"""

import ast
import importlib
from pathlib import Path

import pytest

from hawksteer import hawking, sweep
from hawksteer.selfcheck import ENT_FIELDS, ENTROPY_FIELDS
from hawksteer.sweep import SweepConfig

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
MODULES = ("cli", "hawking", "qstate", "selfcheck", "steering_ent", "steering_entropy")


def used_names(source: str) -> set[tuple[str, str]]:
    """(module, name) for each `<module>.<name>` and `from hawksteer.<module> import <name>`."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in MODULES:
            used.add((node.value.id, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module \
                and node.module.startswith("hawksteer."):
            module = node.module.removeprefix("hawksteer.")
            used.update((module, alias.name) for alias in node.names)
    return used


def test_workloads_use_only_existing_names():
    used = used_names(WORKLOADS.read_text(encoding="utf-8"))
    # A parse that finds nothing would pass vacuously.
    assert {("hawking", "pipeline_report"), ("selfcheck", "PIPELINE_TOL")} <= used
    missing = sorted(f"{module}.{name}" for module, name in used
                     if not hasattr(importlib.import_module(f"hawksteer.{module}"), name))
    assert not missing, f"perfbench/workloads.py uses deleted names: {missing}"


@pytest.mark.parametrize("report", [hawking.closed_form_report, hawking.pipeline_report])
def test_reports_have_the_fields_workloads_read(report):
    # The sweep row check reads entropy.s_ab/s_ba/delta, ent.t_ab/t_ba/delta and
    # concurrence; verify's pipeline_op compares ENTROPY_FIELDS, ENT_FIELDS,
    # concurrence and names the pair.
    for t in (0.1, 1.0, 100.0):
        for pair in hawking.PAIRS:
            rep = report(hawking.HawkingParams(t, 1.0), pair)
            assert rep.pair == pair
            values = [rep.concurrence]
            values += [getattr(rep.entropy, f) for f in {*ENTROPY_FIELDS, "s_ab", "s_ba", "delta"}]
            values += [getattr(rep.ent, f) for f in ENT_FIELDS]
            assert all(isinstance(v, float) for v in values), (t, pair, values)


@pytest.mark.parametrize("cfg", [
    SweepConfig(omega=1.0, t_min=0.0, t_max=10.0, steps=37),
    SweepConfig(omega=0.7, t_min=1e-3, t_max=1e4, steps=50, grid="log"),
    SweepConfig(omega=2.0, t_min=0.5, t_max=3.0, steps=20, pairs=("BBbar",), measures="ent"),
    SweepConfig(omega=1.0, t_min=1e-300, t_max=1e300, steps=25, grid="log",
                pairs=("AB", "BBbar"), measures="entropy"),
])
def test_run_sweep_makes_one_kernel_call_per_row_and_pair(monkeypatch, cfg):
    """The traced figures runs check that `hawking.closed_form` counts steps x pairs
    calls, so a sweep that changes its number of kernel calls fails only there.

    Delete this test together with that check, when the benchmark counts
    evaluated row x pair elements instead of calls (ROADMAP, benchmark revision).
    """
    calls = []
    kernel = sweep.closed_form_report_from_amplitudes

    def counted(a, pair):
        calls.append(pair)
        return kernel(a, pair)

    monkeypatch.setattr(sweep, "closed_form_report_from_amplitudes", counted)
    sweep.run_sweep(cfg)
    assert len(calls) == cfg.steps * len(cfg.pairs)
