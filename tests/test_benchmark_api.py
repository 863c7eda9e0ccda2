"""The benchmark's workloads call only names the package still has.

`perfbench/workloads.py` drives hawksteer through its module attributes.
A name deleted from the package would only show as a failed benchmark
run; this reads the workloads' syntax tree and fails here instead.
"""

import ast
import importlib
from pathlib import Path

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
