"""The benchmark's tracer wraps simulator functions by name; each must still exist."""
from __future__ import annotations

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "roundbench" / "tracing.py"


def _wrapped() -> dict[str, tuple[str, ...]]:
    """The WRAPPED table of roundbench/tracing.py, read without running the module."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "WRAPPED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("roundbench/tracing.py defines no WRAPPED table")


def test_every_traced_name_exists_in_its_module():
    wrapped = _wrapped()
    assert "disue.distill" in wrapped
    missing = [
        f"{module}.{name}"
        for module, names in wrapped.items()
        for name in names
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []
