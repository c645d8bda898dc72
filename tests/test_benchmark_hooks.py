"""The benchmark's tracer wraps simulator functions by name; each must still exist."""
from __future__ import annotations

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from disue.data import Dataset
from disue.nn import Classifier
from disue.orchestrator import local_train

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


def _result_info() -> dict:
    """The RESULT_INFO table of roundbench/tracing.py; the module imports only the standard library."""
    spec = importlib.util.spec_from_file_location("roundbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module.RESULT_INFO


def test_the_tracer_reads_whether_a_local_training_group_diverged():
    describe = _result_info()["local_train"]
    rng = np.random.default_rng(0)
    template = Classifier(2, 4, hidden=(8, 8))
    rows = np.stack([Classifier(2, 4, hidden=(8, 8), rng=rng).param_vector() for _ in range(3)])

    def run(poisoned: bool):
        shards = [Dataset(rng.normal(size=(5, 2)), rng.integers(0, 4, size=5), 4) for _ in range(3)]
        if poisoned:
            shards[1].features[0, 0] = np.nan
        args = (shards, rows, template, 2, 0.1, 2, 0.0, [np.random.default_rng(c) for c in range(3)])
        return describe(args, local_train(*args))["diverged"]

    assert run(poisoned=False) is False
    assert run(poisoned=True) is True
