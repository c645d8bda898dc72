"""The benchmark's smoke check passes against the simulator as it stands.

roundbench/harness.py reads the simulator's types (each client shard's
`client_id` and the size of its holdout), so a change to them can break
the benchmark while every simulator test passes. This runs the smoke
check as a script from the repository root, as its docstring says.
"""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke_check_passes():
    done = subprocess.run(
        [sys.executable, "roundbench/smoke.py"], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "smoke: PASS" in done.stdout.splitlines()
