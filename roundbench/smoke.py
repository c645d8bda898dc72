"""Quick check of the benchmark's own code path; exits 1 on the first failure.

    python3 roundbench/smoke.py

Plays every workload for a few rounds, plain and traced, and requires
clean output checks and equal wall_ms-masked CSVs from both plays. Then
plays the local-100 config at 1 and at 2 workers and requires equal
masked CSVs: results must not depend on the worker count.
"""
from __future__ import annotations

import dataclasses
import sys

from harness import WORKLOADS, episode_seed, run_episode, workload_config
from tracing import Tracer

ROUNDS = 3
SEED = 7


def main() -> int:
    failures = []
    for name, spec in WORKLOADS.items():
        cfg = dataclasses.replace(workload_config(name), rounds=ROUNDS)
        plain = run_episode(cfg, episode_seed(SEED, 0), spec.fuses)
        tracer = Tracer()
        with tracer.installed():
            traced = run_episode(cfg, episode_seed(SEED, 0), spec.fuses, tracer)
        failures += [f"{name}: {problem}" for problem in plain.problems + traced.problems]
        if plain.digest != traced.digest:
            failures.append(f"{name}: traced and untraced masked CSVs differ")
        if not any(span.name == "round" for span in tracer.spans):
            failures.append(f"{name}: the traced play recorded no round span")
        print(f"{name}: {ROUNDS} rounds, {len(tracer.spans)} spans, digest {plain.digest[:16]}", flush=True)

    by_workers = {}
    for workers in (1, 2):
        cfg = dataclasses.replace(workload_config("local-100"), rounds=ROUNDS, workers=workers)
        by_workers[workers] = run_episode(cfg, episode_seed(SEED, 0), fuses=False).digest
    if by_workers[1] != by_workers[2]:
        failures.append("local-100: masked CSVs differ between 1 and 2 workers")
    print(f"local-100 at 1 and 2 workers: {by_workers[1][:16]} {by_workers[2][:16]}", flush=True)

    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    print("smoke: FAIL" if failures else "smoke: PASS")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
