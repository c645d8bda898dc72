"""Measure A3's noise floor: each variant's margin behind `disue` over 10 seed triples.

Acceptance gate A3 (tests/test_acceptance.py) runs the seven-variant
family at one config over seeds 0-2 and bounds how far each single-module
ablation may beat `disue`. This script runs the same family at the same
config over seeds 0-29, read as 10 disjoint triples (0-2, 3-5, ...), and
writes A3_MARGINS.json: for each variant, the margin per triple (the mean
final accuracy of `disue` minus the variant's, over the triple's seeds,
as A3 computes it), with the mean and the sample std (ddof 1) over the
triples. A change to the floating-point order or to the partitions reports
its margins against its parent's, paired over the same triples.

    python3 scripts/a3_margins.py            # about 15 minutes on 2 vCPUs
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from disue.config import SimConfig, config_to_dict
from disue.metrics import final_accuracy
from disue.orchestrator import run_experiment
from test_acceptance import A3_BASE, A3_FAMILY

TRIPLES = [[3 * t, 3 * t + 1, 3 * t + 2] for t in range(10)]


def margins(base: SimConfig, triples: list[list[int]]) -> dict:
    """Final accuracy per (variant, seed), and each variant's margin behind `disue` per triple."""
    seeds = [seed for triple in triples for seed in triple]
    acc = {}
    for variant in A3_FAMILY:
        result = run_experiment(replace(base, variant=variant, seeds=seeds))
        acc[variant] = {seed: final_accuracy(rows) for seed, rows in result.rows_by_seed.items()}
        print(f"{variant}: done", file=sys.stderr)
    mean = {variant: [float(np.mean([acc[variant][s] for s in triple])) for triple in triples] for variant in A3_FAMILY}
    out = {}
    for variant in A3_FAMILY[1:]:
        per_triple = [d - v for d, v in zip(mean["disue"], mean[variant])]
        out[variant] = {"margins": per_triple, "mean": float(np.mean(per_triple)), "std": float(np.std(per_triple, ddof=1))}
    return {
        "config": {key: value for key, value in config_to_dict(base).items() if key not in ("variant", "seeds")},
        "numpy": np.__version__,
        "triples": triples,
        "final_acc": {variant: {str(s): a for s, a in acc[variant].items()} for variant in A3_FAMILY},
        "margins": out,
    }


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    report = margins(A3_BASE, TRIPLES)
    (ROOT / "A3_MARGINS.json").write_text(json.dumps(report, indent=2) + "\n")
    for variant, m in report["margins"].items():
        print(f"{variant:18s} mean {m['mean']:+.4f}  std {m['std']:.4f}  " + " ".join(f"{x:+.4f}" for x in m["margins"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
