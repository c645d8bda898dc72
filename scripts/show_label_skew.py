"""Print per-client label histograms under different skew levels.

A quick way to see what the Dirichlet concentration does before paying for
a training run: small epsilon pushes every client toward one or two
classes, large epsilon approaches a uniform split. Instant to run.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from disue.data import dirichlet_partition, label_counts, make_synthetic_dataset


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--clients", type=int, default=10)
    ap.add_argument("--classes", type=int, default=4)
    ap.add_argument("--epsilons", default="0.05,0.5,100", help="comma separated")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    dataset = make_synthetic_dataset(args.classes, 250, 2, seed=args.seed)
    for raw in args.epsilons.split(","):
        epsilon = float(raw)
        clients = dirichlet_partition(dataset, args.clients, epsilon, seed=args.seed)
        print(f"\nepsilon = {epsilon:g}")
        for cid, shard in enumerate(clients):
            counts = label_counts(shard.labels, args.classes)
            bars = " ".join(f"{c:4d}" for c in counts)
            dominant = counts.max() / counts.sum()
            print(f"  client {cid:2d}  [{bars}]  top-class share {dominant:.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
