"""Ablation table over the variants that end a round with one global model.

Runs plain averaging, clustering-plus-averaging, the full method, and the
four single-module ablations on the reference benchmark, then prints
final accuracies sorted by mean. The slowest script here: the family is
seven variants wide. Use --rounds 15 for a quick look.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from disue.cli import main as cli_main


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", default="runs/ablation")
    ap.add_argument("--rounds", type=int, default=50)
    ap.add_argument("--seeds", default="0,1,2", help="comma separated")
    args = ap.parse_args()

    argv = ["ablate",
            "--clients", "20", "--act", "0.5", "--epsilon", "0.05",
            "--rounds", str(args.rounds), "--out-dir", args.out_dir]
    for seed in args.seeds.split(","):
        argv += ["--seed", seed.strip()]
    code = cli_main(argv)
    if code != 0:
        return code

    summary = json.loads((Path(args.out_dir) / "summary.json").read_text())
    entries = sorted(summary["variants"].items(), key=lambda kv: -kv[1]["final_acc_mean"])
    width = max(len(name) for name, _ in entries)
    print(f"\nfinal accuracy, mean of last {summary['window']} rounds, {len(entries)} variants:")
    for name, entry in entries:
        marker = "  <- full method" if name == "disue" else ""
        print(f"  {name.ljust(width)}  {entry['final_acc_mean']:.4f} +/- {entry['final_acc_std']:.4f}{marker}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
