"""Per-round metrics, CSV emission and run summaries.

All floats are written with repr(), the shortest round-trip form, so a
re-run with the same seeds reproduces the files byte for byte. The one
exception is wall_ms, which is measured time and therefore the only field
excluded from byte-identity comparisons.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import InvalidInputError

CSV_HEADER = "round,K,global_acc,cluster_acc_mean,loss_local,loss_cd,loss_cf,loss_div,wall_ms"

SUMMARY_WINDOW = 10  # final rounds averaged into the headline accuracy


@dataclass
class RoundMetrics:
    """Everything the simulator reports about one round."""

    round_index: int
    cluster_count: int
    global_acc: float
    cluster_accs: list[float] = field(default_factory=list)
    loss_local: float = float("nan")
    loss_cd: float = float("nan")
    loss_cf: float = float("nan")
    loss_div: float = float("nan")
    wall_ms: float = 0.0

    @property
    def cluster_acc_mean(self) -> float:
        defined = [a for a in self.cluster_accs if not math.isnan(a)]
        return float(np.mean(defined)) if defined else float("nan")

    def csv_row(self) -> str:
        cells = [
            str(self.round_index),
            str(self.cluster_count),
            repr(float(self.global_acc)),
            repr(float(self.cluster_acc_mean)),
            repr(float(self.loss_local)),
            repr(float(self.loss_cd)),
            repr(float(self.loss_cf)),
            repr(float(self.loss_div)),
            repr(float(self.wall_ms)),
        ]
        return ",".join(cells)


def write_round_csv(path, rows: list[RoundMetrics]) -> None:
    lines = [CSV_HEADER] + [row.csv_row() for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def final_accuracy(rows: list[RoundMetrics]) -> float:
    """Mean global accuracy over the last SUMMARY_WINDOW rounds (fewer if the run is short)."""
    if not rows:
        raise InvalidInputError("no rounds to summarize")
    tail = rows[-SUMMARY_WINDOW:]
    return float(np.mean([r.global_acc for r in tail]))


def summarize(per_variant: dict[str, dict[int, list[RoundMetrics]]]) -> dict:
    """Mean and std over seeds of the final-window accuracy, per variant."""
    summary: dict = {"window": SUMMARY_WINDOW, "variants": {}}
    for variant, by_seed in per_variant.items():
        finals = {str(seed): final_accuracy(rows) for seed, rows in sorted(by_seed.items())}
        values = np.array(list(finals.values()))
        summary["variants"][variant] = {
            "per_seed_final_acc": finals,
            "final_acc_mean": float(values.mean()),
            "final_acc_std": float(values.std()),
            "rounds": len(next(iter(by_seed.values()))),
            "seeds": sorted(by_seed),
        }
    return summary


def write_summary(path, summary: dict) -> None:
    Path(path).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")


def write_plot_data(path, per_variant: dict[str, dict[int, list[RoundMetrics]]]) -> None:
    """Long-format series for external plotting: round,series,value."""
    lines = ["round,series,value"]
    for variant in sorted(per_variant):
        for seed in sorted(per_variant[variant]):
            for row in per_variant[variant][seed]:
                lines.append(f"{row.round_index},{variant}/seed{seed}/global_acc,{float(row.global_acc)!r}")
                lines.append(f"{row.round_index},{variant}/seed{seed}/K,{row.cluster_count}")
    Path(path).write_text("\n".join(lines) + "\n")


def strip_wall_ms(csv_text: str) -> str:
    """The byte-comparison form of a metrics CSV: wall_ms column blanked."""
    lines = csv_text.splitlines()
    out = [lines[0]] if lines else []
    for line in lines[1:]:
        cells = line.split(",")
        cells[-1] = "-"
        out.append(",".join(cells))
    return "\n".join(out) + "\n"
