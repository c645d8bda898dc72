"""Pinned output bytes of a run that clusters 300 clients every round.

The A4 pins cluster 3 clients and the `fusion-20` pins 10, so neither
reaches affinity propagation or the masking at the size where their cost
shows. This run is the `cluster-300` benchmark configuration (every one of
300 clients active, one local epoch, no fusion) at seed 7000 for 3
rounds; AP finds K = 14, 15, 15. The digests were recorded before the
round's mask was shared across uploads and AP swept into preallocated
buffers.
"""
from __future__ import annotations

import hashlib

from disue.config import config_from_dict
from disue.metrics import strip_wall_ms, write_round_csv
from disue.orchestrator import Simulation

CONFIG = {
    "variant": "disue_minus_iga",
    "clients": 300,
    "act": 1.0,
    "local_epochs": 1,
    "epsilon": 0.05,
    "dataset": {"samples_per_class": 2500},
    "rounds": 3,
    "seeds": [7000],
}
CLUSTER_COUNTS = [14, 15, 15]
CSV_SHA256 = "451002458589edce0daafa50ef8804451b5b8d972ea4230d83969ffc8fc8ed2f"
STATE_SHA256 = "84c14165cfd3c1334b6c43197ee7e54ae448b0c960f45c66ec17dc794951bd6e"


def test_large_clustered_run_matches_the_pinned_bytes(tmp_path):
    sim = Simulation(config_from_dict(CONFIG), seed=7000)
    rows = sim.run()
    assert [row.cluster_count for row in rows] == CLUSTER_COUNTS
    path = tmp_path / "disue_minus_iga_seed7000.csv"
    write_round_csv(path, rows)
    assert hashlib.sha256(strip_wall_ms(path.read_text(encoding="utf-8")).encode()).hexdigest() == CSV_SHA256
    # the CSV rounds its floats; the committed model carries every bit
    assert hashlib.sha256(sim.state.global_params.tobytes()).hexdigest() == STATE_SHA256
