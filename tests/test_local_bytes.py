"""Pinned output bytes of two runs whose time goes to local training.

`local-100` is the benchmark configuration of that name (`fedavg`, 100
clients, act 0.15, 5 local epochs) at seed 7000 for 5 rounds: every
active client trains full batch, and half of them hold a single sample.

The `cfl_only` run trains all 60 clients for 3 epochs at batch size 8, so
a third of them take mini-batches, several clients share each mini-batch
shard size, and each client starts from the cluster model it last
received. It also pins those per-client models.

The digests were recorded before a round's clients trained as stacks.
"""
from __future__ import annotations

import hashlib

import numpy as np
import pytest

from disue.config import config_from_dict
from disue.metrics import strip_wall_ms, write_round_csv
from disue.orchestrator import Simulation

# name -> (config, cluster count per round, CSV sha256, global_params sha256)
PINNED = {
    "local-100": (
        {"variant": "fedavg", "clients": 100, "act": 0.15, "local_epochs": 5, "epsilon": 0.05, "rounds": 5},
        [1, 1, 1, 1, 1],
        "9c3481fd8a07b2648b706dde7f1529d006bd772ea33dfebd9f6e065aa2d3a192",
        "0a7e5ae107ff5692713d2924d64651b5c9d644a7fa446313e7e6a10d83fb18c8",
    ),
    "cfl-minibatch": (
        {"variant": "cfl_only", "clients": 60, "act": 1.0, "local_epochs": 3, "batch_size": 8, "epsilon": 0.05, "rounds": 4},
        [5, 5, 4, 4],
        "27e7ba95862ad606c74e1f8a066ae28603af0f97370aabf73a9390d11f269ee7",
        "9528567a8761baf300fe4bf422cac5161c143065d197f1cf92acd6e204695754",
    ),
}
FEED_SHA256 = "bcf11143ed4423753c2d977cd6938e477a4aabee8f9810293c57b50fe76a93e2"


def _run(name: str, tmp_path):
    config, cluster_counts, csv_sha256, state_sha256 = PINNED[name]
    sim = Simulation(config_from_dict({**config, "seeds": [7000]}), seed=7000)
    rows = sim.run()
    assert [row.cluster_count for row in rows] == cluster_counts
    path = tmp_path / f"{name}_seed7000.csv"
    write_round_csv(path, rows)
    assert hashlib.sha256(strip_wall_ms(path.read_text(encoding="utf-8")).encode()).hexdigest() == csv_sha256
    assert hashlib.sha256(sim.state.global_params.tobytes()).hexdigest() == state_sha256
    return sim


@pytest.mark.parametrize("name", PINNED)
def test_local_training_run_matches_the_pinned_bytes(name, tmp_path):
    _run(name, tmp_path)


def test_per_client_models_match_the_pinned_bytes(tmp_path):
    sim = _run("cfl-minibatch", tmp_path)
    feed = np.stack([sim.state.client_feed[cid] for cid in range(sim.cfg.clients)])
    assert hashlib.sha256(feed.tobytes()).hexdigest() == FEED_SHA256
