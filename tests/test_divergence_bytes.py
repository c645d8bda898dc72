"""Pinned output bytes of a clustered run in which one client diverges every round.

The run is `disue_minus_iga` over 40 clients, all active, 2 local epochs
at batch size 16, at seed 7100 for 3 rounds. Its federation is injected:
the generated one, with every training feature of client 20 set to
`nan`. Client 20 holds 7 samples, so it trains full batch beside full-batch
clients of 1 to 16 samples and mini-batch clients of 18 to 64. It diverges
in every round, keeps the broadcast model, and that model goes on through
masking, affinity propagation (K = 5, 5, 4) and aggregation. The digests
were recorded before a round's full-batch clients of different sizes
trained as one stack.
"""
from __future__ import annotations

import hashlib

import numpy as np

from disue.config import config_from_dict
from disue.metrics import strip_wall_ms, write_round_csv
from disue.orchestrator import Simulation, build_federated_data

CONFIG = {
    "variant": "disue_minus_iga",
    "clients": 40,
    "act": 1.0,
    "local_epochs": 2,
    "batch_size": 16,
    "epsilon": 0.1,
    "rounds": 3,
    "seeds": [7100],
}
POISONED = 20
CLUSTER_COUNTS = [5, 5, 4]
CSV_SHA256 = "ca0385acdbe87274ef0d2a5933cc6c02bf1dfbc8558d9549061d6479f01fc8b8"
STATE_SHA256 = "6784a60426d920243b96e7248ff227a76e574821ced045364476902a5b5cd847"


def test_a_run_with_a_diverging_client_matches_the_pinned_bytes(tmp_path):
    cfg = config_from_dict(CONFIG)
    data = build_federated_data(cfg, seed=7100)
    data.clients[POISONED].train.features[:] = np.nan
    sim = Simulation(cfg, seed=7100, data=data)
    rows = sim.run()
    assert [row.cluster_count for row in rows] == CLUSTER_COUNTS
    assert [(ev.round_index, ev.stage, ev.message) for ev in sim.events] == [
        (r, "local_train", f"client {POISONED} diverged; kept broadcast parameters") for r in range(3)
    ]
    path = tmp_path / "disue_minus_iga_seed7100.csv"
    write_round_csv(path, rows)
    assert hashlib.sha256(strip_wall_ms(path.read_text(encoding="utf-8")).encode()).hexdigest() == CSV_SHA256
    assert hashlib.sha256(sim.state.global_params.tobytes()).hexdigest() == STATE_SHA256
