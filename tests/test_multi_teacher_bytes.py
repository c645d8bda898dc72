"""Pinned output bytes of a run that fuses several teachers in every round.

The A4 pins in test_byte_identity.py fuse more than one teacher in a single
round only, so they cannot tell in which order the teachers' gradient
contributions reach the synthesized samples. This run, the `fusion-20`
benchmark configuration at seed 3002, fuses K = 4, 2, 3, 4 teachers in its
four rounds. The digests were recorded before the fusion step was rebuilt
from fused tape nodes.
"""
from __future__ import annotations

import hashlib

from disue.config import config_from_dict
from disue.metrics import strip_wall_ms, write_round_csv
from disue.orchestrator import Simulation

CONFIG = {"variant": "disue", "clients": 20, "act": 0.5, "epsilon": 0.05, "rounds": 4, "seeds": [3002]}
CLUSTER_COUNTS = [4, 2, 3, 4]
CSV_SHA256 = "16ba5a897047a386cc33d90faa28cf6fe8e3b84d977eadf91ec69b83a3db75d7"
STATE_SHA256 = "7d8af3ae7e556847024b3e0439dd08bd2c4a7718989428ec09282d4393e080d8"


def test_multi_teacher_run_matches_the_pinned_bytes(tmp_path):
    sim = Simulation(config_from_dict(CONFIG), seed=3002)
    rows = sim.run()
    assert [row.cluster_count for row in rows] == CLUSTER_COUNTS
    path = tmp_path / "disue_seed3002.csv"
    write_round_csv(path, rows)
    assert hashlib.sha256(strip_wall_ms(path.read_text(encoding="utf-8")).encode()).hexdigest() == CSV_SHA256
    # the CSV rounds its floats; the committed models carry every bit
    state = sim.state.global_params.tobytes() + sim.state.generator_params.tobytes()
    assert hashlib.sha256(state).hexdigest() == STATE_SHA256
