"""Pinned output bytes of the three fusion flags, each fusing 2-4 teachers every round.

test_multi_teacher_bytes.py pins the default fusion path on the `fusion-20`
benchmark configuration at seed 3002. These runs use the same
configuration with one flag set: `distill.literal_minimax` (the flipped
generator objective), `distill.reinit_generator` (a fresh generator every
round, so the state keeps none) and `accumulate_histograms` (label
histograms summed over the rounds a client joined). Each digest covers the
wall_ms-masked CSV and the committed model state. They were recorded
before the generator objective and the noise distances were rewritten.
"""
from __future__ import annotations

import hashlib

import pytest

from disue.config import config_from_dict
from disue.metrics import strip_wall_ms, write_round_csv
from disue.orchestrator import Simulation

CONFIG = {"variant": "disue", "clients": 20, "act": 0.5, "epsilon": 0.05, "rounds": 4, "seeds": [3002]}

# flag -> (config entries, cluster count per round, CSV sha256, state sha256)
PINNED = {
    "literal_minimax": (
        {"distill": {"literal_minimax": True}},
        [4, 4, 3, 2],
        "7cb02542b1bf3551eb6ac26a04cbc39a73e33150856b3cbd33140aa8cb2fd94f",
        "d861599a1fe5bba71d3855899d378f1e2929592b39863fc26f299206986d6af9",
    ),
    "reinit_generator": (
        {"distill": {"reinit_generator": True}},
        [4, 2, 2, 3],
        "78a0a6e0f13d623e8a35c3d125148c23b1228c48e7d1ef1163738668167ad590",
        "14a444046fc0ca448daaef5d6475caa3bb74473ad6c85234a058d241913418cd",
    ),
    "accumulate_histograms": (
        {"accumulate_histograms": True},
        [4, 2, 3, 4],
        "edde1566fcc3a8dbd1deca4202c4ece35700a08c362cd981c425c17bf5c9d172",
        "401a79cff65d5567c43e1b750012a40d9cdedb95de68723574a09c78e7e5669b",
    ),
}


@pytest.mark.parametrize("flag", PINNED)
def test_fusion_flag_run_matches_the_pinned_bytes(flag, tmp_path):
    entries, cluster_counts, csv_sha256, state_sha256 = PINNED[flag]
    sim = Simulation(config_from_dict({**CONFIG, **entries}), seed=3002)
    rows = sim.run()
    assert [row.cluster_count for row in rows] == cluster_counts
    path = tmp_path / "disue_seed3002.csv"
    write_round_csv(path, rows)
    assert hashlib.sha256(strip_wall_ms(path.read_text(encoding="utf-8")).encode()).hexdigest() == csv_sha256
    # the CSV rounds its floats; the committed models carry every bit
    state = sim.state.global_params.tobytes()
    if sim.state.generator_params is not None:
        state += sim.state.generator_params.tobytes()
    assert hashlib.sha256(state).hexdigest() == state_sha256
