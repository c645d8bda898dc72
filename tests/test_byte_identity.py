"""Pinned output bytes: the wall_ms-masked metrics CSV of every variant.

The digests were recorded before the fusion hot path was reworked, so a
speed-up that moves a single bit fails here. A change that alters the
floating-point order on purpose re-records them and says so.
"""
from __future__ import annotations

import hashlib

import pytest

from disue.config import VARIANTS, config_from_dict
from disue.metrics import strip_wall_ms, write_round_csv
from disue.orchestrator import Simulation
from test_acceptance import A4_CONFIG

# sha256 of strip_wall_ms(<variant>_seed<seed>.csv) for the A4 config. Seed 0
# falls back to one cluster every round; seed 1 fuses two teachers in round 2.
PINNED = {
    ("disue", 0): "0119e1adae890597e555a3744621a2e09f433f6b25797cdc820248d7a63c3108",
    ("disue", 1): "abc7aa8212500291405b4f88480716f9b9b29b257992389b7d92994c36cc2a28",
    ("fedavg", 0): "831e3b674fa77367456394f20bd929a7ee09cd4251c893ea3d484058303d2de3",
    ("fedavg", 1): "943b61883db3d353471a1238a58cdf8c6280acc1b7face1de74c07d34fba9030",
    ("cfl_only", 0): "8904eaee25c0cb9d7d08c29d673f39a1a64ba18b91b22bdb8301228cd1d3405c",
    ("cfl_only", 1): "50407401f1c6d9812f0765f02774bd683f62d09182ebd65e8a589c1cd9dfa728",
    ("disue_minus_iga", 0): "831e3b674fa77367456394f20bd929a7ee09cd4251c893ea3d484058303d2de3",
    ("disue_minus_iga", 1): "08378caec3745635f84d1fb1ae46edf4bdb6f84bb3517e0f008048c6d6c9ade6",
    ("disue_minus_gls", 0): "c5be4713f23e27fa5d877ed475366e57013032ffbd44da0ed35c9881ccc1db11",
    ("disue_minus_gls", 1): "070fef953c3362a77396212db4f4ef06350157a13edf304b6a9c9250f0ff1028",
    ("disue_minus_gwf", 0): "0119e1adae890597e555a3744621a2e09f433f6b25797cdc820248d7a63c3108",
    ("disue_minus_gwf", 1): "93dc09a7d233782711353e09545f0675af626f63d495bc279e7b62dc7ae3563c",
    ("disue_minus_lcf", 0): "290350d3e29abc013e107d9e981716ba6092db9afc2d71313cc629fb021a193d",
    ("disue_minus_lcf", 1): "4535c514ecc174a37d77885ac529bf77a284583626102a98993400c6ee62f0b6",
    ("disue_minus_ldiv", 0): "a2d1968d2da14f8677229a0811b9ba69044e892f39268b7bde3e85dca962a6b5",
    ("disue_minus_ldiv", 1): "74721505462f9756765a1863ce26ea6c8cb924f10440844ceb7dc7f2d2eb23cb",
}


def test_every_variant_and_seed_is_pinned():
    assert set(PINNED) == {(variant, seed) for variant in VARIANTS for seed in A4_CONFIG["seeds"]}


@pytest.mark.parametrize("variant", VARIANTS)
def test_masked_csv_matches_the_pinned_digest(variant, tmp_path):
    cfg = config_from_dict({**A4_CONFIG, "variant": variant})
    for seed in cfg.seeds:
        path = tmp_path / f"{variant}_seed{seed}.csv"
        write_round_csv(path, Simulation(cfg, seed).run())
        digest = hashlib.sha256(strip_wall_ms(path.read_text(encoding="utf-8")).encode()).hexdigest()
        assert digest == PINNED[(variant, seed)], f"{variant} seed {seed}"
