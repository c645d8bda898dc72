"""Pinned output bytes of the CLI: config.json and summary.json.

The digests were recorded before the subcommands were routed through one
planned-runs path, so a change to which config a command echoes, or to
which runs end up in the summary, fails here. The commands run on the
tiny CLI config from inside the test directory with a relative --out-dir,
because the echoed config records out_dir.
"""
from __future__ import annotations

import hashlib

import pytest

from disue.cli import main
from test_cli import write_tiny

# sha256 of (config.json, summary.json) per command
PINNED = {
    "ablate": (
        "4498cf6d0b7bacc157f2467bc40ca351fab362d2946534229462d4d6ecde9a72",
        "fa7bebd7a3fc1688283d454b5c5a68b2c8e21d951daeae9f4c08446a9f517733",
    ),
    "compare": (
        "88c794c9cb6c90ec92b61d0e0e3ec38ad1799ee7be6959b3658ee247a2800be4",
        "de24650d8490cdd84ea80f4d8d93d9e1ebfdcc65215ae938234361a62002c4e7",
    ),
    "sweep": (
        "4498cf6d0b7bacc157f2467bc40ca351fab362d2946534229462d4d6ecde9a72",
        "61d52b5ce87a132dcc7fd595936198a3616e7b052f7fd93b3febd586be7cf1ad",
    ),
}

COMMANDS = {
    "compare": ["compare", "fedavg", "cfl_only"],
    "ablate": ["ablate"],
    "sweep": ["sweep", "--param", "beta_div", "--values", "0.0,1.0"],
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_cli_output_matches_the_pinned_digests(command, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(COMMANDS[command] + ["--config", write_tiny(tmp_path), "--out-dir", "out"]) == 0
    got = (_sha256(tmp_path / "out" / "config.json"), _sha256(tmp_path / "out" / "summary.json"))
    assert got == PINNED[command], command
