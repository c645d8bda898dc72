"""Pinned output bytes of fixed runs, of every variant at the A4 config, and of the CLI.

A change that alters the floating-point order on purpose re-records only
the pins that move, and names each one. A run pin hashes the wall_ms-masked
metrics CSV and, since the CSV rounds its floats, the committed model state:
`global_params`, then `generator_params` when the run keeps one.

The run and A4 bytes hold for one OpenBLAS kernel, so they are kept in one
column per kernel that numpy's bundled OpenBLAS picks: `SkylakeX`, and
`Haswell`, which CI checks by forcing it through `OPENBLAS_CORETYPE`. A
kernel with no column fails each such pin, naming itself. The CLI pins'
tiny runs give the same bytes under every kernel checked, so they keep one.
"""
from __future__ import annotations

import ctypes
import hashlib
import json
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from disue.cli import main
from disue.config import VARIANTS, config_from_dict, config_to_dict
from disue.metrics import strip_wall_ms, write_round_csv
from disue.orchestrator import Simulation, build_federated_data
from test_acceptance import A4_CONFIG
from test_cli import write_tiny

ROOT = Path(__file__).resolve().parent.parent


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _csv_sha256(rows, path) -> str:
    write_round_csv(path, rows)
    return _sha256(strip_wall_ms(path.read_text(encoding="utf-8")).encode())


def _blas_core() -> str:
    """The kernel numpy's bundled OpenBLAS runs: its pick for this CPU, or the one OPENBLAS_CORETYPE forces."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"))
    if not libs:
        return "unknown (no bundled OpenBLAS beside numpy)"
    corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
    corename.restype = ctypes.c_char_p
    return corename().decode()


BLAS_CORE = _blas_core()
# a kernel that reads another's column: Zen gave Haswell's digests, though only
# as a forced kernel, under which this OpenBLAS reports Haswell itself
SAME_BYTES_AS = {"Zen": "Haswell"}


def _on_record(by_kernel: dict):
    """This kernel's column of a pin; a kernel with none fails the pin, naming itself."""
    column = SAME_BYTES_AS.get(BLAS_CORE, BLAS_CORE)
    if column not in by_kernel:
        pytest.fail(f"no pinned bytes for the OpenBLAS kernel {BLAS_CORE}; on record: {', '.join(by_kernel)}")
    return by_kernel[column]


@dataclass(frozen=True)
class RunBytes:
    """What a run pin holds under one kernel."""

    cluster_counts: list
    csv_sha256: str
    state_sha256: str
    feed_sha256: str | None = None  # the per-client models of a cluster_broadcast run


@dataclass(frozen=True)
class Pin:
    config: dict
    seed: int
    by_kernel: dict[str, RunBytes]
    poisoned: int | None = None  # a client whose training features are all nan


FUSION_20 = {"variant": "disue", "clients": 20, "act": 0.5, "epsilon": 0.05, "rounds": 4}

PINS = {
    # `fusion-20`: fuses K = 4, 2, 3, 4 teachers, so the order in which their gradients reach the samples shows
    "multi-teacher": Pin(FUSION_20, 3002, {
        "SkylakeX": RunBytes([4, 2, 3, 4],
            "16ba5a897047a386cc33d90faa28cf6fe8e3b84d977eadf91ec69b83a3db75d7",
            "7d8af3ae7e556847024b3e0439dd08bd2c4a7718989428ec09282d4393e080d8"),
        "Haswell": RunBytes([4, 2, 3, 4],
            "8baf542a041e7ce00139344bb9f632a6ae6cea04176e44ebac4c9b014a7d8a90",
            "fb812724dacd60652edea2d618b3d370f40c5d838c577a091543f0a2639a3b39"),
    }),
    # the same run with the flipped generator objective
    "literal_minimax": Pin({**FUSION_20, "distill": {"literal_minimax": True}}, 3002, {
        "SkylakeX": RunBytes([4, 4, 3, 2],
            "7cb02542b1bf3551eb6ac26a04cbc39a73e33150856b3cbd33140aa8cb2fd94f",
            "d861599a1fe5bba71d3855899d378f1e2929592b39863fc26f299206986d6af9"),
        "Haswell": RunBytes([4, 4, 3, 4],
            "517ffef98140df7aec44d50e8cf3b64207b705ea3a0ced629fb23218547aeae2",
            "6d09da194f1f45b2025d18d68cdb8a16250ab231453add76c1715409775f2bda"),
    }),
    # a fresh generator every round, so the state keeps none
    "reinit_generator": Pin({**FUSION_20, "distill": {"reinit_generator": True}}, 3002, {
        "SkylakeX": RunBytes([4, 2, 2, 3],
            "78a0a6e0f13d623e8a35c3d125148c23b1228c48e7d1ef1163738668167ad590",
            "14a444046fc0ca448daaef5d6475caa3bb74473ad6c85234a058d241913418cd"),
        "Haswell": RunBytes([4, 2, 2, 3],
            "f7b34f1381b3320967987ad82f44c628f2711cd7f9bfb0bdccd3115cb376153a",
            "ae84195d29118cc6b44b9699a9c730c7b8a7616f7edb00043c760308c8660bba"),
    }),
    # label histograms summed over the rounds a client joined
    "accumulate_histograms": Pin({**FUSION_20, "accumulate_histograms": True}, 3002, {
        "SkylakeX": RunBytes([4, 2, 3, 4],
            "edde1566fcc3a8dbd1deca4202c4ece35700a08c362cd981c425c17bf5c9d172",
            "401a79cff65d5567c43e1b750012a40d9cdedb95de68723574a09c78e7e5669b"),
        "Haswell": RunBytes([4, 2, 3, 4],
            "669bede001ead7a06aa8cf2bd19c2004c97acbb091aec5a419350e3d6d367806",
            "ef53f060e2eef0df701a69cd3c8b8a8015ceaba069fe1cda30fdebca844ebc0f"),
    }),
    # `local-100`: every active client trains full batch, and half of them hold one sample
    "local-100": Pin(
        {"variant": "fedavg", "clients": 100, "act": 0.15, "local_epochs": 5, "epsilon": 0.05, "rounds": 5}, 7000, {
        "SkylakeX": RunBytes([1, 1, 1, 1, 1],
            "9c3481fd8a07b2648b706dde7f1529d006bd772ea33dfebd9f6e065aa2d3a192",
            "0a7e5ae107ff5692713d2924d64651b5c9d644a7fa446313e7e6a10d83fb18c8"),
        "Haswell": RunBytes([1, 1, 1, 1, 1],
            "7bad4cdb152c83a80330d90a14b821f230bf8cf441919e6c74d5695110d063cb",
            "5e3bf858071f040cf7e4297e2c41e8e487b468bf3124e231e0bab85b4aa211b2"),
    }),
    # a third of 60 clients take mini-batches, and each starts from the cluster model it last received
    "cfl-minibatch": Pin(
        {"variant": "cfl_only", "clients": 60, "act": 1.0, "local_epochs": 3, "batch_size": 8, "epsilon": 0.05, "rounds": 4},
        7000, {
        "SkylakeX": RunBytes([5, 5, 4, 4],
            "27e7ba95862ad606c74e1f8a066ae28603af0f97370aabf73a9390d11f269ee7",
            "9528567a8761baf300fe4bf422cac5161c143065d197f1cf92acd6e204695754",
            "bcf11143ed4423753c2d977cd6938e477a4aabee8f9810293c57b50fe76a93e2"),
        "Haswell": RunBytes([5, 5, 4, 4],
            "f2726f51acf1ede21592fc554e4cf4b10255cec189fa472e39c7e81a1e68484e",
            "78bc48078b3f45f58b9fbe3fd26bc3fb9d9217c27677849559f9335931738a4a",
            "07cbf7bb4ea6fb677b815fe1c0d4c98ef54605f6035973b2fe2fefc756d413f7"),
    }),
    # `cluster-300`: masking and affinity propagation at the size where their cost shows
    "cluster-300": Pin(
        {"variant": "disue_minus_iga", "clients": 300, "act": 1.0, "local_epochs": 1, "epsilon": 0.05, "dataset": {"samples_per_class": 2500},
         "rounds": 3}, 7000, {
        "SkylakeX": RunBytes([14, 15, 15],
            "451002458589edce0daafa50ef8804451b5b8d972ea4230d83969ffc8fc8ed2f",
            "84c14165cfd3c1334b6c43197ee7e54ae448b0c960f45c66ec17dc794951bd6e"),
        "Haswell": RunBytes([14, 15, 15],
            "451002458589edce0daafa50ef8804451b5b8d972ea4230d83969ffc8fc8ed2f",
            "3dae8b2bbee83b671b51222d080e972a407e3d8b3a1e25351b499f5cd26e76fd"),
    }),
    # client 20 (7 samples, full batch beside mini-batch clients) diverges every round and
    # keeps the broadcast model, which goes on through masking, AP and aggregation
    "divergence": Pin(
        {"variant": "disue_minus_iga", "clients": 40, "act": 1.0, "local_epochs": 2, "batch_size": 16, "epsilon": 0.1, "rounds": 3},
        7100, {
        "SkylakeX": RunBytes([5, 5, 4],
            "ca0385acdbe87274ef0d2a5933cc6c02bf1dfbc8558d9549061d6479f01fc8b8",
            "6784a60426d920243b96e7248ff227a76e574821ced045364476902a5b5cd847"),
        "Haswell": RunBytes([5, 5, 4],
            "ed6713b65720b2c97b0d8cc138ebc9ffce4d4919b950ceff52de7759c8ad3350",
            "f6366dca6da0cf66899ffaff68efe9f9cea2338f0e2b7e061b80e8cfd20f9f2b"),
    }, poisoned=20),
}


def _run(pin: Pin, path) -> tuple[RunBytes, Simulation]:
    """Play a pin's run: the bytes it pins, and the simulation that made them."""
    cfg = config_from_dict({**pin.config, "seeds": [pin.seed]})
    data = build_federated_data(cfg, pin.seed)
    if pin.poisoned is not None:
        data.clients[pin.poisoned].train.features[:] = np.nan
    sim = Simulation(cfg, pin.seed, data=data)
    rows = sim.run()
    state = sim.state.global_params.tobytes()
    if sim.state.generator_params is not None:
        state += sim.state.generator_params.tobytes()
    feed = None
    if sim.spec.cluster_broadcast:
        feed = _sha256(np.stack([sim.state.client_feed[cid] for cid in range(cfg.clients)]).tobytes())
    return RunBytes([row.cluster_count for row in rows], _csv_sha256(rows, path), _sha256(state), feed), sim


@pytest.mark.parametrize("name", PINS)
def test_run_matches_the_pinned_bytes(name, tmp_path):
    pin = PINS[name]
    pinned = _on_record(pin.by_kernel)
    got, sim = _run(pin, tmp_path / "rows.csv")
    assert got == pinned
    if pin.poisoned is not None:
        assert [(ev.round_index, ev.stage, ev.message) for ev in sim.events] == [
            (r, "local_train", f"client {pin.poisoned} diverged; kept broadcast parameters") for r in range(sim.cfg.rounds)
        ]


# each benchmark workload and the pin that runs its configuration
WORKLOAD_PINS = {"fusion-20": "multi-teacher", "local-100": "local-100", "cluster-300": "cluster-300"}


def test_the_pins_run_the_benchmark_configs():
    # a subprocess, because importing the harness sets BLAS env vars and sys.path
    script = (
        "import json, sys; sys.path.insert(0, 'roundbench'); import harness; "
        "print(json.dumps({w: harness.config_to_dict(harness.workload_config(w)) for w in sys.argv[1:]}))"
    )
    done = subprocess.run([sys.executable, "-c", script, *WORKLOAD_PINS], cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    run_only = ("rounds", "seeds", "workers", "failure_policy")
    for workload, bench in json.loads(done.stdout).items():
        pinned = config_to_dict(config_from_dict(PINS[WORKLOAD_PINS[workload]].config))
        for key in run_only:
            del bench[key], pinned[key]
        assert bench == pinned, workload


# sha256 of the masked <variant>_seed<seed>.csv for the A4 config, per kernel. Seed 0
# falls back to one cluster every round; seed 1 fuses two teachers in round 2.
A4_PINS = {
    "SkylakeX": {
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
    },
    "Haswell": {
        ("disue", 0): "81fea39a18a80ecf914ff8c0b7efd9ec3ffb2d1f3f738c0eb6cfbc2eb8ff5eeb",
        ("disue", 1): "05eec82eafecf3e552c4dbc49d8f43d64a268b748f832f7b39fb112b36d207e6",
        ("fedavg", 0): "dae7d4aec3556705e839f1fdb3784653b036bb081e3e5b0dedb488c5c5b8b227",
        ("fedavg", 1): "943b61883db3d353471a1238a58cdf8c6280acc1b7face1de74c07d34fba9030",
        ("cfl_only", 0): "8904eaee25c0cb9d7d08c29d673f39a1a64ba18b91b22bdb8301228cd1d3405c",
        ("cfl_only", 1): "6a241a4b39c17fe8c3203be43ce87d459fb7c967bfe987bea06c0f58c451d635",
        ("disue_minus_iga", 0): "5e26aaacecebc5056a30916eca16c0788bf0a93d037e50abe081d37323801697",
        ("disue_minus_iga", 1): "06965f69abb517b5b410bb2375a7a02d23cfd53608472b427d5081dcab24773b",
        ("disue_minus_gls", 0): "0bedff0a849e5170e624e971a8318eccf5fb527d21a82f563cb23d0e9f42a64d",
        ("disue_minus_gls", 1): "2cb2941ab964a3ddbeae6908d603cbf3c014a7ca768c9201c84652d9075676f9",
        ("disue_minus_gwf", 0): "b68d94ee4274c4316461585e849fd418a54972cdc97391e6c6a7ce349295b2ac",
        ("disue_minus_gwf", 1): "2c7fc43adf51a510578e3bb62c1bcc77532806e0e23c4b891d03d3ff01f5207f",
        ("disue_minus_lcf", 0): "2ee78d3977377fec5ec892f0a7d4a74e9f519ca2c1c89c38e7a036ec79533636",
        ("disue_minus_lcf", 1): "e21f1890c801ded88a5d5c21a5cdf853e42c2b452800939d56b24499beb2c12d",
        ("disue_minus_ldiv", 0): "fbf59b31524385ccadedc9948f5bbd98d92c0cd506cd20a0abe50924a9928db0",
        ("disue_minus_ldiv", 1): "4de04f32efd98c972024439fbeb595de5efd09daa2b21bbc5e95c3975d49017b",
    },
}


def test_every_variant_and_seed_is_pinned():
    for kernel, pinned in A4_PINS.items():
        assert set(pinned) == {(variant, seed) for variant in VARIANTS for seed in A4_CONFIG["seeds"]}, kernel


@pytest.mark.parametrize("variant", VARIANTS)
def test_masked_csv_matches_the_pinned_digest(variant, tmp_path):
    pinned = _on_record(A4_PINS)
    cfg = config_from_dict({**A4_CONFIG, "variant": variant})
    for seed in cfg.seeds:
        assert _csv_sha256(Simulation(cfg, seed).run(), tmp_path / "rows.csv") == pinned[(variant, seed)], f"seed {seed}"


# sha256 of (config.json, summary.json) per command on the tiny CLI config. The
# commands run with a relative --out-dir, because config.json echoes out_dir.
CLI_PINS = {
    ("ablate",):
        ("4498cf6d0b7bacc157f2467bc40ca351fab362d2946534229462d4d6ecde9a72", "fa7bebd7a3fc1688283d454b5c5a68b2c8e21d951daeae9f4c08446a9f517733"),
    ("compare", "fedavg", "cfl_only"):
        ("88c794c9cb6c90ec92b61d0e0e3ec38ad1799ee7be6959b3658ee247a2800be4", "de24650d8490cdd84ea80f4d8d93d9e1ebfdcc65215ae938234361a62002c4e7"),
    ("sweep", "--param", "beta_div", "--values", "0.0,1.0"):
        ("4498cf6d0b7bacc157f2467bc40ca351fab362d2946534229462d4d6ecde9a72", "61d52b5ce87a132dcc7fd595936198a3616e7b052f7fd93b3febd586be7cf1ad"),
}


@pytest.mark.parametrize("command", CLI_PINS, ids=lambda command: command[0])
def test_cli_output_matches_the_pinned_digests(command, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main([*command, "--config", write_tiny(tmp_path), "--out-dir", "out"]) == 0
    got = tuple(_sha256((tmp_path / "out" / name).read_bytes()) for name in ("config.json", "summary.json"))
    assert got == CLI_PINS[command]
