"""Config plumbing, metrics files, and the command line front end."""
from __future__ import annotations

import argparse
import ast
import dataclasses
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import disue
from disue import cli, orchestrator
from disue.cli import main
from disue.config import (
    DatasetConfig,
    SimConfig,
    config_from_dict,
    config_to_dict,
    emit_config,
    parse_config,
    validate_config,
)
from disue.data import make_synthetic_dataset, split_dataset
from disue.distill import DistillConfig
from disue.errors import ConfigError, InvalidInputError
from disue.metrics import RoundMetrics, final_accuracy, strip_wall_ms, write_round_csv
from disue.orchestrator import build_federated_data, run_experiment

ROOT = Path(__file__).resolve().parents[1]

TINY = {
    "rounds": 2,
    "clients": 4,
    "act": 1.0,
    "local_epochs": 1,
    "batch_size": 16,
    "epsilon": 0.5,
    "hidden_dim": 16,
    "dataset": {"samples_per_class": 20},
    "distill": {
        "noise_dim": 8,
        "pseudo_batch": 8,
        "inner_iters": 1,
        "gen_steps": 1,
        "student_steps": 1,
        "gen_hidden_dim": 16,
        "label_embed_dim": 4,
    },
}


def write_tiny(tmp_path, extra=None):
    payload = dict(TINY)
    if extra:
        payload.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


# ---------------------------------------------------------------------------
# config


def test_default_config_is_valid():
    validate_config(SimConfig())


def test_config_dict_round_trip():
    cfg = SimConfig(rounds=7, epsilon=0.25, seeds=[3, 4], dataset=DatasetConfig(num_classes=5), distill=DistillConfig(beta_cf=0.5))
    assert config_from_dict(config_to_dict(cfg)) == cfg


def test_emit_parse_round_trip(tmp_path):
    cfg = SimConfig(rounds=9, variant="cfl_only", distill=DistillConfig(noise_dim=17))
    path = tmp_path / "cfg.json"
    emit_config(cfg, path)
    assert parse_config(str(path)) == cfg


def test_empty_config_file_means_defaults(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("")
    assert parse_config(str(path)) == SimConfig()


def test_unknown_keys_are_named_in_the_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"distill": {"bogus_knob": 1}}))
    with pytest.raises(ConfigError, match="distill.bogus_knob"):
        parse_config(str(path))
    path.write_text(json.dumps({"roundz": 5}))
    with pytest.raises(ConfigError, match="roundz"):
        parse_config(str(path))


def _config_file(tmp_path, text):
    path = tmp_path / "config.json"
    path.write_text(text)
    return path


@pytest.mark.parametrize(
    "load, message",
    [
        (lambda tmp: config_from_dict({"dataset": 3}), "config key 'dataset' must be an object"),
        (lambda tmp: config_from_dict([1]), "config document must be a JSON object"),
        (lambda tmp: parse_config(_config_file(tmp, '{"rounds": ')), "is not valid JSON"),
        (lambda tmp: parse_config(_config_file(tmp, "[1]")), "config document must be a JSON object"),
    ],
    ids=["nested key not an object", "document not an object", "file not JSON", "file not an object"],
)
def test_a_malformed_config_document_fails_naming_what_is_wrong(load, message, tmp_path):
    with pytest.raises(ConfigError, match=message):
        load(tmp_path)


def test_a_seed_listed_twice_fails_naming_seeds(tmp_path, capsys):
    with pytest.raises(ConfigError, match="config key 'seeds' must not list a seed twice"):
        config_from_dict({"seeds": [3, 3]})
    out = tmp_path / "out"
    code = main(["run", "--variant", "fedavg", "--config", write_tiny(tmp_path), "--seed", "3", "--seed", "3", "--out-dir", str(out)])
    assert code == 2
    assert "config key 'seeds'" in capsys.readouterr().err
    assert not out.exists()  # refused before any run


def test_a_negative_seed_flag_exits_2_before_the_out_dir(tmp_path, capsys):
    # numpy refuses a negative seed, so a run would fail only once it starts
    out = tmp_path / "out"
    assert main(["run", "--seed", "-1", "--rounds", "1", "--clients", "4", "--out-dir", str(out)]) == 2
    assert "config key 'seeds' must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_overrides_beat_the_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"rounds": 5, "epsilon": 0.3}))
    cfg = parse_config(str(path), {"rounds": 7, "clients": None})
    assert cfg.rounds == 7  # override wins
    assert cfg.epsilon == 0.3  # file survives where not overridden
    assert cfg.clients == SimConfig().clients  # None overrides are ignored


def test_validation_names_the_offending_key():
    with pytest.raises(ConfigError, match="act"):
        validate_config(SimConfig(act=0.0))
    with pytest.raises(ConfigError, match="epsilon"):
        validate_config(SimConfig(epsilon=-1.0))
    with pytest.raises(ConfigError, match="variant"):
        validate_config(SimConfig(variant="sota"))
    with pytest.raises(ConfigError, match="seeds"):
        validate_config(SimConfig(seeds=[]))
    with pytest.raises(ConfigError, match="failure_policy"):
        validate_config(SimConfig(failure_policy="retry"))
    with pytest.raises(ConfigError, match="config key 'seeds' must be >= 0"):
        validate_config(SimConfig(seeds=[-1]))
    with pytest.raises(ConfigError, match="config key 'secure_seed' must be >= 0"):
        validate_config(SimConfig(secure_seed=-5))


# a value just outside each numeric field's declared range, and the key it belongs to
OUT_OF_RANGE = [
    ("rounds", 0),
    ("clients", 1),
    ("act", 0.0),
    ("act", 1.5),
    ("local_epochs", 0),
    ("batch_size", 0),
    ("local_lr", -1e-3),
    ("weight_decay", -1e-3),
    ("epsilon", 0.0),
    ("hidden_dim", 0),
    ("workers", 0),
    ("secure_seed", -1),
    ("dataset.num_classes", 1),
    ("dataset.samples_per_class", 0),
    ("dataset.feature_dim", 1),
    ("dataset.class_std", 0.0),
    ("dataset.radius", 0.0),
    ("dataset.test_fraction", -1e-3),
    ("dataset.test_fraction", 1.0),
    ("dataset.holdout_fraction", -1e-3),
    ("dataset.holdout_fraction", 1.0),
    ("distill.beta_cf", -1e-3),
    ("distill.beta_div", -1e-3),
    ("distill.noise_dim", 0),
    ("distill.pseudo_batch", 0),
    ("distill.inner_iters", 0),
    ("distill.gen_steps", 0),
    ("distill.student_steps", 0),
    ("distill.gen_lr", 0.0),
    ("distill.student_lr", 0.0),
    ("distill.label_embed_dim", 0),
    ("distill.gen_hidden_dim", 0),
]
BLOCKS = {"": SimConfig, "dataset.": DatasetConfig, "distill.": DistillConfig}


@pytest.mark.parametrize("key, value", OUT_OF_RANGE)
def test_a_value_just_out_of_range_fails_naming_its_key(key, value):
    block, _, name = key.rpartition(".")
    cls = BLOCKS[f"{block}." if block else ""]
    message = f"config key '{re.escape(key)}' must be"
    with pytest.raises(ConfigError, match=message):
        cls(**{name: value})  # a nested block is checked when built alone
    with pytest.raises(ConfigError, match=message):
        dataclasses.replace(cls(), **{name: value})
    with pytest.raises(ConfigError, match=message):
        config_from_dict({block: {name: value}} if block else {name: value})


def test_every_numeric_field_declares_a_range_that_the_table_drives():
    numeric = {
        prefix + f.name: f
        for prefix, cls in BLOCKS.items()
        for f in dataclasses.fields(cls)
        if f.type.removesuffix(" | None") in ("int", "float")
    }
    assert [key for key, f in numeric.items() if "range" not in f.metadata] == []
    assert {key for key, _ in OUT_OF_RANGE} == set(numeric)


# a value of the wrong JSON type, and the key its error must name
WRONG_TYPES = [
    ({"rounds": "5"}, "rounds"),
    ({"seeds": 5}, "seeds"),
    ({"seeds": [0, True]}, "seeds"),
    ({"workers": True}, "workers"),
    ({"act": True}, "act"),
    ({"failure_policy": 1}, "failure_policy"),
    ({"accumulate_histograms": 1}, "accumulate_histograms"),
    ({"secure_seed": 1.5}, "secure_seed"),
    ({"dataset": {"num_classes": 2.5}}, "dataset.num_classes"),
    ({"distill": {"noise_dim": "8"}}, "distill.noise_dim"),
    ({"distill": {"reinit_generator": "yes"}}, "distill.reinit_generator"),
    ({"rounds": 2.5}, "rounds"),
    ({"hidden_dim": 16.0}, "hidden_dim"),
    ({"local_epochs": True}, "local_epochs"),
    ({"distill": {"inner_iters": 1.5}}, "distill.inner_iters"),
]


def _python_kwargs(payload: dict) -> dict:
    """A config payload as keyword arguments, its nested dicts built into their dataclasses."""
    nested = {"dataset": DatasetConfig, "distill": DistillConfig}
    return {key: nested[key](**value) if key in nested else value for key, value in payload.items()}


@pytest.mark.parametrize("payload, key", WRONG_TYPES)
def test_a_wrong_type_fails_at_parse_time_naming_its_key(payload, key):
    with pytest.raises(ConfigError, match=f"config key '{key}' must be"):
        config_from_dict(payload)


@pytest.mark.parametrize("payload, key", WRONG_TYPES)
def test_a_wrong_type_fails_at_construction_naming_its_key(payload, key):
    with pytest.raises(ConfigError, match=f"config key '{key}' must be"):
        SimConfig(**_python_kwargs(payload))
    with pytest.raises(ConfigError, match=f"config key '{key}' must be"):
        dataclasses.replace(SimConfig(), **_python_kwargs(payload))


def test_a_numpy_scalar_fails_at_construction_naming_its_key():
    with pytest.raises(ConfigError, match="config key 'rounds' must be int"):
        SimConfig(rounds=np.int64(5))


def test_a_config_and_its_nested_parts_are_frozen():
    cfg = SimConfig()
    for part, name in ((cfg, "rounds"), (cfg.dataset, "num_classes"), (cfg.distill, "inner_iters")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(part, name, 3)


def test_a_checked_config_cannot_gain_a_seed():
    cfg = SimConfig(seeds=[3, 4])  # a list is taken, and kept as a tuple
    with pytest.raises(AttributeError):
        cfg.seeds.append(-1)
    assert cfg.seeds == (3, 4)


@pytest.mark.parametrize("payload, key", WRONG_TYPES)
def test_a_wrong_type_in_the_config_file_exits_2(payload, key, tmp_path, capsys):
    code = main(["run", "--config", write_tiny(tmp_path, payload), "--out-dir", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"'{key}'" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_types_are_checked_not_converted(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"act": 1, "secure_seed": None, "distill": {"beta_cf": 0}}))
    cfg = parse_config(str(path))
    assert type(cfg.act) is int and type(cfg.distill.beta_cf) is int  # a float field takes an int as written
    emit_config(cfg, tmp_path / "echo.json")
    echoed = (tmp_path / "echo.json").read_text()
    assert '"act": 1,' in echoed and '"beta_cf": 0,' in echoed


def test_overrides_are_top_level_keys():
    with pytest.raises(ConfigError, match="unknown config key 'distill.beta_cf'"):
        parse_config(None, {"distill.beta_cf": 0.25})


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "payload, key",
    [
        (lambda v: {"local_lr": v}, "local_lr"),
        (lambda v: {"weight_decay": v}, "weight_decay"),
        (lambda v: {"dataset": {"samples_per_class": 20, "class_std": v}}, "dataset.class_std"),
        (lambda v: {"distill": {**TINY["distill"], "beta_div": v}}, "distill.beta_div"),
    ],
)
def test_a_non_finite_float_in_the_config_file_exits_2(raw, payload, key, tmp_path, capsys):
    # json reads NaN, Infinity and -Infinity, so such a file parses
    code = main(["run", "--config", write_tiny(tmp_path, payload(float(raw))), "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert f"config key '{key}' must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "-nan"])
def test_a_non_finite_flag_exits_2(raw, tmp_path, capsys):
    # both as --epsilon=-inf and as a separate token, which begins with "-"
    for flag in ([f"--epsilon={raw}"], ["--epsilon", raw]):
        code = main(["run", "--config", write_tiny(tmp_path), *flag, "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert "config key 'epsilon' must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("raw", ["-1e-3", "-.5", "-2", "-1E3"])
def test_a_negative_flag_value_in_its_own_token_names_its_key(raw, tmp_path, capsys):
    code = main(["run", "--config", write_tiny(tmp_path), "--epsilon", raw, "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert "config key 'epsilon' must be > 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
def test_a_non_finite_sweep_value_exits_2(raw, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["sweep", "--param", "beta_cf", "--values", f"0.5,{raw}", "--config", write_tiny(tmp_path), "--out-dir", str(out)])
    assert code == 2
    assert "config key 'distill.beta_cf' must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("samples_per_class, fraction", [(250, 0.0), (250, 0.001), (20, 0.025)])
def test_an_empty_global_test_split_fails_at_parse_time(samples_per_class, fraction):
    payload = {"dataset": {"samples_per_class": samples_per_class, "test_fraction": fraction}}
    with pytest.raises(ConfigError, match="config key 'dataset.test_fraction' must hold out"):
        config_from_dict(payload)


def test_one_held_out_sample_per_class_is_enough():
    # 4 classes of 19 training samples are enough for 20 clients
    cfg = config_from_dict({"clients": 20, "dataset": {"samples_per_class": 20, "test_fraction": 0.03}})
    assert cfg.dataset.test_fraction == 0.03


def test_more_clients_than_training_samples_exit_2_before_the_out_dir(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--clients", "5000", "--out-dir", str(out)]) == 2
    assert "config key 'clients' must be at most 800" in capsys.readouterr().err  # 4 classes of 250, 50 held out each
    assert not out.exists()


def test_every_training_sample_can_go_to_its_own_client():
    dataset = {"samples_per_class": 20}  # 4 classes of 16 training samples
    with pytest.raises(ConfigError, match="config key 'clients' must be at most 64"):
        config_from_dict({"clients": 65, "dataset": dataset})
    data = build_federated_data(config_from_dict({"clients": 64, "dataset": dataset}), seed=0)
    assert [shard.train.n + shard.holdout.n for shard in data.clients] == [1] * 64


@settings(max_examples=25, deadline=None)
@given(num_classes=st.integers(2, 5), samples_per_class=st.integers(1, 30), test_fraction=st.floats(0.0, 0.95))
def test_the_config_bounds_clients_by_the_data_layers_training_pool(num_classes, samples_per_class, test_fraction):
    dataset = {"num_classes": num_classes, "samples_per_class": samples_per_class, "test_fraction": test_fraction}
    train_pool, test = split_dataset(make_synthetic_dataset(num_classes, samples_per_class, 2, seed=0), test_fraction, seed=0)
    pool = train_pool.n
    if test.n == 0:
        with pytest.raises(ConfigError, match="config key 'dataset.test_fraction' must hold out"):
            config_from_dict({"clients": 2, "dataset": dataset})
    assume(test.n > 0 and pool >= 2)
    data = build_federated_data(config_from_dict({"clients": pool, "dataset": dataset}), seed=0)
    assert min(shard.train.n for shard in data.clients) >= 1
    assert sum(shard.train.n + shard.holdout.n for shard in data.clients) == pool
    with pytest.raises(ConfigError, match=f"config key 'clients' must be at most {pool},"):
        config_from_dict({"clients": pool + 1, "dataset": dataset})


def _readme_pairs(text: str, pattern: str) -> dict:
    """The `key value` pairs a README passage lists, each value read as JSON; a key listed twice fails."""
    pairs = re.findall(pattern, text)
    assert len({key for key, _ in pairs}) == len(pairs), pairs
    return {key: json.loads(value) for key, value in pairs}


def test_the_readme_lists_every_default():
    readme = (ROOT / "README.md").read_text()
    defaults = json.loads(json.dumps(config_to_dict(SimConfig())))
    top = readme.split("keys and defaults:\n\n```\n", 1)[1].split("```", 1)[0]
    listed = _readme_pairs(top, r"(\w+) (\S+)")
    for block in ("dataset", "distill"):
        sentence = readme.split(f"`{block}` block:", 1)[1].split("\n\n", 1)[0]
        listed[block] = _readme_pairs(sentence, r"`(\w+) ([^`]+)`")
    for cli_only in ("emit_plot_data", "out_dir"):  # the README documents these under the CLI
        del defaults[cli_only]
    assert listed == defaults


def test_the_package_imports_only_the_standard_library_and_numpy():
    for path in sorted(Path(disue.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # a relative import stays inside the package
            for name in names:
                top = name.partition(".")[0]
                assert top in sys.stdlib_module_names or top == "numpy", f"{path.name} imports {name}"


def test_pyproject_needs_numpy_alone_and_its_script_is_the_cli():
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert [re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in project["dependencies"]] == ["numpy"]
    module, _, attr = project["scripts"]["disue"].partition(":")
    assert getattr(importlib.import_module(module), attr) is main


# ---------------------------------------------------------------------------
# metrics files


def _read_csv(path) -> list[dict[str, float]]:
    """The rows of a metrics CSV, each cell read with float and keyed by its column."""
    header, *lines = path.read_text().splitlines()
    return [dict(zip(header.split(","), map(float, line.split(",")))) for line in lines]


def _rows(n=12, seed=0):
    rng = np.random.default_rng(seed)
    rows = []
    for r in range(n):
        rows.append(
            RoundMetrics(
                round_index=r,
                cluster_count=int(rng.integers(1, 4)),
                global_acc=float(rng.uniform(0, 1)),
                cluster_accs=[float(rng.uniform(0, 1)) for _ in range(2)],
                loss_local=float(rng.uniform(0, 2)),
                loss_cd=float(rng.uniform(0, 1)),
                loss_cf=float(rng.uniform(0, 2)),
                loss_div=float(rng.uniform(0, 1)),
                wall_ms=float(rng.uniform(1, 50)),
            )
        )
    return rows


def test_round_csv_round_trips_exactly(tmp_path):
    rows = _rows()
    path = tmp_path / "rows.csv"
    write_round_csv(path, rows)
    back = _read_csv(path)
    assert len(back) == len(rows)
    for row, rec in zip(rows, back):
        assert rec["round"] == row.round_index
        assert rec["K"] == row.cluster_count
        assert rec["global_acc"] == row.global_acc  # repr round trip is exact
        assert rec["loss_cd"] == row.loss_cd
        assert rec["wall_ms"] == row.wall_ms


def test_final_accuracy_windows():
    rows = _rows(12)
    want = float(np.mean([r.global_acc for r in rows[-10:]]))
    assert abs(final_accuracy(rows) - want) < 1e-15
    short = rows[:3]
    assert abs(final_accuracy(short) - np.mean([r.global_acc for r in short])) < 1e-15
    with pytest.raises(InvalidInputError):
        final_accuracy([])


def test_strip_wall_ms_blanks_only_the_last_column(tmp_path):
    rows = _rows(3)
    path = tmp_path / "rows.csv"
    write_round_csv(path, rows)
    text = path.read_text()
    stripped = strip_wall_ms(text)
    for line in stripped.strip().splitlines()[1:]:
        assert line.endswith(",-")
    # all other columns survive byte for byte
    for orig, masked in zip(text.strip().splitlines(), stripped.strip().splitlines()):
        assert orig.rsplit(",", 1)[0] == masked.rsplit(",", 1)[0]


# ---------------------------------------------------------------------------
# command line


def test_run_writes_the_documented_files(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", "--variant", "fedavg", "--config", write_tiny(tmp_path), "--out-dir", str(out), "--seed", "0", "--seed", "1"])
    assert code == 0
    assert (out / "config.json").exists()
    assert (out / "fedavg_seed0.csv").exists()
    assert (out / "fedavg_seed1.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert "fedavg" in summary["variants"]
    assert len(summary["variants"]["fedavg"]["per_seed_final_acc"]) == 2
    assert str(out) in capsys.readouterr().out


def test_summary_matches_the_csv(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--variant", "fedavg", "--config", write_tiny(tmp_path), "--out-dir", str(out)]) == 0
    recs = _read_csv(out / "fedavg_seed0.csv")
    window = json.loads((out / "summary.json").read_text())["window"]
    accs = [r["global_acc"] for r in recs][-window:]
    want = float(np.mean(accs))
    got = json.loads((out / "summary.json").read_text())["variants"]["fedavg"]["per_seed_final_acc"]["0"]
    assert abs(got - want) < 1e-12


def test_compare_deduplicates_variants(tmp_path):
    out = tmp_path / "out"
    code = main(["compare", "fedavg", "cfl_only", "fedavg", "--config", write_tiny(tmp_path), "--out-dir", str(out)])
    assert code == 0
    assert (out / "fedavg_seed0.csv").exists()
    assert (out / "cfl_only_seed0.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert sorted(summary["variants"]) == ["cfl_only", "fedavg"]


def test_ablate_covers_the_family(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["ablate", "--config", write_tiny(tmp_path), "--rounds", "1", "--out-dir", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert sorted(summary["variants"]) == sorted(
        ["disue", "disue_minus_gls", "disue_minus_gwf", "disue_minus_iga", "disue_minus_lcf", "disue_minus_ldiv", "fedavg"]
    )
    # the printed table: a title, a header, then one row per variant, best mean first
    title, header, *table, wrote = capsys.readouterr().out.splitlines()
    assert header.split() == ["run", "seed", "0", "mean", "std"]
    assert sorted(row.split()[0] for row in table) == sorted(summary["variants"])
    means = [float(row.split()[2]) for row in table]
    assert means == sorted(means, reverse=True)
    assert means == [round(summary["variants"][row.split()[0]]["final_acc_mean"], 4) for row in table]


def test_a_skipped_round_is_reported_on_stderr(tmp_path, capsys, monkeypatch):
    real_local_train, calls = orchestrator.local_train, []

    def fail_once(*args):
        calls.append(args)
        if len(calls) == 1:
            raise RuntimeError("injected")
        return real_local_train(*args)

    monkeypatch.setattr(orchestrator, "local_train", fail_once)
    config = write_tiny(tmp_path, {"failure_policy": "skip"})
    assert main(["run", "--variant", "fedavg", "--config", config, "--out-dir", str(tmp_path / "out")]) == 0
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["fedavg seed 0: 1 event (round 1)"]
    assert "event" not in captured.out


@pytest.mark.parametrize("warnings_filter", [None, "error"])
def test_a_diverging_run_writes_only_its_event_line_to_stderr(warnings_filter, tmp_path):
    """Client 1 overflows and is shed: numpy reports nothing, and the filter changes no outcome."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"batch_size": 1, "local_lr": 1e6, "weight_decay": 10.0, "failure_policy": "skip"}))
    argv = ["run", "--config", str(config), "--clients", "2", "--act", "0.3", "--rounds", "1", "--seed", "85", "--out-dir", str(tmp_path / "out")]
    env = {**os.environ, "PYTHONPATH": str(Path(disue.__file__).resolve().parent.parent)}
    env.pop("PYTHONWARNINGS", None)
    if warnings_filter is not None:
        env["PYTHONWARNINGS"] = warnings_filter
    done = subprocess.run([sys.executable, "-m", "disue.cli", *argv], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stderr == "disue seed 85: 1 event (local_train 1)\n"


def test_sweep_labels_each_value(tmp_path):
    out = tmp_path / "out"
    code = main(["sweep", "--param", "beta_cf", "--values", "0.5,1.0", "--config", write_tiny(tmp_path), "--rounds", "1", "--out-dir", str(out)])
    assert code == 0
    assert (out / "beta_cf_0.5_seed0.csv").exists()
    assert (out / "beta_cf_1.0_seed0.csv").exists()


def test_plot_data_flag(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--variant", "fedavg", "--config", write_tiny(tmp_path), "--out-dir", str(out), "--plot-data"]) == 0
    text = (out / "plot_data.csv").read_text()
    assert text.startswith("round,series,value")
    assert "fedavg" in text


def test_bad_config_value_exits_2(tmp_path, capsys):
    code = main(["run", "--config", write_tiny(tmp_path, {"act": 2.0}), "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert "act" in capsys.readouterr().err


def test_unwritable_out_dir_exits_1(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    code = main(["run", "--variant", "fedavg", "--config", write_tiny(tmp_path), "--out-dir", str(blocker / "nested")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_cli_overrides_reach_the_simulation(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--variant", "fedavg", "--config", write_tiny(tmp_path), "--rounds", "1", "--out-dir", str(out)]) == 0
    cfg = json.loads((out / "config.json").read_text())
    assert cfg["rounds"] == 1
    assert len(_read_csv(out / "fedavg_seed0.csv")) == 1


def test_run_takes_the_variant_from_the_config_file(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--config", write_tiny(tmp_path, {"variant": "fedavg"}), "--out-dir", str(out)]) == 0
    assert (out / "fedavg_seed0.csv").exists()
    assert not (out / "disue_seed0.csv").exists()
    assert json.loads((out / "config.json").read_text())["variant"] == "fedavg"


def test_run_variant_flag_beats_the_config_file(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--variant", "cfl_only", "--config", write_tiny(tmp_path, {"variant": "fedavg"}), "--out-dir", str(out)]) == 0
    assert (out / "cfl_only_seed0.csv").exists()
    assert json.loads((out / "config.json").read_text())["variant"] == "cfl_only"


# the dests that set no config key: argparse's own, the file, and the arguments that pick the runs
NON_CONFIG_DESTS = {"help", "config", "command", "variants", "param", "values"}
COMMANDS = [["run"], ["compare", "fedavg"], ["ablate"], ["sweep", "--param", "beta_cf", "--values", "0.5"]]


def test_every_flag_dest_is_a_config_key():
    keys = {f.name for f in dataclasses.fields(SimConfig)}
    parser = cli._build_parser()
    (commands,) = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    for name, sub in [("disue", parser), *commands.choices.items()]:
        for action in sub._actions:
            assert action.dest in keys | NON_CONFIG_DESTS, (name, action.option_strings, action.dest)


@pytest.mark.parametrize("command", COMMANDS, ids=lambda argv: argv[0])
def test_repeated_seeds_and_plot_data_reach_the_config(command, tmp_path):
    args = cli._build_parser().parse_args([*command, "--config", write_tiny(tmp_path), "--seed", "3", "--seed", "4", "--plot-data"])
    echo, plan = cli._plan(args)
    for cfg in [echo, *plan.values()]:
        assert cfg.seeds == (3, 4) and cfg.emit_plot_data is True


@pytest.mark.parametrize("command", COMMANDS, ids=lambda argv: argv[0])
def test_plot_data_in_the_config_file_survives_without_the_flag(command, tmp_path):
    args = cli._build_parser().parse_args([*command, "--config", write_tiny(tmp_path, {"emit_plot_data": True, "seeds": [5]})])
    echo, plan = cli._plan(args)
    for cfg in [echo, *plan.values()]:
        assert cfg.emit_plot_data is True and cfg.seeds == (5,)


@pytest.mark.parametrize("param, values", [("noise_dim", "8,x"), ("beta_cf", "0.5,-1")])
def test_sweep_rejects_a_bad_value_before_any_run(param, values, tmp_path, capsys, monkeypatch):
    started = []
    monkeypatch.setattr(cli, "run_experiment", lambda cfg: started.append(cfg) or run_experiment(cfg))
    out = tmp_path / "out"
    code = main(["sweep", "--param", param, "--values", values, "--config", write_tiny(tmp_path), "--rounds", "1", "--out-dir", str(out)])
    assert code == 2
    assert f"distill.{param}" in capsys.readouterr().err
    assert started == []
    assert not list(tmp_path.rglob("*.csv"))
