"""Run configuration: dataclasses, strict JSON parsing, echoing.

A config file is a JSON object mirroring SimConfig. An empty file means
all defaults. Unknown keys are rejected by name; command-line overrides
win over file values. parse_config(emit_config(cfg)) round-trips exactly.
"""
from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import ConfigError

@dataclass(frozen=True)
class VariantSpec:
    """Which steps of the method a variant runs, and how it weakens them."""

    clusters: bool = True  # False averages the actives as one group
    fuses: bool = True  # distill the cluster models into the global model
    cluster_broadcast: bool = False  # members next train from their cluster's model
    uniform_gls: bool = False  # sample fusion labels uniformly
    uniform_gwf: bool = False  # weight every teacher 1/K for every class
    zeroed: tuple[str, ...] = ()  # DistillConfig weights set to 0.0


# the one declaration of every variant; the README's variants table describes it
VARIANT_SPECS: dict[str, VariantSpec] = {
    "disue": VariantSpec(),
    "fedavg": VariantSpec(clusters=False, fuses=False),
    "cfl_only": VariantSpec(fuses=False, cluster_broadcast=True),
    "disue_minus_iga": VariantSpec(fuses=False),
    "disue_minus_gls": VariantSpec(uniform_gls=True),
    "disue_minus_gwf": VariantSpec(uniform_gwf=True),
    "disue_minus_lcf": VariantSpec(zeroed=("beta_cf",)),
    "disue_minus_ldiv": VariantSpec(zeroed=("beta_div",)),
}

VARIANTS = tuple(VARIANT_SPECS)


@dataclass(frozen=True)
class DatasetConfig:
    """Shape of the synthetic task."""

    num_classes: int = 4
    samples_per_class: int = 250
    feature_dim: int = 2
    class_std: float = 0.5
    radius: float = 1.0
    test_fraction: float = 0.2  # stratified IID split held out for the global metric
    holdout_fraction: float = 0.2  # per-client share held out for cluster metrics


@dataclass(frozen=True)
class DistillConfig:
    """Knobs of the fusion stage.

    Defaults are calibrated for the bundled synthetic benchmark: generator
    updates lead the student 5:2 per alternation so synthesized samples
    become class-faithful before they can pull the student toward a
    teacher's opinion in regions that teacher never saw.
    """

    beta_cf: float = 1.0  # weight of the class-fidelity term
    beta_div: float = 1.0  # weight of the diversity term
    noise_dim: int = 100
    pseudo_batch: int = 50  # Q, samples synthesized per inner iteration
    inner_iters: int = 10  # alternations per round
    gen_steps: int = 5  # generator updates per alternation
    student_steps: int = 2  # student updates per alternation
    gen_lr: float = 0.05
    student_lr: float = 0.05
    label_embed_dim: int = 8
    gen_hidden_dim: int = 64
    reinit_generator: bool = False  # fresh generator every round instead of a persistent one
    literal_minimax: bool = False  # use the flipped sign composition for the generator objective


@dataclass(frozen=True)
class SimConfig:
    """Everything one experiment needs besides the seed list it runs over.

    Defaults are the reference regime at desk scale: the round count ships
    at 50 (the reference setting of 500 is a flag away), everything else
    matches the reference values directly. A config is checked when it is
    built, from JSON, in Python or by `dataclasses.replace`, and is frozen.
    """

    rounds: int = 50
    clients: int = 100
    act: float = 0.15  # fraction of clients sampled per round
    local_epochs: int = 5
    batch_size: int = 50
    local_lr: float = 0.1
    weight_decay: float = 1e-3
    epsilon: float = 0.05  # Dirichlet concentration of the label skew
    variant: str = "disue"
    seeds: tuple[int, ...] = (0,)  # a list is accepted, and stored as a tuple
    hidden_dim: int = 64
    workers: int = 1
    failure_policy: str = "halt"  # halt | skip
    secure_seed: int | None = None  # None derives the masking seed from the run seed
    accumulate_histograms: bool = False
    emit_plot_data: bool = False
    out_dir: str | None = None
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    distill: DistillConfig = field(default_factory=DistillConfig)

    def __post_init__(self):
        validate_config(self)
        object.__setattr__(self, "seeds", tuple(self.seeds))


def _require(cond: bool, key: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"config key '{key}' {message}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)  # JSON true is not a count


# the values each annotated field type takes; a float field takes an int too
_ACCEPTS = {
    "int": _is_int,
    "float": lambda v: _is_int(v) or isinstance(v, float),
    "bool": lambda v: isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
    "tuple[int, ...]": lambda v: isinstance(v, (list, tuple)) and all(map(_is_int, v)),
    "DatasetConfig": lambda v: isinstance(v, DatasetConfig),
    "DistillConfig": lambda v: isinstance(v, DistillConfig),
}
_SHOWN = {"tuple[int, ...]": "a list of ints"}  # a type as its error names it, in JSON's terms
# the nested blocks, by their field's type
_NESTED = {"DatasetConfig": DatasetConfig, "DistillConfig": DistillConfig}


def _check_fields(cfg, prefix: str = "") -> None:
    """Every field, nested ones included, holds its annotated type, and every float is finite.

    Nothing is converted, so the echo keeps the bytes it was given.
    """
    for f in fields(cfg):
        value, key = getattr(cfg, f.name), prefix + f.name
        kind = f.type.removesuffix(" | None")
        if value is None and kind != f.type:
            continue  # an optional field left unset
        if not _ACCEPTS[kind](value):  # the message is built on failure alone
            raise ConfigError(f"config key '{key}' must be {_SHOWN.get(f.type, f.type)}, got {json.dumps(value, default=repr)}")
        if dataclasses.is_dataclass(value):
            _check_fields(value, f"{key}.")
        elif kind == "float":
            _require(math.isfinite(value), key, f"must be finite, got {value!r}")


def validate_config(cfg: SimConfig) -> None:
    _check_fields(cfg)
    _require(cfg.rounds >= 1, "rounds", "must be >= 1")
    _require(cfg.clients >= 2, "clients", "must be >= 2")
    _require(0.0 < cfg.act <= 1.0, "act", "must be in (0, 1]")
    _require(cfg.local_epochs >= 1, "local_epochs", "must be >= 1")
    _require(cfg.batch_size >= 1, "batch_size", "must be >= 1")
    _require(cfg.local_lr >= 0.0, "local_lr", "must be >= 0")
    _require(cfg.weight_decay >= 0.0, "weight_decay", "must be >= 0")
    _require(cfg.epsilon > 0.0, "epsilon", "must be > 0")
    _require(cfg.variant in VARIANTS, "variant", f"must be one of {', '.join(VARIANTS)}")
    _require(len(cfg.seeds) >= 1, "seeds", "must list at least one seed")
    _require(min(cfg.seeds) >= 0, "seeds", f"must be >= 0, got {cfg.seeds}")
    _require(len(set(cfg.seeds)) == len(cfg.seeds), "seeds", f"must not list a seed twice, got {cfg.seeds}")
    _require(cfg.hidden_dim >= 1, "hidden_dim", "must be >= 1")
    _require(cfg.workers >= 1, "workers", "must be >= 1")
    _require(cfg.failure_policy in ("halt", "skip"), "failure_policy", "must be 'halt' or 'skip'")
    _require(cfg.secure_seed is None or cfg.secure_seed >= 0, "secure_seed", "must be >= 0")
    ds = cfg.dataset
    _require(ds.num_classes >= 2, "dataset.num_classes", "must be >= 2")
    _require(ds.samples_per_class >= 1, "dataset.samples_per_class", "must be >= 1")
    _require(ds.feature_dim >= 2, "dataset.feature_dim", "must be >= 2")
    _require(ds.class_std > 0, "dataset.class_std", "must be > 0")
    _require(ds.radius > 0, "dataset.radius", "must be > 0")
    _require(0.0 <= ds.test_fraction < 1.0, "dataset.test_fraction", "must be in [0, 1)")
    # the held-out count per class, as split_dataset computes it
    held_out = int(round(ds.test_fraction * ds.samples_per_class))
    _require(held_out >= 1, "dataset.test_fraction", "must hold out at least one sample per class")
    pool = ds.num_classes * (ds.samples_per_class - held_out)
    _require(cfg.clients <= pool, "clients", f"must be at most {pool}, so each client gets one of the {pool} training samples")
    _require(0.0 <= ds.holdout_fraction < 1.0, "dataset.holdout_fraction", "must be in [0, 1)")
    d = cfg.distill
    for key in ("noise_dim", "pseudo_batch", "inner_iters", "gen_steps", "student_steps", "label_embed_dim", "gen_hidden_dim"):
        _require(getattr(d, key) >= 1, f"distill.{key}", "must be >= 1")
    for key in ("beta_cf", "beta_div"):
        _require(getattr(d, key) >= 0, f"distill.{key}", "must be >= 0")
    for key in ("gen_lr", "student_lr"):
        _require(getattr(d, key) > 0, f"distill.{key}", "must be > 0")


def _build(cls, payload: dict, prefix: str = ""):
    types = {f.name: f.type for f in fields(cls)}
    kwargs = dict(payload)
    for key, value in payload.items():
        if key not in types:
            raise ConfigError(f"unknown config key '{prefix}{key}'")
        if types[key] in _NESTED:
            if not isinstance(value, dict):
                raise ConfigError(f"config key '{prefix}{key}' must be an object")
            kwargs[key] = _build(_NESTED[types[key]], value, prefix=f"{key}.")
    return cls(**kwargs)


def config_from_dict(payload: dict) -> SimConfig:
    if not isinstance(payload, dict):
        raise ConfigError("config document must be a JSON object")
    return _build(SimConfig, payload)


def config_to_dict(cfg: SimConfig) -> dict:
    return dataclasses.asdict(cfg)


def parse_config(path=None, overrides: dict | None = None) -> SimConfig:
    """Load a config file (or defaults) and apply the CLI overrides.

    Overrides are top-level keys, e.g. {"rounds": 7}; a None value leaves
    the file's value in place. Nested fields are set in the file.
    """
    payload: dict = {}
    if path is not None:
        text = Path(path).read_text()
        if text.strip():
            try:
                payload = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ConfigError("config document must be a JSON object")
    payload.update({key: value for key, value in (overrides or {}).items() if value is not None})
    return config_from_dict(payload)


def emit_config(cfg: SimConfig, path) -> None:
    """Echo the effective config so a run directory is self-describing."""
    Path(path).write_text(json.dumps(config_to_dict(cfg), indent=2, sort_keys=True) + "\n")
