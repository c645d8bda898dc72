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


# a numeric field declares its range in its metadata: a test, and the words its error ends with
def _at_least(low) -> dict:
    return {"range": (lambda v: v >= low, f">= {low}")}


def _above(low) -> dict:
    return {"range": (lambda v: v > low, f"> {low}")}


_SHARE = {"range": (lambda v: 0 < v <= 1, "in (0, 1]")}
_FRACTION = {"range": (lambda v: 0 <= v < 1, "in [0, 1)")}


@dataclass(frozen=True)
class DatasetConfig:
    """Shape of the synthetic task."""

    num_classes: int = field(default=4, metadata=_at_least(2))
    samples_per_class: int = field(default=250, metadata=_at_least(1))
    feature_dim: int = field(default=2, metadata=_at_least(2))
    class_std: float = field(default=0.5, metadata=_above(0))
    radius: float = field(default=1.0, metadata=_above(0))
    test_fraction: float = field(default=0.2, metadata=_FRACTION)  # stratified IID split held out for the global metric
    holdout_fraction: float = field(default=0.2, metadata=_FRACTION)  # per-client share held out for cluster metrics

    def __post_init__(self):
        _check_fields(self, "dataset.")


@dataclass(frozen=True)
class DistillConfig:
    """Knobs of the fusion stage.

    Defaults are calibrated for the bundled synthetic benchmark: generator
    updates lead the student 5:2 per alternation so synthesized samples
    become class-faithful before they can pull the student toward a
    teacher's opinion in regions that teacher never saw.
    """

    beta_cf: float = field(default=1.0, metadata=_at_least(0))  # weight of the class-fidelity term
    beta_div: float = field(default=1.0, metadata=_at_least(0))  # weight of the diversity term
    noise_dim: int = field(default=100, metadata=_at_least(1))
    pseudo_batch: int = field(default=50, metadata=_at_least(1))  # Q, samples synthesized per inner iteration
    inner_iters: int = field(default=10, metadata=_at_least(1))  # alternations per round
    gen_steps: int = field(default=5, metadata=_at_least(1))  # generator updates per alternation
    student_steps: int = field(default=2, metadata=_at_least(1))  # student updates per alternation
    gen_lr: float = field(default=0.05, metadata=_above(0))
    student_lr: float = field(default=0.05, metadata=_above(0))
    label_embed_dim: int = field(default=8, metadata=_at_least(1))
    gen_hidden_dim: int = field(default=64, metadata=_at_least(1))
    reinit_generator: bool = False  # fresh generator every round instead of a persistent one
    literal_minimax: bool = False  # use the flipped sign composition for the generator objective

    def __post_init__(self):
        _check_fields(self, "distill.")


@dataclass(frozen=True)
class SimConfig:
    """Everything one experiment needs besides the seed list it runs over.

    Defaults are the reference regime at desk scale: the round count ships
    at 50 (the reference setting of 500 is a flag away), everything else
    matches the reference values directly. A config is checked when it is
    built, from JSON, in Python or by `dataclasses.replace`, and is frozen.
    """

    rounds: int = field(default=50, metadata=_at_least(1))
    clients: int = field(default=100, metadata=_at_least(2))
    act: float = field(default=0.15, metadata=_SHARE)  # fraction of clients sampled per round
    local_epochs: int = field(default=5, metadata=_at_least(1))
    batch_size: int = field(default=50, metadata=_at_least(1))
    local_lr: float = field(default=0.1, metadata=_at_least(0))
    weight_decay: float = field(default=1e-3, metadata=_at_least(0))
    epsilon: float = field(default=0.05, metadata=_above(0))  # Dirichlet concentration of the label skew
    variant: str = "disue"
    seeds: tuple[int, ...] = (0,)  # a list is accepted, and stored as a tuple
    hidden_dim: int = field(default=64, metadata=_at_least(1))
    workers: int = field(default=1, metadata=_at_least(1))
    failure_policy: str = "halt"  # halt | skip
    secure_seed: int | None = field(default=None, metadata=_at_least(0))  # None derives the masking seed from the run seed
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
    """Each field holds its annotated type, is finite if a float, and lies in its declared range.

    A nested block checked itself, under its prefix, when it was built.
    Nothing is converted, so the echo keeps the bytes it was given.
    """
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        kind = f.type.removesuffix(" | None")
        if value is None and kind != f.type:
            continue  # an optional field left unset
        if not _ACCEPTS[kind](value):
            raise ConfigError(f"config key '{prefix}{f.name}' must be {_SHOWN.get(f.type, f.type)}, got {json.dumps(value, default=repr)}")
        if kind == "float" and not math.isfinite(value):
            raise ConfigError(f"config key '{prefix}{f.name}' must be finite, got {value!r}")
        test, words = f.metadata.get("range", (None, ""))
        if test and not test(value):
            raise ConfigError(f"config key '{prefix}{f.name}' must be {words}")


def validate_config(cfg: SimConfig) -> None:
    """Check every field, then the rules that span keys or choose among names."""
    _check_fields(cfg)
    _require(cfg.variant in VARIANTS, "variant", f"must be one of {', '.join(VARIANTS)}")
    _require(len(cfg.seeds) >= 1, "seeds", "must list at least one seed")
    _require(min(cfg.seeds) >= 0, "seeds", f"must be >= 0, got {cfg.seeds}")
    _require(len(set(cfg.seeds)) == len(cfg.seeds), "seeds", f"must not list a seed twice, got {cfg.seeds}")
    _require(cfg.failure_policy in ("halt", "skip"), "failure_policy", "must be 'halt' or 'skip'")
    ds = cfg.dataset
    # the held-out count per class, as split_dataset computes it
    held_out = int(round(ds.test_fraction * ds.samples_per_class))
    _require(held_out >= 1, "dataset.test_fraction", "must hold out at least one sample per class")
    pool = ds.num_classes * (ds.samples_per_class - held_out)
    _require(cfg.clients <= pool, "clients", f"must be at most {pool}, so each client gets one of the {pool} training samples")


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
