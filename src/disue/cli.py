"""Command line front end.

Subcommands:
  run      one variant over one or more seeds
  compare  several variants on shared seeds
  ablate   the fixed ablation family against the full method
  sweep    a grid over one distillation knob

Every command writes into --out-dir: the echoed effective config, one
per-round CSV per (variant, seed), and a summary JSON with the mean and
std over seeds of the final-window accuracy. It then prints that summary
as a table, best mean first. Each (run, seed) whose rounds logged events,
such as a diverged client or a failed round, gets one line on stderr
with the count per stage.
"""
from __future__ import annotations

import argparse
import re
import sys
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

from .config import VARIANT_SPECS, VARIANTS, DistillConfig, SimConfig, emit_config, parse_config
from .errors import ConfigError, DisueError
from .metrics import summarize, write_plot_data, write_round_csv, write_summary
from .orchestrator import ExperimentResult, run_experiment

# every variant that ends a round with one global model
ABLATION_FAMILY = tuple(v for v, spec in VARIANT_SPECS.items() if not spec.cluster_broadcast)

SWEEP_PARAMS = ("beta_cf", "beta_div", "noise_dim", "pseudo_batch")
_CONFIG_KEYS = {f.name for f in fields(SimConfig)}


class _Parser(argparse.ArgumentParser):
    # argparse takes a separate token such as -inf, -nan or -1e-3 for an option unless
    # it is a plain number; read it as a value, so the config check names its key
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    """Every flag but --config sets the SimConfig key named by its dest; left out, it is None and keeps the file's value."""
    p.add_argument("--config", help="JSON config file; empty file means all defaults")
    p.add_argument("--seed", dest="seeds", metavar="SEED", type=int, action="append", help="seed to run; repeat the flag for several")
    p.add_argument("--rounds", type=int, help="rounds per seed")
    p.add_argument("--clients", type=int, help="total number of clients")
    p.add_argument("--act", type=float, help="fraction of clients active per round")
    p.add_argument("--epsilon", type=float, help="Dirichlet concentration of the label skew")
    p.add_argument("--workers", type=int, help="accepted for compatibility; results are bitwise identical at any count")
    p.add_argument("--out-dir", help="output directory (default disue_out)")
    p.add_argument("--plot-data", dest="emit_plot_data", action="store_const", const=True, help="also write long-format plot_data.csv")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="disue", description="desk-scale clustered federated learning simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a single variant")
    run_p.add_argument("--variant", choices=VARIANTS, help="algorithm variant (default: the config file's, else disue)")
    _add_common_flags(run_p)

    cmp_p = sub.add_parser("compare", help="run several variants on shared seeds")
    cmp_p.add_argument("variants", nargs="+", choices=VARIANTS, metavar="variant")
    _add_common_flags(cmp_p)

    abl_p = sub.add_parser("ablate", help="run the ablation family: " + ", ".join(ABLATION_FAMILY))
    _add_common_flags(abl_p)

    swp_p = sub.add_parser("sweep", help="grid over one distillation knob")
    swp_p.add_argument("--param", required=True, choices=SWEEP_PARAMS)
    swp_p.add_argument("--values", required=True, help="comma separated values, e.g. 0.5,1.0,1.5")
    _add_common_flags(swp_p)
    return parser


def _base_config(args: argparse.Namespace, **overrides) -> SimConfig:
    """The config file with the flags and then `overrides` applied."""
    flags = {key: value for key, value in vars(args).items() if key in _CONFIG_KEYS}
    cfg = parse_config(args.config, flags | overrides)
    if cfg.out_dir is None:
        cfg = replace(cfg, out_dir="disue_out")
    return cfg


def _sweep_value(param: str, raw: str) -> float | int:
    is_int = {f.name: f.type for f in fields(DistillConfig)}[param] == "int"
    try:
        return int(raw) if is_int else float(raw)
    except ValueError:
        raise ConfigError(f"config key 'distill.{param}' cannot take the value {raw!r}") from None


def _plan(args: argparse.Namespace) -> tuple[SimConfig, dict[str, SimConfig]]:
    """The config to echo and every run the command asks for, keyed by output label.

    The echo is the base config with the first run's variant.
    """
    if args.command == "run":
        base = _base_config(args)
        return base, {base.variant: base}
    if args.command == "sweep":
        base = _base_config(args, variant="disue")
        plan = {}
        for raw in args.values.split(","):
            raw = raw.strip()
            distill = replace(base.distill, **{args.param: _sweep_value(args.param, raw)})
            plan[f"{args.param}_{raw}"] = replace(base, distill=distill)
        return base, plan
    # dict.fromkeys keeps order while dropping accidental repeats
    variants = list(dict.fromkeys(args.variants)) if args.command == "compare" else list(ABLATION_FAMILY)
    base = _base_config(args, variant=variants[0])
    return base, {variant: replace(base, variant=variant) for variant in variants}


def _prepare_out_dir(cfg: SimConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    probe = out / ".write_probe"
    probe.write_text("")
    probe.unlink()
    return out


def _emit(out: Path, cfg: SimConfig, per_label: dict[str, dict[int, list]]) -> dict:
    emit_config(cfg, out / "config.json")
    for label, by_seed in per_label.items():
        for seed, rows in by_seed.items():
            write_round_csv(out / f"{label}_seed{seed}.csv", rows)
    summary = summarize(per_label)
    write_summary(out / "summary.json", summary)
    if cfg.emit_plot_data:
        write_plot_data(out / "plot_data.csv", per_label)
    return summary


def _print_table(summary: dict) -> None:
    """One row per run, best mean first: final accuracy per seed, then mean and std."""
    entries = sorted(summary["variants"].items(), key=lambda kv: -kv[1]["final_acc_mean"])
    first = entries[0][1]
    seeds = first["seeds"]
    header = ["run"] + [f"seed {s}" for s in seeds] + ["mean", "std"]
    rows = [header]
    for name, entry in entries:
        accs = [entry["per_seed_final_acc"][str(s)] for s in seeds] + [entry["final_acc_mean"], entry["final_acc_std"]]
        rows.append([name] + [f"{acc:.4f}" for acc in accs])
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    print(f"final accuracy, mean of last {min(summary['window'], first['rounds'])} rounds:")
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())


def _report_events(results: dict[str, ExperimentResult]) -> None:
    """One stderr line per (run, seed) that logged events, counted by stage."""
    for label, result in results.items():
        for seed, events in result.events_by_seed.items():
            if events:
                stages = ", ".join(f"{stage} {n}" for stage, n in Counter(ev.stage for ev in events).items())
                noun = "event" if len(events) == 1 else "events"
                print(f"{label} seed {seed}: {len(events)} {noun} ({stages})", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        echo, plan = _plan(args)  # builds, and so checks, every run before the first one starts
        out = _prepare_out_dir(echo)
        results = {label: run_experiment(cfg) for label, cfg in plan.items()}
        summary = _emit(out, echo, {label: result.rows_by_seed for label, result in results.items()})
    except DisueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _report_events(results)
    _print_table(summary)
    print(f"wrote {out}/summary.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
