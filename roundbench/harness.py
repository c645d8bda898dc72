"""Round-time benchmark of the disue simulator, driven in-process.

    python3 roundbench/run.py --workload fusion-20 --seed 1 --seconds 38 --trace 0

Each workload is one simulator configuration in which one phase of the
round dominates, so an optimisation of that phase shows on its workload
and leaves the others unchanged. A run builds one `Simulation` per
episode, each with its own seed derived from `--seed`, and plays a fixed
number of rounds per episode. It starts another episode while that one
would end nearer to `--seconds` than the last one did, and always plays
the first `min_episodes`, whose accuracy is the deterministic
`final_acc`. Every round's output is checked.

`--trace 0` reports the end-to-end metrics. `setup_s` is the median wall
time of several fresh processes that each import the simulator, build the
config and construct the Simulation of every guaranteed episode. The
probes are spread over the run, between episodes, so that a slow spell of
the machine lands on few of them.

`--trace 1` plays each episode twice, plain and then traced (see
tracing.py), reports the per-layer split, the tracing overhead, and
requires both plays to give the same wall_ms-masked metrics CSV. Spans
are written to roundbench_out/ when the run ends.

The last line of standard output is the result; earlier lines carry the
machine fingerprint and information that is not gated, such as the
masked CSV digest of the first episode.
"""
from __future__ import annotations

import os

# BLAS reads its thread count once, when numpy loads it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "disue").is_dir():
    sys.exit(f"no simulator source under {ROOT / 'src'}: run from a checkout of the repository")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from disue.config import SimConfig, config_from_dict, config_to_dict  # noqa: E402
from disue.metrics import CSV_HEADER, RoundMetrics, strip_wall_ms  # noqa: E402
from disue.orchestrator import Simulation, sample_active_clients  # noqa: E402

from tracing import Tracer, layer_metrics  # noqa: E402

RUN_PY = Path(__file__).with_name("run.py")
TRACE_DIR = ROOT / "roundbench_out"
SETUP_PROBES = 7
FINAL_WINDOW = 10  # rounds averaged into an episode's accuracy


@dataclass(frozen=True)
class Workload:
    config: dict  # SimConfig fields on top of COMMON
    episode_rounds: int
    min_episodes: int  # always played; their accuracy is final_acc
    fuses: bool  # the variant computes the fusion losses
    acc_floor: float  # lowest acceptable final_acc


COMMON = {"epsilon": 0.05, "failure_policy": "skip"}

WORKLOADS = {
    # iga_round is ~91% of a round; clustering at n=10 is under 1%
    "fusion-20": Workload(
        {"variant": "disue", "clients": 20, "act": 0.5, "workers": 1},
        episode_rounds=10, min_episodes=6, fuses=True, acc_floor=0.6,
    ),
    # local SGD is ~95% of a round, no clustering or fusion; 2 workers drive the thread pool
    "local-100": Workload(
        {"variant": "fedavg", "clients": 100, "act": 0.15, "workers": 2},
        episode_rounds=25, min_episodes=4, fuses=False, acc_floor=0.65,
    ),
    # clustering is over a third of a round with AP at n=300, no fusion; K near 20 makes
    # aggregation and per-cluster evaluation many small calls
    "cluster-300": Workload(
        {"variant": "disue_minus_iga", "clients": 300, "act": 1.0, "local_epochs": 1, "workers": 1,
         "dataset": {"samples_per_class": 2500}},
        episode_rounds=10, min_episodes=4, fuses=False, acc_floor=0.7,
    ),
}

# a round that logged one of these was rolled back or kept the unfused average
FAILED_STAGES = ("round", "distill")


def workload_config(name: str) -> SimConfig:
    spec = WORKLOADS[name]
    return config_from_dict({**COMMON, **spec.config, "rounds": spec.episode_rounds})


def episode_seed(seed: int, episode: int) -> int:
    return seed * 1000 + episode


def config_hash(cfg: SimConfig) -> str:
    return hashlib.sha256(json.dumps(config_to_dict(cfg), sort_keys=True).encode()).hexdigest()[:16]


def masked_digest(rows: list[RoundMetrics]) -> str:
    csv = "\n".join([CSV_HEADER] + [row.csv_row() for row in rows]) + "\n"
    return hashlib.sha256(strip_wall_ms(csv).encode()).hexdigest()


def check_round(row: RoundMetrics, sim: Simulation, fuses: bool) -> list[str]:
    """Violations in one round's output: non-finite computed fields, K out of range."""
    problems = []
    cfg = sim.cfg
    actives = sample_active_clients(cfg.clients, cfg.act, row.round_index, sim.seed)
    if not 1 <= row.cluster_count <= actives.size:
        problems.append(f"K={row.cluster_count} outside [1, {actives.size}]")
    computed = ["global_acc", "loss_local"]
    # cluster accuracy is undefined (NaN) only when no active client holds out data
    holdout = {shard.client_id: shard.holdout.n for shard in sim.data.clients}
    if any(holdout[cid] for cid in actives.tolist()):
        computed.append("cluster_acc_mean")
    if fuses:
        computed += ["loss_cd", "loss_cf", "loss_div"]
    problems += [f"{name} is not finite" for name in computed if not math.isfinite(getattr(row, name))]
    return problems


@dataclass
class Episode:
    rows: list[RoundMetrics]
    round_s: list[float]
    failed: int
    problems: list[str]

    @property
    def final_acc(self) -> float:
        return statistics.fmean(row.global_acc for row in self.rows[-FINAL_WINDOW:])

    @property
    def digest(self) -> str:
        return masked_digest(self.rows)


def run_episode(cfg: SimConfig, seed: int, fuses: bool, tracer: Tracer | None = None) -> Episode:
    """Build one Simulation and play cfg.rounds rounds, timing and checking each."""
    bracket = tracer.round if tracer is not None else contextlib.nullcontext
    sim = Simulation(cfg, seed)
    rows, round_s, problems, failed = [], [], [], 0
    for r in range(cfg.rounds):
        seen = len(sim.events)
        started = time.perf_counter()
        with bracket():
            row = sim.run_round()
        round_s.append(time.perf_counter() - started)
        bad = check_round(row, sim, fuses)
        bad += [event.message for event in sim.events[seen:] if event.stage in FAILED_STAGES]
        if bad:
            failed += 1
            problems += [f"seed {seed} round {r}: {msg}" for msg in bad]
        rows.append(row)
    return Episode(rows, round_s, failed, problems)


def time_setup(workload: str, seed: int) -> float:
    """Wall seconds of a fresh process that imports, configures and constructs."""
    cmd = [sys.executable, str(RUN_PY), "--workload", workload, "--seed", str(seed), "--setup-probe"]
    started = time.perf_counter()
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, cwd=ROOT)
    return time.perf_counter() - started


def setup_probe(workload: str, seed: int) -> None:
    cfg = workload_config(workload)
    for e in range(WORKLOADS[workload].min_episodes):
        Simulation(cfg, episode_seed(seed, e))


def fingerprint(workload: str, cfg: SimConfig) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_vendor = "unknown"
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info if line.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_vendor,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "workload": workload,
        "config_sha256": config_hash(cfg),
    }


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def rounds_per_s(episodes: list[Episode]) -> float:
    return sum(len(e.round_s) for e in episodes) / sum(sum(e.round_s) for e in episodes)


def play(workload: str, seed: int, seconds: float, trace: bool):
    """Play episodes for about `seconds`; return (values, episodes, problems, tracer).

    With trace, every episode is played twice, plain and then traced, and
    both plays must give the same masked CSV.
    """
    spec = WORKLOADS[workload]
    cfg = workload_config(workload)
    Simulation(cfg, episode_seed(seed, 0)).run_round()  # warm-up: first-call costs stay out of the timing
    tracer = Tracer() if trace else None
    plain: list[Episode] = []
    traced: list[Episode] = []
    problems: list[str] = []
    setup_s: list[float] = []
    probes = 0 if trace else SETUP_PROBES
    if probes:
        time_setup(workload, seed)  # warms the file cache; not counted
    started = time.perf_counter()
    # the traced run reports no final_acc, so it needs only one episode
    min_episodes = 1 if trace else spec.min_episodes

    def another_episode() -> bool:
        if len(plain) < min_episodes:
            return True
        elapsed = time.perf_counter() - started
        return elapsed + 0.5 * elapsed / len(plain) < seconds  # the next one ends nearest the deadline

    while another_episode():
        e_seed = episode_seed(seed, len(plain))
        plain.append(run_episode(cfg, e_seed, spec.fuses))
        if tracer is not None:
            with tracer.installed():
                traced.append(run_episode(cfg, e_seed, spec.fuses, tracer))
            if traced[-1].digest != plain[-1].digest:
                problems.append(f"seed {e_seed}: traced and untraced masked CSVs differ")
        if len(setup_s) < probes and time.perf_counter() - started >= len(setup_s) * seconds / probes:
            setup_s.append(time_setup(workload, seed))
    while len(setup_s) < probes:
        setup_s.append(time_setup(workload, seed))
    episodes = plain + traced
    problems += [problem for e in episodes for problem in e.problems]

    if tracer is not None:
        values = layer_metrics(tracer.spans, cfg.workers)
        values["trace.overhead_ratio"] = rounds_per_s(traced) / rounds_per_s(plain)
        values["clustering.k_mean"] = statistics.fmean(row.cluster_count for e in traced for row in e.rows)
        q = cfg.distill.pseudo_batch
        values["distill.loss_div_elements_computed"] = float(q * q * cfg.distill.noise_dim) if spec.fuses else 0.0
        return values, episodes, problems, tracer

    round_ms = sorted(s * 1000.0 for e in plain for s in e.round_s)
    failed = sum(e.failed for e in plain)
    values = {
        "rounds_per_s": rounds_per_s(plain),
        "round_ms_p50": statistics.median(round_ms),
        # p80, not p90: a run has 80-110 rounds on fusion-20 and cluster-300, too few
        # for ten above p90, and cluster-300's AP-capped rounds sit near its 90th percentile
        "round_ms_p80": statistics.quantiles(round_ms, n=10)[7],
        "setup_s": statistics.median(setup_s),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "final_acc": statistics.fmean(e.final_acc for e in plain[: spec.min_episodes]),
        "round_ok_ratio": 1.0 - failed / len(round_ms),
    }
    if values["final_acc"] < spec.acc_floor:
        problems.append(f"final_acc {values['final_acc']:.4f} is below the floor {spec.acc_floor}")
    return values, episodes, problems, tracer


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="Round-time benchmark of the disue simulator.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=38.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    trace = bool(args.trace)
    units = declared_metrics(trace)
    cfg = workload_config(args.workload)
    print(json.dumps({"fingerprint": fingerprint(args.workload, cfg)}), flush=True)
    values, episodes, problems, tracer = play(args.workload, args.seed, args.seconds, trace)
    if set(values) != set(units):
        raise RuntimeError(f"measured metrics {sorted(set(values) ^ set(units))} do not match BENCHMARK.json")
    if tracer is not None:
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.write_jsonl(TRACE_DIR / f"{args.workload}-seed{args.seed}.spans.jsonl")

    round_ms = [s * 1000.0 for e in episodes for s in e.round_s]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "episodes": len(episodes),
        "rounds": len(round_ms),
        "rounds_above_p80": None if trace else sum(ms > values["round_ms_p80"] for ms in round_ms),
        "first_episode_masked_csv_sha256": episodes[0].digest,
        "episode_final_acc": [e.final_acc for e in episodes],
        "problems": problems[:20],
        "round_ms": round_ms,
    }
    print(json.dumps({"info": info}), flush=True)
    result = {
        "correct": not problems,
        "attempted": len(round_ms),
        "failed": sum(e.failed for e in episodes),
        "metrics": {name: {"value": float(values[name]), "unit": units[name]} for name in units},
    }
    print(json.dumps(result), flush=True)
    return 0
