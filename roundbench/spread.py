"""Run the benchmark repeatedly and report each end-to-end metric's spread.

    python3 roundbench/spread.py --runs 10 [--workloads fusion-20,local-100] [--first-seed 100]
        [--save runs.json] [--baseline earlier.json]

Every repetition runs every workload once, each in a fresh process with its
own seed, and the workload order rotates between repetitions, so noise
that lasts several seconds does not land on one workload. For each metric
it prints the median, the quartiles (statistics.quantiles, n=4) and their
distance as a share of the median, next to the metric's bound in
BENCHMARK.json; a spread above a third of the bound is marked. p90 round
time, which a single run has too few rounds for, is given pooled over all
runs. With --baseline, the medians are
compared with an earlier --save file and a worsening beyond a bound is
marked. Each run's process wall time is printed, to check the run budget.
Exits 1 when a run fails or reports correct=false.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command: list[str], workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    started = time.perf_counter()
    out = subprocess.run(command + args, cwd=ROOT, check=True, capture_output=True, text=True).stdout
    lines = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
    info = next((line["info"] for line in lines if "info" in line), {})
    info["process_s"] = time.perf_counter() - started
    return lines[-1], info


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--first-seed", type=int, default=100)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--save")
    ap.add_argument("--baseline")
    args = ap.parse_args(argv)
    workloads = args.workloads.split(",")

    results: dict[str, list[dict]] = {w: [] for w in workloads}
    ok = True
    for rep in range(args.runs):
        order = workloads[rep % len(workloads):] + workloads[: rep % len(workloads)]
        for workload in order:
            result, info = run_once(spec["command"], workload, args.first_seed + rep, args.seconds, 0)
            ok &= bool(result["correct"])
            results[workload].append(result)
            result["info"] = info
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"rep {rep} {workload} ({info['process_s']:.1f} s): correct={result['correct']} {values}", flush=True)

    process_s = [r["info"]["process_s"] for runs in results.values() for r in runs]
    print(f"\nprocess wall seconds: mean {statistics.fmean(process_s):.1f}, max {max(process_s):.1f}")
    medians: dict[str, dict[str, float]] = {}
    for workload in workloads:
        pooled = [ms for r in results[workload] for ms in r["info"]["round_ms"]]
        print(f"\n{workload}: {len(results[workload])} runs; p90 pooled over them "
              f"{statistics.quantiles(pooled, n=10)[8]:.2f} ms from {len(pooled)} rounds")
        medians[workload] = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            median, q1, q3, share = spread([r["metrics"][name]["value"] for r in results[workload]])
            medians[workload][name] = median
            flag = "" if share < metric["bound"] / 3 else "  <-- above a third of the bound"
            print(f"  {name:16s} median {median:.5g} q1 {q1:.5g} q3 {q3:.5g} spread {share:.4f} bound {metric['bound']}{flag}")

    if args.save:
        Path(args.save).write_text(json.dumps({"medians": medians, "results": results}, indent=1))
    if args.baseline:
        base = json.loads(Path(args.baseline).read_text())["medians"]
        print("\nagainst the baseline medians:")
        for workload in workloads:
            for metric in spec["end_to_end"]:
                name, bound = metric["name"], metric["bound"]
                old, new = base[workload][name], medians[workload][name]
                worse = (new - old) / old if metric["better"] == "lower" else (old - new) / old
                flag = "" if worse <= bound else "  <-- worse by more than the bound"
                print(f"  {workload:12s} {name:16s} {old:.5g} -> {new:.5g} worse by {worse:+.4f}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
