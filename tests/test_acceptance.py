"""Release gate: the five acceptance checks, one verdict line each.

Run ``pytest tests/test_acceptance.py -v -s`` to see the checklist with
margins. A1/A2 are fast oracle sweeps; A3 runs the directional experiment
matrix (7 variants x 3 seeds x 50 rounds) once in a module fixture and is
the slow part; A4 re-runs a small experiment through the CLI; A5 drives
the degenerate all-identical-clients regime.
"""
from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from disue import nn
from disue.aggregation import compute_gls, compute_gwf, sample_labels
from disue.cli import main
from disue.clustering import affinity_propagation, build_similarity_matrix
from disue.config import SimConfig
from disue.data import LabelHistogram
from disue.distill import PseudoBatch, loss_div
from disue.metrics import final_accuracy, strip_wall_ms
from disue.orchestrator import Simulation, run_experiment
from disue.secure import SecParams, ssc_compute, ssc_encrypt
from helpers import (
    identical_client_data,
    max_rel_error,
    model_gradient,
    numeric_gradient,
    well_separated_classifier,
)


@contextmanager
def _verdict(label: str):
    """Print exactly one PASS/FAIL line for the enclosed criterion."""
    info: dict[str, str] = {}
    start = time.perf_counter()
    ok = False
    try:
        yield info
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        note = f"; {info['note']}" if "note" in info else ""
        print(f"{label}: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s{note})", flush=True)


# ---------------------------------------------------------------------------
# A1: math-kernel oracles


def test_a1_math_kernel_oracles():
    with _verdict("A1 math-kernel oracles") as info:
        t0 = time.perf_counter()

        # importance weights: each represented class column partitions 1,
        # and the sampler distribution stays proportional to the totals
        rng = np.random.default_rng(20260817)
        for _ in range(1000):
            k = int(rng.integers(1, 6))
            c = int(rng.integers(2, 11))
            counts = rng.integers(0, 50, size=(k, c))
            if not counts.any():
                counts[0, 0] = 1
            hist = LabelHistogram(counts=counts.astype(np.int64))
            totals = counts.sum(axis=0)
            gwf = compute_gwf(hist)
            assert np.all(np.abs(gwf.alpha.sum(axis=0)[totals > 0] - 1.0) < 1e-12)
            assert np.all(gwf.alpha[:, totals == 0] == 0.0)
            gls = compute_gls(hist)
            assert np.max(np.abs(gls.probs - totals / totals.sum())) < 1e-12

        # sampler frequencies within 3 standard errors at 1e5 draws
        gls = compute_gls(LabelHistogram(counts=np.array([[1, 3]], dtype=np.int64)))
        assert np.max(np.abs(gls.probs - [0.25, 0.75])) < 1e-12
        draws = sample_labels(gls, 100_000, np.random.default_rng(5))
        for cls, p in enumerate(gls.probs):
            sigma = math.sqrt(p * (1.0 - p) / 100_000)
            assert abs(float(np.mean(draws == cls)) - p) <= 3.0 * sigma

        # closed forms
        assert np.max(np.abs(nn.softmax(np.array([0.0, 0.0])).data - 0.5)) < 1e-9
        assert np.max(np.abs(nn.softmax(np.array([1000.0, 1000.0])).data - 0.5)) < 1e-9
        assert np.max(np.abs(nn.softmax(np.log(np.array([1.0, 3.0]))).data - [0.25, 0.75])) < 1e-9
        same = np.array([0.3, 0.7])
        assert abs(nn.kl_divergence(same, same).item()) < 1e-9
        assert abs(nn.kl_divergence(np.array([1.0, 0.0]), np.array([0.5, 0.5])).item() - math.log(2.0)) < 1e-9
        mixed = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
        assert abs(nn.kl_divergence(np.array([0.5, 0.5]), np.array([0.25, 0.75])).item() - mixed) < 1e-9
        assert abs(nn.cross_entropy(np.array([[0.0, 0.0]]), np.array([0])).item() - math.log(2.0)) < 1e-9
        assert abs(nn.cross_entropy(np.log(np.array([[1.0, 3.0]])), np.array([1])).item() + math.log(0.75)) < 1e-9

        # ||x0-x1|| = 5 against ||z0-z1|| = 0.4: exponent -1 exactly
        batch = PseudoBatch(
            noise=np.array([[0.0], [0.4]]),
            labels=np.array([0, 1], dtype=np.int64),
            samples=nn.Tensor(np.array([[0.0, 0.0], [3.0, 4.0]])),
        )
        assert abs(loss_div(batch).item() - math.exp(-1.0)) < 1e-9

        # autodiff against central differences on 50 randomized models
        worst = 0.0
        for seed in range(50):
            mrng = np.random.default_rng(1000 + seed)
            model, x = well_separated_classifier(mrng, in_dim=3, hidden=(5,), classes=4, batch=3)
            labels = mrng.integers(0, 4, size=3)

            def loss_at(vec, model=model, x=x, labels=labels):
                return nn.cross_entropy(model.spawn(vec).forward(x), labels).item()

            auto = model_gradient(model, lambda m, x=x, labels=labels: nn.cross_entropy(m.forward(x), labels))
            worst = max(worst, max_rel_error(auto, numeric_gradient(loss_at, model.param_vector())))
        assert worst < 1e-4

        assert time.perf_counter() - t0 < 60.0
        info["note"] = f"gradcheck worst rel err {worst:.1e} over 50 models"


# ---------------------------------------------------------------------------
# A2: masking protocol + clustering


def test_a2_protocol_and_clustering():
    with _verdict("A2 masked similarity + clustering") as info:
        t0 = time.perf_counter()

        # masked channel reproduces the plaintext cosine
        rng = np.random.default_rng(42)
        worst = 0.0
        for rnd, salt in ((0, 7), (3, 11), (12, 2026)):
            sec = SecParams(shared_seed=salt)
            for _ in range(100):
                a = rng.normal(size=64)
                b = rng.normal(size=64)
                plain = float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
                got = ssc_compute(ssc_encrypt(a, sec, rnd, 0), ssc_encrypt(b, sec, rnd, 1))
                worst = max(worst, abs(got - plain))
        assert worst < 1e-9

        # planted 3-way bundles recovered exactly, ten seeds out of ten
        dim, per_group = 40, 10
        recovered = 0
        for seed in range(10):
            grng = np.random.default_rng(seed)
            vectors, want = [], []
            for g in range(3):
                center = np.zeros(dim)
                center[g] = 1.0
                group = []
                for _ in range(per_group):
                    vectors.append(center + grng.normal(scale=0.12 / np.sqrt(dim), size=dim))
                    group.append(len(vectors) - 1)
                want.append(frozenset(group))
            unit = np.stack([v / np.linalg.norm(v) for v in vectors])
            cos = unit @ unit.T
            groups = np.repeat(np.arange(3), per_group)
            same = groups[:, None] == groups[None, :]
            off = ~np.eye(len(vectors), dtype=bool)
            # construction guard: bundles must be tight and mutually far
            assert cos[same & off].min() > 0.95
            assert cos[~same].max() < 0.2
            masked = [ssc_encrypt(v, SecParams(shared_seed=seed), seed, cid) for cid, v in enumerate(vectors)]
            part = affinity_propagation(build_similarity_matrix(masked))
            if {frozenset(m) for m in part.members} == set(want):
                recovered += 1
        assert recovered == 10

        assert time.perf_counter() - t0 < 60.0
        info["note"] = f"cosine gap {worst:.1e}; partitions {recovered}/10"


# ---------------------------------------------------------------------------
# A3: directional end-to-end matrix


A3_BASE = SimConfig(rounds=50, clients=20, act=0.5, epsilon=0.05, seeds=[0, 1, 2])
A3_FAMILY = (
    "disue",
    "fedavg",
    "disue_minus_iga",
    "disue_minus_gls",
    "disue_minus_gwf",
    "disue_minus_lcf",
    "disue_minus_ldiv",
)


@pytest.fixture(scope="module")
def directional_matrix():
    t0 = time.perf_counter()
    runs = {variant: run_experiment(replace(A3_BASE, variant=variant)) for variant in A3_FAMILY}
    return runs, time.perf_counter() - t0


@pytest.mark.slow
def test_a3_directional_end_to_end(directional_matrix):
    runs, elapsed = directional_matrix
    with _verdict("A3 directional end-to-end") as info:
        means = {
            variant: float(np.mean([final_accuracy(rows) for rows in result.rows_by_seed.values()]))
            for variant, result in runs.items()
        }

        # sign-or-near-tie against plain averaging; the gap itself is reported,
        # not asserted
        assert means["disue"] >= means["fedavg"] - 0.01

        # clustering without fusion must ride the plain-averaging trajectory
        for seed in A3_BASE.seeds:
            ref = runs["fedavg"].rows_by_seed[seed]
            averaged = runs["disue_minus_iga"].rows_by_seed[seed]
            for left, right in zip(ref, averaged, strict=True):
                assert abs(left.global_acc - right.global_acc) <= 1e-6

        # every single-module ablation may beat the full method by at most
        # half a point
        for variant in ("disue_minus_gls", "disue_minus_gwf", "disue_minus_lcf", "disue_minus_ldiv"):
            assert means["disue"] >= means[variant] - 0.005

        assert elapsed < 600.0
        worst_margin = min(means["disue"] - means[v] for v in A3_FAMILY if v != "disue")
        info["note"] = (
            f"disue {means['disue']:.4f} vs fedavg {means['fedavg']:.4f}, "
            f"worst ablation margin {worst_margin:+.4f}, matrix {elapsed:.0f}s"
        )


# ---------------------------------------------------------------------------
# A4: re-run determinism at any parallelism


A4_CONFIG = {
    "rounds": 6,
    "clients": 6,
    "act": 0.5,
    "local_epochs": 2,
    "batch_size": 20,
    "epsilon": 0.5,
    "hidden_dim": 16,
    "seeds": [0, 1],
    "dataset": {"samples_per_class": 30},
    "distill": {
        "noise_dim": 8,
        "pseudo_batch": 10,
        "inner_iters": 2,
        "gen_steps": 2,
        "student_steps": 1,
        "gen_hidden_dim": 16,
        "label_embed_dim": 4,
    },
}


def test_a4_rerun_determinism(tmp_path):
    with _verdict("A4 re-run determinism") as info:
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(A4_CONFIG), encoding="utf-8")
        outputs = {}
        for name, workers in (("first", 1), ("again", 1), ("pooled", 4)):
            out_dir = tmp_path / name
            code = main(["run", "--config", str(cfg), "--out-dir", str(out_dir), "--workers", str(workers)])
            assert code == 0
            csvs = {}
            for path in sorted(out_dir.glob("*.csv")):
                raw = path.read_bytes()
                assert b"\r\n" not in raw
                # wall_ms is a measured timing, the one field exempt from
                # byte identity; everything else must match exactly
                csvs[path.name] = strip_wall_ms(raw.decode("utf-8"))
            outputs[name] = (csvs, (out_dir / "summary.json").read_text(encoding="utf-8"))
        assert len(outputs["first"][0]) == len(A4_CONFIG["seeds"])
        assert outputs["first"] == outputs["again"]
        assert outputs["first"] == outputs["pooled"]
        info["note"] = f"{len(outputs['first'][0])} metrics files, workers 1 vs 4"


# ---------------------------------------------------------------------------
# A5: degenerate IID fixed point


def test_a5_identical_clients_fixed_point():
    with _verdict("A5 IID fixed point") as info:
        data = identical_client_data(8, per_class=12)
        shared = dict(
            rounds=20, clients=8, act=1.0, local_epochs=2, batch_size=64,
            epsilon=0.5, seeds=[0], hidden_dim=32,
        )
        fused = Simulation(SimConfig(variant="disue", **shared), seed=0, data=data)
        plain = Simulation(SimConfig(variant="fedavg", **shared), seed=0, data=data)
        rows = fused.run()
        plain.run()
        assert all(row.cluster_count == 1 for row in rows)
        gap = float(np.max(np.abs(fused.global_params - plain.global_params)))
        assert gap < 1e-6
        info["note"] = f"max param gap {gap:.1e} after 20 rounds"
