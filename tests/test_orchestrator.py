"""Round loop: determinism, variant semantics, failure handling."""
from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import disue
from disue import nn
from disue.aggregation import compute_gls
from disue.config import VARIANT_SPECS, VARIANTS, DatasetConfig, SimConfig
from disue.data import Dataset
from disue.distill import DistillConfig
from disue.errors import InvalidInputError
from disue.metrics import CSV_HEADER, strip_wall_ms
from disue.orchestrator import (
    FederatedData,
    Simulation,
    build_federated_data,
    local_train,
    run_experiment,
    sample_active_clients,
)
from disue.nn import Classifier
from helpers import identical_client_data


def tiny_cfg(**overrides) -> SimConfig:
    base = dict(
        rounds=3,
        clients=6,
        act=0.5,
        local_epochs=2,
        batch_size=16,
        epsilon=0.5,
        seeds=[0],
        hidden_dim=16,
        dataset=DatasetConfig(samples_per_class=30),
        distill=DistillConfig(noise_dim=8, pseudo_batch=10, inner_iters=2, gen_steps=2, student_steps=1, gen_hidden_dim=16, label_embed_dim=4),
    )
    base.update(overrides)
    return SimConfig(**base)


def rows_key(rows):
    """Everything in a metrics row except wall time."""
    return [
        (r.round_index, r.cluster_count, r.global_acc, tuple(r.cluster_accs), r.loss_local, r.loss_cd, r.loss_cf, r.loss_div)
        for r in rows
    ]


def test_active_sampling_is_sorted_deterministic_and_sized():
    a = sample_active_clients(10, 0.3, round_index=4, master_seed=7)
    b = sample_active_clients(10, 0.3, round_index=4, master_seed=7)
    assert np.array_equal(a, b)
    assert a.size == 3  # ceil(0.3 * 10)
    assert np.all(np.diff(a) > 0)
    assert sample_active_clients(10, 1.0, 0, 0).size == 10
    assert not np.array_equal(a, sample_active_clients(10, 0.3, 5, 7))
    with pytest.raises(InvalidInputError):
        sample_active_clients(10, 0.0, 0, 0)


def test_build_federated_data_covers_every_sample():
    cfg = tiny_cfg()
    data = build_federated_data(cfg, seed=0)
    assert len(data.clients) == cfg.clients
    total = cfg.dataset.num_classes * cfg.dataset.samples_per_class
    held = data.test_labels.shape[0]
    shard_total = sum(c.train.n + c.holdout.n for c in data.clients)
    assert held + shard_total == total
    assert all(c.train.n >= 1 for c in data.clients)


def test_local_train_learns_and_is_deterministic():
    data = build_federated_data(tiny_cfg(), seed=1)
    shard = max(data.clients, key=lambda c: c.train.n)
    template = Classifier(2, 4, hidden=(16, 16))
    init = Classifier(2, 4, hidden=(16, 16), rng=np.random.default_rng(0)).param_vector()
    out1 = local_train([shard.train], init[None], template, epochs=5, lr=0.1, batch_size=8, weight_decay=1e-3, rngs=[np.random.default_rng(3)])
    out2 = local_train([shard.train], init[None], template, epochs=5, lr=0.1, batch_size=8, weight_decay=1e-3, rngs=[np.random.default_rng(3)])
    params, losses, diverged = out1
    assert not diverged and np.isfinite(losses[0])
    assert np.array_equal(params, out2[0])
    assert not np.array_equal(params[0], init)


def test_full_batch_training_ignores_batch_size_excess():
    # batch_size >= n is one deterministic full-batch pass: no shuffle draw,
    # so the rng state cannot influence the result
    data = build_federated_data(tiny_cfg(), seed=1)
    shard = data.clients[0]
    template = Classifier(2, 4, hidden=(16, 16))
    init = Classifier(2, 4, hidden=(16, 16), rng=np.random.default_rng(0)).param_vector()
    a = local_train([shard.train], init[None], template, 3, 0.1, shard.train.n, 0.0, [np.random.default_rng(1)])
    b = local_train([shard.train], init[None], template, 3, 0.1, 10 * shard.train.n, 0.0, [np.random.default_rng(2)])
    assert np.array_equal(a[0], b[0])


def test_local_train_divergence_returns_broadcast_params():
    data = build_federated_data(tiny_cfg(), seed=0)
    shard = data.clients[0]
    template = Classifier(2, 4, hidden=(16, 16))
    init = Classifier(2, 4, hidden=(16, 16), rng=np.random.default_rng(0)).param_vector()
    init[0] = np.nan
    params, losses, diverged = local_train([shard.train], init[None], template, 2, 0.1, 8, 0.0, [np.random.default_rng(0)])
    assert diverged == (0,)
    assert np.isnan(losses[0])
    assert np.array_equal(params[0], init, equal_nan=True)
    params[0, 1] = 123.0  # returned copy must not alias the broadcast vector
    assert init[1] != 123.0


def test_rounds_are_deterministic_per_seed():
    rows_a = Simulation(tiny_cfg(variant="disue"), seed=5).run()
    rows_b = Simulation(tiny_cfg(variant="disue"), seed=5).run()
    assert rows_key(rows_a) == rows_key(rows_b)
    assert [r.round_index for r in rows_a] == [0, 1, 2]
    assert all(r.cluster_count >= 1 for r in rows_a)
    assert all(0.0 <= r.global_acc <= 1.0 for r in rows_a)
    assert all(r.wall_ms > 0 for r in rows_a)


def test_worker_count_does_not_change_results():
    rows_serial = Simulation(tiny_cfg(variant="disue", act=1.0), seed=2).run()
    rows_pool = Simulation(tiny_cfg(variant="disue", act=1.0, workers=4), seed=2).run()
    assert rows_key(rows_serial) == rows_key(rows_pool)


def _masked_csv(rows) -> str:
    return strip_wall_ms("\n".join([CSV_HEADER] + [row.csv_row() for row in rows]) + "\n")


def test_worker_count_keeps_each_client_on_its_own_cluster_model():
    # cfl_only sends each member its cluster's model, so once a round forms
    # two or more clusters the clients of the next round start from
    # different parameters
    rows_serial = Simulation(tiny_cfg(variant="cfl_only", act=1.0), seed=0).run()
    rows_pool = Simulation(tiny_cfg(variant="cfl_only", act=1.0, workers=2), seed=0).run()
    assert max(r.cluster_count for r in rows_serial[:-1]) >= 2
    assert _masked_csv(rows_serial) == _masked_csv(rows_pool)


def _with_workers(cfg: SimConfig, workers: int) -> SimConfig:
    return dataclasses.replace(cfg, workers=workers)


def _data_with_an_empty_shard(cfg: SimConfig, seed: int) -> FederatedData:
    """The generated federation, with the train shard of a client active in round 0 but not in round 1 emptied."""
    data = build_federated_data(cfg, seed)
    first = set(sample_active_clients(cfg.clients, cfg.act, 0, seed).tolist())
    second = set(sample_active_clients(cfg.clients, cfg.act, 1, seed).tolist())
    cid = min(first - second)
    empty = Dataset(np.zeros((0, data.feature_dim)), np.zeros(0, dtype=np.int64), data.num_classes)
    data.clients[cid] = dataclasses.replace(data.clients[cid], train=empty)
    return data


@pytest.mark.parametrize("workers", [1, 2])
def test_failed_local_training_rolls_back_alike_at_any_worker_count(workers):
    seed = 0
    cfg = tiny_cfg(variant="fedavg", rounds=2, failure_policy="skip")
    data = _data_with_an_empty_shard(cfg, seed)
    reference = Simulation(cfg, seed, data=data)
    reference_rows = reference.run()
    sim = Simulation(_with_workers(cfg, workers), seed, data=data)
    rows = [sim.run_round(), sim.run_round()]
    assert [(ev.round_index, ev.stage, ev.message) for ev in sim.events] == [
        (ev.round_index, ev.stage, ev.message) for ev in reference.events
    ]
    assert [(ev.round_index, ev.stage) for ev in sim.events] == [(0, "round")]
    assert "empty shard" in sim.events[0].message
    assert _masked_csv(rows) == _masked_csv(reference_rows)
    assert np.isfinite(rows[1].loss_local)  # the round after the failure trained normally

    halting = _with_workers(dataclasses.replace(cfg, failure_policy="halt"), workers)
    with pytest.raises(InvalidInputError):
        Simulation(halting, seed, data=data).run_round()


def test_importing_the_simulator_starts_no_pool_machinery():
    code = (
        "import sys, disue.orchestrator, disue.cli; "
        "print(sorted(m for m in ('concurrent.futures.process', 'concurrent.futures.thread') if m in sys.modules))"
    )
    src = str(Path(disue.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_fedavg_and_skipped_fusion_share_a_trajectory():
    a = Simulation(tiny_cfg(variant="fedavg", rounds=6), seed=3)
    b = Simulation(tiny_cfg(variant="disue_minus_iga", rounds=6), seed=3)
    for _ in range(6):
        a.run_round()
        b.run_round()
        assert np.max(np.abs(a.global_params - b.global_params)) < 1e-9


def test_cfl_only_keeps_inactive_clients_stale():
    cfg = tiny_cfg(variant="cfl_only", rounds=1)
    sim = Simulation(cfg, seed=4)
    initial = {cid: vec.copy() for cid, vec in sim.state.client_feed.items()}
    sim.run_round()
    changed = {cid for cid, vec in sim.state.client_feed.items() if not np.array_equal(vec, initial[cid])}
    actives = set(int(c) for c in sample_active_clients(cfg.clients, cfg.act, 0, 4))
    assert changed <= actives
    assert changed  # someone actually trained
    stale = set(initial) - actives
    for cid in stale:
        assert np.array_equal(sim.state.client_feed[cid], initial[cid])


def test_identical_clients_collapse_to_plain_averaging_bitwise():
    # every client holds the same shard and trains full-batch, so local models
    # are identical, clustering falls back to one cluster, aggregation is a
    # passthrough and the distillation loss sits at its exact zero
    data = identical_client_data(4, per_class=10)
    shared = dict(
        rounds=3, clients=4, act=1.0, local_epochs=2, batch_size=64,
        epsilon=0.5, seeds=[0], hidden_dim=16,
        distill=DistillConfig(noise_dim=8, pseudo_batch=10, inner_iters=2, gen_steps=1, student_steps=1, gen_hidden_dim=16, label_embed_dim=4),
    )
    a = Simulation(SimConfig(variant="disue", **shared), seed=0, data=data)
    b = Simulation(SimConfig(variant="fedavg", **shared), seed=0, data=data)
    for _ in range(3):
        ra = a.run_round()
        rb = b.run_round()
        assert np.array_equal(a.global_params, b.global_params)
        assert ra.cluster_count == 1
        assert ra.loss_cd == 0.0
    assert any(ev.stage == "clustering" for ev in a.events)  # fallback was reported


def test_failure_policy_halt_raises_and_skip_degrades():
    data = identical_client_data(4, per_class=10)
    shared = dict(
        rounds=2, clients=4, act=1.0, local_epochs=1, batch_size=64, epsilon=0.5,
        seeds=[0], hidden_dim=16,
        distill=DistillConfig(noise_dim=8, pseudo_batch=10, inner_iters=1, gen_steps=1, student_steps=1, gen_hidden_dim=16, label_embed_dim=4),
    )
    halt = Simulation(SimConfig(variant="disue", failure_policy="halt", **shared), seed=0, data=data)
    poisoned = np.full_like(halt.global_params, np.nan)
    halt.state = dataclasses.replace(halt.state, global_params=poisoned)
    # every client diverges and reports the nan broadcast back, so the
    # masking layer rejects the round
    with pytest.raises(InvalidInputError):
        halt.run_round()
    assert any(ev.stage == "round" for ev in halt.events)

    skip = Simulation(SimConfig(variant="disue", failure_policy="skip", **shared), seed=0, data=data)
    skip.state = dataclasses.replace(skip.state, global_params=poisoned)
    row = skip.run_round()
    assert row.round_index == 0
    assert skip.state.round_index == 1
    assert any(ev.stage == "round" for ev in skip.events)


def test_rolled_back_round_restores_accumulated_counts(monkeypatch):
    sim = Simulation(tiny_cfg(variant="disue", accumulate_histograms=True, failure_policy="skip"), seed=0)
    sim.run_round()
    before = sim.state.accumulated_counts.copy()
    assert before.any()

    def failing_fusion(*args, **kwargs):
        raise RuntimeError("injected fusion failure")

    # the histogram is accumulated before fusion runs, so the failure lands
    # after the counts have moved
    monkeypatch.setattr("disue.orchestrator.iga_round", failing_fusion)
    sim.run_round()
    assert any("not committed" in ev.message for ev in sim.events)
    assert np.array_equal(sim.state.accumulated_counts, before)


def _record_histograms(monkeypatch) -> list:
    """Collect the label histogram each fusing round passes to compute_gls."""
    seen = []

    def recording(hist):
        seen.append(hist)
        return compute_gls(hist)

    monkeypatch.setattr("disue.orchestrator.compute_gls", recording)
    return seen


def test_histogram_accumulation_flag(monkeypatch):
    # every client is active every round, so accumulated totals double
    accumulated = Simulation(tiny_cfg(accumulate_histograms=True, act=1.0, rounds=2), seed=0)
    seen = _record_histograms(monkeypatch)
    accumulated.run()
    h1, h2 = seen
    assert np.array_equal(h2.class_totals, 2 * h1.class_totals)
    assert np.array_equal(accumulated.state.accumulated_counts, 2 * accumulated.train_label_counts)

    seen.clear()
    plain = Simulation(tiny_cfg(act=1.0, rounds=2), seed=0)
    plain.run()
    p1, p2 = seen
    assert np.array_equal(p1.class_totals, p2.class_totals)
    assert np.array_equal(p1.class_totals, h1.class_totals)
    assert not plain.state.accumulated_counts.any()


def test_generator_reinit_changes_the_path():
    # act 1.0 gives K >= 2 in both rounds; with one teacher the student is already at the KL minimum
    persistent = Simulation(tiny_cfg(variant="disue", rounds=2, act=1.0), seed=6)
    fresh = Simulation(tiny_cfg(variant="disue", rounds=2, act=1.0, distill=DistillConfig(noise_dim=8, pseudo_batch=10, inner_iters=2, gen_steps=2, student_steps=1, gen_hidden_dim=16, label_embed_dim=4, reinit_generator=True)), seed=6)
    persistent.run_round(), fresh.run_round()
    persistent.run_round(), fresh.run_round()
    assert fresh.state.generator_params is None  # each fusing round drew its own
    assert not np.array_equal(persistent.global_params, fresh.global_params)


def test_run_experiment_covers_all_seeds():
    cfg = tiny_cfg(variant="fedavg", seeds=[0, 1])
    result = run_experiment(cfg)
    assert result.variant == "fedavg"
    assert sorted(result.rows_by_seed) == [0, 1]
    assert all(len(rows) == cfg.rounds for rows in result.rows_by_seed.values())
    assert rows_key(result.rows_by_seed[0]) != rows_key(result.rows_by_seed[1])


def test_label_count_table_matches_brute_recount():
    sim = Simulation(tiny_cfg(), seed=2)
    table = sim.train_label_counts
    assert table.shape == (sim.cfg.clients, sim.data.num_classes)
    for shard in sim.data.clients:
        assert np.array_equal(table[shard.client_id], np.bincount(shard.train.labels, minlength=sim.data.num_classes))
    every_train_label = np.concatenate([shard.train.labels for shard in sim.data.clients])
    assert np.array_equal(table.sum(axis=0), np.bincount(every_train_label, minlength=sim.data.num_classes))
    assert table.sum() == every_train_label.size


def test_injected_data_must_list_every_client_by_id():
    cfg = tiny_cfg()
    data = build_federated_data(cfg, seed=0)
    with pytest.raises(InvalidInputError):
        Simulation(cfg, 0, data=dataclasses.replace(data, clients=data.clients[:-1]))
    with pytest.raises(InvalidInputError):
        Simulation(dataclasses.replace(cfg, clients=cfg.clients + 1), 0, data=data)
    swapped = [data.clients[1], data.clients[0], *data.clients[2:]]
    with pytest.raises(InvalidInputError):
        Simulation(cfg, 0, data=dataclasses.replace(data, clients=swapped))
    Simulation(cfg, 0, data=data)


# ---------------------------------------------------------------------------
# a round commits all of its state or none of it


def _copy_state(state):
    return dataclasses.replace(
        state,
        global_params=state.global_params.copy(),
        generator_params=None if state.generator_params is None else state.generator_params.copy(),
        client_feed={cid: vec.copy() for cid, vec in state.client_feed.items()},
        accumulated_counts=state.accumulated_counts.copy(),
    )


def _assert_same_state(got, want):
    assert got.round_index == want.round_index
    assert np.array_equal(got.global_params, want.global_params)
    if want.generator_params is None:
        assert got.generator_params is None
    else:
        assert np.array_equal(got.generator_params, want.generator_params)
    assert got.client_feed.keys() == want.client_feed.keys()
    for cid, vec in want.client_feed.items():
        assert np.array_equal(got.client_feed[cid], vec)
    assert np.array_equal(got.accumulated_counts, want.accumulated_counts)


def _fail_once(original):
    """`original`, except that its first call raises."""
    calls = []

    def wrapped(*args, **kwargs):
        calls.append(None)
        if len(calls) == 1:
            raise RuntimeError("injected failure")
        return original(*args, **kwargs)

    return wrapped


# the orchestrator name each round stage calls, in round order
_STAGES = ("local_train", "build_similarity_matrix", "intra_group_aggregate", "iga_round", "_evaluate")
_FAILING_ROUNDS = [(v, stage) for v in ("disue", "cfl_only") for stage in _STAGES if VARIANT_SPECS[v].fuses or stage != "iga_round"]


@pytest.mark.parametrize("policy", ["halt", "skip"])
@pytest.mark.parametrize("variant, stage", _FAILING_ROUNDS)
def test_a_failed_round_commits_nothing(variant, stage, policy, monkeypatch):
    sim = Simulation(tiny_cfg(variant=variant, act=1.0, accumulate_histograms=True, failure_policy=policy), seed=0)
    sim.run_round()
    entry = sim.state
    snapshot = _copy_state(entry)
    monkeypatch.setattr(f"disue.orchestrator.{stage}", _fail_once(getattr(disue.orchestrator, stage)))
    if policy == "halt":
        with pytest.raises(RuntimeError, match="injected failure"):
            sim.run_round()
        assert sim.state is entry
    else:
        row = sim.run_round()
        assert (row.round_index, row.cluster_count) == (1, 1)
        _assert_same_state(sim.state, dataclasses.replace(snapshot, round_index=2))
    _assert_same_state(entry, snapshot)
    assert [(ev.round_index, ev.stage) for ev in sim.events if ev.stage == "round"] == [(1, "round")]
    assert "not committed: injected failure" in sim.events[-1].message


@pytest.mark.parametrize("variant", VARIANTS)
def test_a_round_writes_into_no_committed_array(variant):
    sim = Simulation(tiny_cfg(variant=variant, act=1.0, accumulate_histograms=True), seed=1)
    for _ in range(sim.cfg.rounds):
        before = sim.state
        want = _copy_state(before)
        sim.run_round()
        assert sim.state is not before
        _assert_same_state(before, want)
    # a generator is kept only where a later round reads it
    assert (sim.state.generator_params is None) == (not VARIANT_SPECS[variant].fuses)


@pytest.mark.parametrize("variant", VARIANTS)
def test_one_active_client_gives_a_one_cluster_row(variant):
    cfg = tiny_cfg(variant=variant, act=0.1)  # ceil(0.1 * 6) = 1
    sim = Simulation(cfg, seed=3)
    for row in sim.run():
        (cid,) = sample_active_clients(cfg.clients, cfg.act, row.round_index, sim.seed).tolist()
        assert row.cluster_count == 1 and len(row.cluster_accs) == 1
        assert np.isnan(row.cluster_accs[0]) == (sim.data.clients[cid].holdout.n == 0)
        assert np.isfinite([row.global_acc, row.loss_local]).all()
        fusion_losses = [row.loss_cd, row.loss_cf, row.loss_div]
        assert (np.isfinite(fusion_losses) if VARIANT_SPECS[variant].fuses else np.isnan(fusion_losses)).all()
    assert sim.events == []


@pytest.mark.parametrize("variant", ["disue", "fedavg", "cfl_only"])
def test_no_holdout_leaves_only_the_cluster_accuracy_undefined(variant):
    cfg = tiny_cfg(variant=variant, dataset=DatasetConfig(samples_per_class=30, holdout_fraction=0.0))
    sim = Simulation(cfg, seed=0)
    assert all(shard.holdout.n == 0 for shard in sim.data.clients)
    for row in sim.run():
        assert row.cluster_accs and np.isnan(row.cluster_accs).all()
        assert np.isnan(row.cluster_acc_mean)
        assert np.isfinite([row.global_acc, row.loss_local]).all()
    assert all(ev.stage == "clustering" for ev in sim.events)  # nothing failed or diverged


def test_diverged_fusion_commits_the_entry_generator_and_the_plain_average(monkeypatch):
    cfg = tiny_cfg(variant="disue", rounds=2)
    plain = Simulation(dataclasses.replace(cfg, variant="disue_minus_iga"), seed=0)
    sim = Simulation(cfg, seed=0)
    entry_generator = sim.state.generator_params.copy()
    results = []

    def recording_iga_round(*args):
        results.append(disue.distill.iga_round(*args))
        return results[-1]

    monkeypatch.setattr("disue.orchestrator.iga_round", recording_iga_round)
    monkeypatch.setattr("disue.distill.loss_cd", lambda *args: nn.Tensor(np.nan))
    for r in range(cfg.rounds):
        sim.run_round()
        plain.run_round()
        # the student step diverges only after the generator has stepped
        assert results[r].diverged
        assert sum(rec.phase == "gen" for rec in results[r].trace) == cfg.distill.gen_steps
        assert np.array_equal(sim.state.generator_params, entry_generator)
        assert np.array_equal(sim.global_params, plain.global_params)
    assert [(ev.round_index, ev.stage) for ev in sim.events if ev.stage == "distill"] == [(0, "distill"), (1, "distill")]


def test_a_nan_model_diverges_fusion_in_the_generator_phase():
    """A nan weight in the committed model reaches fusion unpatched.

    The one active client diverges on it and reports it back, so the lone
    teacher and the student both carry the nan, and the first generator
    objective raises.
    """
    cfg = tiny_cfg(variant="disue", rounds=1, clients=4, act=0.25)
    sims = [Simulation(cfg, seed=0), Simulation(dataclasses.replace(cfg, variant="disue_minus_iga"), seed=0)]
    poisoned = sims[0].global_params.copy()
    poisoned[5] = np.nan
    for sim in sims:
        sim.state = dataclasses.replace(sim.state, global_params=poisoned)
    entry_generator = sims[0].state.generator_params.copy()
    row, plain_row = (sim.run_round() for sim in sims)
    assert [ev.stage for ev in sims[0].events] == ["local_train", "distill"]
    assert np.isnan([row.loss_cd, row.loss_cf, row.loss_div]).all()
    assert sims[0].global_params.tobytes() == sims[1].global_params.tobytes() == poisoned.tobytes()
    assert np.array_equal(sims[0].state.generator_params, entry_generator)
    assert row.global_acc == plain_row.global_acc


@settings(max_examples=15, deadline=None)
@given(
    clients=st.integers(3, 8),
    rounds=st.integers(2, 3),
    variant=st.sampled_from(VARIANTS),
    act=st.sampled_from([0.2, 0.5, 1.0]),
    epsilon=st.sampled_from([0.05, 0.5, 5.0]),
    seed=st.integers(0, 2**16),
)
def test_small_runs_keep_the_round_invariants(clients, rounds, variant, act, epsilon, seed):
    cfg = tiny_cfg(variant=variant, clients=clients, rounds=rounds, act=act, epsilon=epsilon, dataset=DatasetConfig(samples_per_class=12))
    sim = Simulation(cfg, seed)
    partitions = []

    def recording(name):
        original = getattr(disue.orchestrator, name)

        def wrapped(*args):
            partitions.append(original(*args))
            return partitions[-1]

        return mock.patch(f"disue.orchestrator.{name}", wrapped)

    with recording("affinity_propagation"), recording("singleton_partition"):
        rows = sim.run()
    assert len(partitions) == len(rows)  # one partition per round, clustered or not
    for row, partition in zip(rows, partitions):
        actives = sample_active_clients(clients, act, row.round_index, seed)
        assert 1 <= row.cluster_count <= actives.size
        assert sorted(cid for members in partition.members for cid in members) == actives.tolist()
        computed = [row.global_acc, row.loss_local]
        if VARIANT_SPECS[variant].fuses:
            computed += [row.loss_cd, row.loss_cf, row.loss_div]
        if any(sim.data.clients[cid].holdout.n for cid in actives.tolist()):
            computed.append(row.cluster_acc_mean)
        flagged = any(ev.round_index == row.round_index for ev in sim.events)
        assert flagged or np.isfinite(computed).all()
    assert sim.state.round_index == len(rows) == rounds
