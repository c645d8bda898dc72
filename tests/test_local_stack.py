"""Stacked local training against the per-client loop, bit for bit.

`local_train` trains C clients that take one number of steps per epoch
as one ragged stack: shards of any sizes up to a batch (full batch), or
mini-batch shards whose last batches differ in width.
`reference_local_train` in helpers.py trains one client at a time, step
by step, and is the oracle: every slice's parameters, mean loss and
diverged flag must equal the oracle's for that client alone, also when
another client of the stack diverges.
"""
from __future__ import annotations

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disue import nn, orchestrator
from disue.config import DatasetConfig, SimConfig
from disue.data import Dataset
from disue.errors import DivergenceError, InvalidInputError
from disue.nn import Classifier
from disue.orchestrator import _TAG_LOCAL, ClientShard, FederatedData, Simulation, local_train, sample_active_clients, stream
from helpers import bits, reference_local_train

IN_DIM, CLASSES = 2, 4

# (seed, clients C, shard size n, epochs, batch size, hidden width): batch
# sizes below n give mini-batch stacks with a remainder batch, sizes at or
# above n full batches; 45 steps at n = 120 run the loss mean past numpy's
# 8-way unrolled pairwise sum
CASES = [
    (0, 1, 1, 1, 50, 16),
    (1, 6, 1, 5, 50, 64),
    (2, 3, 2, 2, 1, 16),
    (3, 7, 8, 3, 8, 16),
    (4, 5, 9, 2, 8, 16),
    (5, 12, 16, 1, 50, 64),
    (6, 2, 33, 3, 50, 64),
    (7, 4, 51, 2, 50, 64),
    (8, 40, 3, 3, 2, 16),
    (9, 40, 120, 3, 8, 16),
    (10, 3, 120, 1, 50, 64),
    (11, 25, 17, 2, 120, 16),
]


def _shards(rng: np.random.Generator, sizes: list[int]) -> list[Dataset]:
    return [Dataset(rng.normal(size=(n, IN_DIM)), rng.integers(0, CLASSES, size=n), CLASSES) for n in sizes]


def _rows(rng: np.random.Generator, template: Classifier, clients: int) -> np.ndarray:
    """One distinct initial row per client around a common model."""
    base = Classifier(IN_DIM, CLASSES, template.hidden, rng=rng).param_vector()
    return base + 0.1 * rng.normal(size=(clients, base.size))


def _check_against_oracle(shards, rows, template, epochs, batch_size, seed, lr=0.1, weight_decay=1e-3):
    """Run the stack and the oracle on the same clients; return the stack's result."""
    rngs = lambda: [np.random.default_rng([seed, c]) for c in range(len(shards))]
    params, losses, diverged = local_train(shards, rows, template, epochs, lr, batch_size, weight_decay, rngs())
    assert params.shape == rows.shape and losses.shape == (len(shards),)
    for c, (shard, rng) in enumerate(zip(shards, rngs())):
        want_params, want_loss, want_diverged = reference_local_train(shard, rows[c], template, epochs, lr, batch_size, weight_decay, rng)
        assert bits(params[c]) == bits(want_params), f"client {c}"
        assert bits(losses[c]) == bits(want_loss), f"client {c}"
        assert (c in diverged) == want_diverged, f"client {c}"
    return params, losses, diverged


@pytest.mark.parametrize("seed, clients, n, epochs, batch_size, hidden", CASES)
def test_stack_matches_clients_trained_alone(seed, clients, n, epochs, batch_size, hidden):
    rng = np.random.default_rng(seed)
    template = Classifier(IN_DIM, CLASSES, (hidden, hidden))
    shards = _shards(rng, [n] * clients)
    _, losses, diverged = _check_against_oracle(shards, _rows(rng, template, clients), template, epochs, batch_size, seed)
    assert diverged == () and np.all(np.isfinite(losses))


# (seed, shard sizes, epochs, batch size, hidden width): full-batch stacks
# with sizes repeated and unique, in no order, and mini-batch stacks whose
# clients take equal step counts with last batches of different widths
SIZES_64 = np.random.default_rng(64).integers(1, 51, size=64).tolist()
RAGGED_CASES = [
    (20, [7, 1, 50, 3, 1, 12, 3, 2, 3], 3, 50, 16),
    (21, [2, 1], 1, 2, 64),
    (22, SIZES_64, 2, 50, 16),
    (23, SIZES_64[:40], 1, 64, 64),
    (24, [60, 70, 60, 100, 51], 2, 50, 16),
    (25, [24, 17, 20, 17, 23, 22, 18, 19, 21, 24], 3, 8, 64),
    (26, [120, 101, 111], 1, 50, 16),
]


@pytest.mark.parametrize("init", ["rows", "broadcast"])
@pytest.mark.parametrize("seed, sizes, epochs, batch_size, hidden", RAGGED_CASES)
def test_a_ragged_stack_matches_clients_trained_alone(seed, sizes, epochs, batch_size, hidden, init):
    """Distinct rows are how cfl_only starts its clients, a broadcast view how every other variant does."""
    rng = np.random.default_rng(seed)
    template = Classifier(IN_DIM, CLASSES, (hidden, hidden))
    shards = _shards(rng, sizes)
    rows = _rows(rng, template, len(sizes))
    if init == "broadcast":
        rows = np.broadcast_to(rows[0], rows.shape)
    params, losses, diverged = _check_against_oracle(shards, rows, template, epochs, batch_size, seed)
    assert diverged == () and np.all(np.isfinite(losses))
    assert params.flags.c_contiguous


def test_a_stack_takes_one_number_of_steps_per_epoch():
    template = Classifier(IN_DIM, CLASSES, (8, 8))
    shards = _shards(np.random.default_rng(0), [4, 5])
    with pytest.raises(InvalidInputError, match="one number of steps per epoch"):
        local_train(shards, np.zeros((2, template.param_count)), template, 1, 0.1, 4, 0.0, [None, None])


def test_an_empty_shard_cannot_train():
    template = Classifier(IN_DIM, CLASSES, (8, 8))
    empty = Dataset(np.zeros((0, IN_DIM)), np.zeros(0, dtype=np.int64), CLASSES)
    with pytest.raises(InvalidInputError, match="cannot train on an empty shard"):
        local_train([empty, empty], np.zeros((2, template.param_count)), template, 1, 0.1, 8, 0.0, [None, None])


@pytest.mark.parametrize("rows", [lambda p: np.zeros(p), lambda p: np.zeros((1, p)), lambda p: np.zeros((3, p))])
def test_a_stack_takes_one_initial_row_per_shard(rows):
    template = Classifier(IN_DIM, CLASSES, (8, 8))
    shards = _shards(np.random.default_rng(0), [4, 4])
    with pytest.raises(InvalidInputError, match="one initial row per shard"):
        local_train(shards, rows(template.param_count), template, 1, 0.1, 8, 0.0, [None, None])


# ---------------------------------------------------------------------------
# one diverged client leaves the stack; the others train on


def _poison_features(shards, rows, template, victim):
    shards[victim].features[-1, 0] = np.nan  # a mini-batch client meets it mid-epoch


def _poison_loss(shards, rows, template, victim):
    # finite logits whose log-softmax overflows to -inf at the client's label
    model = template.spawn(rows[victim])
    model.layers[-1].b.data[:2] = [1e308, -1e308]
    rows[victim] = model.param_vector()
    shards[victim].labels[:] = 1


def _poison_gradient(shards, rows, template, victim):
    # finite logits and loss, but the second layer's weight gradient overflows
    model = template.spawn(rows[victim])
    first, second, last = model.layers
    first.w.data = np.abs(first.w.data) * 1e10
    first.b.data = np.abs(first.b.data) + 1.0
    second.w.data = np.abs(second.w.data) * 1e-25
    last.w.data = np.sign(last.w.data) * 1e300
    rows[victim] = model.param_vector()


@pytest.mark.parametrize("poison", [_poison_features, _poison_loss, _poison_gradient])
@pytest.mark.parametrize("batch_size", [4, 50])
def test_a_diverged_client_leaves_the_stack(poison, batch_size):
    rng = np.random.default_rng(17)
    template = Classifier(IN_DIM, CLASSES, (16, 16))
    shards = _shards(rng, [10] * 6)
    rows = _rows(rng, template, 6)
    poison(shards, rows, template, victim=2)
    poisoned_row = rows[2].copy()
    params, losses, diverged = _check_against_oracle(shards, rows, template, 2, batch_size, seed=5)
    assert diverged == (2,)
    assert np.isnan(losses[2]) and np.all(np.isfinite(np.delete(losses, 2)))
    assert bits(params[2]) == bits(poisoned_row)
    assert not np.shares_memory(params, rows)


@pytest.mark.parametrize("poison", [_poison_features, _poison_loss, _poison_gradient])
@pytest.mark.parametrize(
    "sizes, batch_size, victim",
    [
        ([3, 10, 1, 10, 5, 2, 10], 50, 3),  # full batch, a size the victim shares
        ([3, 10, 1, 10, 5, 2, 10], 50, 4),  # full batch, a size of its own
        ([9, 12, 10, 11, 12], 4, 1),  # three mini-batches, last widths 1 to 4
    ],
)
def test_a_diverged_client_leaves_a_ragged_stack(poison, sizes, batch_size, victim):
    rng = np.random.default_rng(29)
    template = Classifier(IN_DIM, CLASSES, (16, 16))
    shards = _shards(rng, sizes)
    rows = _rows(rng, template, len(sizes))
    poison(shards, rows, template, victim=victim)
    poisoned_row = rows[victim].copy()
    params, losses, diverged = _check_against_oracle(shards, rows, template, 2, batch_size, seed=8)
    assert diverged == (victim,)
    assert np.isnan(losses[victim]) and np.all(np.isfinite(np.delete(losses, victim)))
    assert bits(params[victim]) == bits(poisoned_row)


def test_a_diverged_client_of_a_broadcast_stack_returns_contiguous_rows():
    """np.array of a broadcast view is F-ordered; the rows handed back must not be."""
    rng = np.random.default_rng(31)
    template = Classifier(IN_DIM, CLASSES, (16, 16))
    shards = _shards(rng, [4, 2, 4, 7])
    base = _rows(rng, template, 1)
    shards[2].features[0, 0] = np.nan
    init = np.broadcast_to(base[0], (4, base.shape[1]))
    params, _, diverged = _check_against_oracle(shards, init, template, 2, 8, seed=3)
    assert diverged == (2,)
    assert params.flags.c_contiguous
    assert bits(params[2]) == bits(base[0])


@nn.FLOAT_POLICY  # the poisoned rows overflow on purpose, as in a round
def test_the_poisoned_rows_trip_the_check_they_are_named_for():
    template = Classifier(IN_DIM, CLASSES, (16, 16))
    for poison, logits_ok, loss_ok in [(_poison_features, False, False), (_poison_loss, True, False), (_poison_gradient, True, True)]:
        rng = np.random.default_rng(17)
        shards, rows = _shards(rng, [10]), _rows(rng, template, 1)
        poison(shards, rows, template, victim=0)
        logits = template.spawn(rows[0]).forward(shards[0].features)
        assert np.all(np.isfinite(logits.data)) == logits_ok
        if logits_ok:
            assert np.isfinite(nn.cross_entropy(logits, shards[0].labels).item()) == loss_ok


def test_every_client_of_a_stack_can_diverge():
    rng = np.random.default_rng(3)
    template = Classifier(IN_DIM, CLASSES, (8, 8))
    shards = _shards(rng, [5] * 3)
    for shard in shards:
        shard.features[0, 1] = np.inf
    rows = _rows(rng, template, 3)
    params, losses, diverged = _check_against_oracle(shards, rows, template, 3, 2, seed=1)
    assert diverged == (0, 1, 2)
    assert np.all(np.isnan(losses))
    assert bits(params) == bits(rows)


def test_a_nan_in_a_cluster_feed_row_diverges_that_client_alone():
    """cfl_only trains each client from its own feed row; events come out in client-id order."""
    cfg = SimConfig(
        variant="cfl_only", rounds=1, clients=24, act=1.0, local_epochs=2, batch_size=4,
        epsilon=0.3, hidden_dim=16, dataset=DatasetConfig(samples_per_class=40),
    )
    sim = Simulation(cfg, seed=4)
    actives = sample_active_clients(cfg.clients, cfg.act, 0, sim.seed)
    steps = {cid: -(-sim.data.clients[cid].train.n // cfg.batch_size) for cid in actives.tolist()}
    # stacks run in order of step count: an early id that takes more steps
    # than a late one trains after it, and both draw batch orders
    early, late = next((a, b) for a in steps for b in steps if a < b and steps[a] > steps[b] > 1)
    rng = np.random.default_rng(0)
    feed = {cid: row + 0.01 * rng.normal(size=row.size) for cid, row in sim.state.client_feed.items()}
    for cid in (early, late):
        feed[cid] = feed[cid].copy()
        feed[cid][5] = np.nan
    state = dataclasses.replace(sim.state, client_feed=feed)
    params_by_client, mean_loss = sim._train_actives(state, actives)

    assert [ev.message for ev in sim.events] == [
        f"client {cid} diverged; kept broadcast parameters" for cid in sorted((early, late))
    ]
    losses = []
    for cid in actives.tolist():
        want = reference_local_train(
            sim.data.clients[cid].train, feed[cid], sim.template, cfg.local_epochs, cfg.local_lr,
            cfg.batch_size, cfg.weight_decay, stream(sim.seed, _TAG_LOCAL, 0, cid),
        )
        assert bits(params_by_client[cid]) == bits(want[0]), f"client {cid}"
        assert want[2] == (cid in (early, late))
        if not want[2]:
            losses.append(want[1])
    assert bits(mean_loss) == bits(float(np.mean(losses)))
    for cid in (early, late):
        assert not np.shares_memory(params_by_client[cid], feed[cid])


class _Replayed(Exception):
    """A training step called again after a failure that no client's checks explain."""


def test_a_divergence_no_client_explains_re_raises(monkeypatch):
    """Finite logits, losses and gradients give no client to shed, so replaying the step would fail forever."""
    calls = []

    def step(self, lr, weight_decay=0.0):
        calls.append(lr)
        if len(calls) > 3:
            raise _Replayed(f"step called {len(calls)} times")
        raise DivergenceError("non-finite gradient")

    monkeypatch.setattr(nn.Module, "step", step)
    rng = np.random.default_rng(2)
    template = Classifier(IN_DIM, CLASSES, (8, 8))
    with pytest.raises(DivergenceError, match="non-finite gradient"):
        local_train(_shards(rng, [3, 5]), _rows(rng, template, 2), template, 1, 0.1, 8, 0.0, [None, None])
    assert len(calls) == 1


@st.composite
def _federations(draw):
    """Small injected federations: shards of 1-120 samples, some poisoned with a nan feature."""
    sizes = draw(st.lists(st.integers(1, 120), min_size=2, max_size=9))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    shards = _shards(rng, sizes)
    for cid in draw(st.sets(st.integers(0, len(sizes) - 1), max_size=2)):
        shards[cid].features[draw(st.integers(0, sizes[cid] - 1)), 0] = np.nan
    actives = draw(st.lists(st.booleans(), min_size=len(sizes), max_size=len(sizes)).filter(any))
    return seed, shards, np.flatnonzero(actives)


@settings(max_examples=25, deadline=None)
@given(
    federation=_federations(),
    batch_size=st.integers(8, 130),
    epochs=st.integers(1, 3),
    variant=st.sampled_from(["fedavg", "cfl_only"]),
    max_stack=st.sampled_from([2, 3]),
)
def test_a_round_of_stacks_trains_every_client_as_it_would_alone(federation, batch_size, epochs, variant, max_stack):
    """Stacks split at 2 or 3 clients; each active client's row equals the oracle's, and events come in client-id order."""
    seed, shards, actives = federation
    holdout = _shards(np.random.default_rng(seed), [2])[0]
    data = FederatedData([ClientShard(cid, shard, holdout) for cid, shard in enumerate(shards)], holdout)
    cfg = SimConfig(variant=variant, rounds=1, clients=len(shards), local_epochs=epochs, batch_size=batch_size, hidden_dim=8)
    sim = Simulation(cfg, seed, data=data)
    state = sim.state
    if variant == "cfl_only":  # each client trains from its own row
        rng = np.random.default_rng(seed)
        state = dataclasses.replace(state, client_feed={cid: row + 0.01 * rng.normal(size=row.size) for cid, row in state.client_feed.items()})
    with mock.patch.object(orchestrator, "_MAX_STACK", max_stack):
        params_by_client, mean_loss = sim._train_actives(state, actives)

    losses, diverged = [], []
    for cid in actives.tolist():
        init = state.client_feed[cid] if variant == "cfl_only" else state.global_params
        want_params, want_loss, want_diverged = reference_local_train(
            shards[cid], init, sim.template, epochs, cfg.local_lr, batch_size, cfg.weight_decay, stream(seed, _TAG_LOCAL, 0, cid)
        )
        assert bits(params_by_client[cid]) == bits(want_params), f"client {cid}"
        if want_diverged:
            diverged.append(cid)
        else:
            losses.append(want_loss)
    assert sorted(params_by_client) == actives.tolist()
    assert [ev.message for ev in sim.events] == [f"client {cid} diverged; kept broadcast parameters" for cid in diverged]
    assert bits(mean_loss) == bits(float(np.mean(losses)) if losses else float("nan"))
