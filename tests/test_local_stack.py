"""Stacked local training against the per-client loop, bit for bit.

`local_train` trains C clients whose shards have one size as one stack.
`reference_local_train` in helpers.py trains one client at a time, step
by step, and is the oracle: every slice's parameters, mean loss and
diverged flag must equal the oracle's for that client alone, also when
another client of the stack diverges.
"""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from disue import nn
from disue.config import DatasetConfig, SimConfig
from disue.data import Dataset
from disue.errors import InvalidInputError
from disue.nn import Classifier
from disue.orchestrator import _TAG_LOCAL, Simulation, local_train, sample_active_clients, stream
from helpers import reference_local_train

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


def _shards(rng: np.random.Generator, clients: int, n: int) -> list[Dataset]:
    return [Dataset(rng.normal(size=(n, IN_DIM)), rng.integers(0, CLASSES, size=n), CLASSES) for _ in range(clients)]


def _rows(rng: np.random.Generator, template: Classifier, clients: int) -> np.ndarray:
    """One distinct initial row per client around a common model."""
    base = Classifier(IN_DIM, CLASSES, template.hidden, rng=rng).param_vector()
    return base + 0.1 * rng.normal(size=(clients, base.size))


def _bits(a) -> tuple:
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


def _check_against_oracle(shards, rows, template, epochs, batch_size, seed, lr=0.1, weight_decay=1e-3):
    """Run the stack and the oracle on the same clients; return the stack's result."""
    rngs = lambda: [np.random.default_rng([seed, c]) for c in range(len(shards))]
    params, losses, diverged = local_train(shards, rows, template, epochs, lr, batch_size, weight_decay, rngs())
    assert params.shape == rows.shape and losses.shape == (len(shards),)
    for c, (shard, rng) in enumerate(zip(shards, rngs())):
        want_params, want_loss, want_diverged = reference_local_train(shard, rows[c], template, epochs, lr, batch_size, weight_decay, rng)
        assert _bits(params[c]) == _bits(want_params), f"client {c}"
        assert _bits(losses[c]) == _bits(want_loss), f"client {c}"
        assert (c in diverged) == want_diverged, f"client {c}"
    return params, losses, diverged


@pytest.mark.parametrize("seed, clients, n, epochs, batch_size, hidden", CASES)
def test_stack_matches_clients_trained_alone(seed, clients, n, epochs, batch_size, hidden):
    rng = np.random.default_rng(seed)
    template = Classifier(IN_DIM, CLASSES, (hidden, hidden))
    shards = _shards(rng, clients, n)
    _, losses, diverged = _check_against_oracle(shards, _rows(rng, template, clients), template, epochs, batch_size, seed)
    assert diverged == () and np.all(np.isfinite(losses))


def test_an_empty_shard_cannot_train():
    template = Classifier(IN_DIM, CLASSES, (8, 8))
    empty = Dataset(np.zeros((0, IN_DIM)), np.zeros(0, dtype=np.int64), CLASSES)
    with pytest.raises(InvalidInputError, match="cannot train on an empty shard"):
        local_train([empty, empty], np.zeros((2, template.param_count)), template, 1, 0.1, 8, 0.0, [None, None])


@pytest.mark.parametrize("rows", [lambda p: np.zeros(p), lambda p: np.zeros((1, p)), lambda p: np.zeros((3, p))])
def test_a_stack_takes_one_initial_row_per_shard(rows):
    template = Classifier(IN_DIM, CLASSES, (8, 8))
    shards = _shards(np.random.default_rng(0), 2, 4)
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


# the poisoned rows overflow on purpose
ignore_overflow_warnings = pytest.mark.filterwarnings("ignore::RuntimeWarning")


@ignore_overflow_warnings
@pytest.mark.parametrize("poison", [_poison_features, _poison_loss, _poison_gradient])
@pytest.mark.parametrize("batch_size", [4, 50])
def test_a_diverged_client_leaves_the_stack(poison, batch_size):
    rng = np.random.default_rng(17)
    template = Classifier(IN_DIM, CLASSES, (16, 16))
    shards = _shards(rng, 6, 10)
    rows = _rows(rng, template, 6)
    poison(shards, rows, template, victim=2)
    poisoned_row = rows[2].copy()
    params, losses, diverged = _check_against_oracle(shards, rows, template, 2, batch_size, seed=5)
    assert diverged == (2,)
    assert np.isnan(losses[2]) and np.all(np.isfinite(np.delete(losses, 2)))
    assert _bits(params[2]) == _bits(poisoned_row)
    assert not np.shares_memory(params, rows)


@ignore_overflow_warnings
def test_the_poisoned_rows_trip_the_check_they_are_named_for():
    template = Classifier(IN_DIM, CLASSES, (16, 16))
    for poison, logits_ok, loss_ok in [(_poison_features, False, False), (_poison_loss, True, False), (_poison_gradient, True, True)]:
        rng = np.random.default_rng(17)
        shards, rows = _shards(rng, 1, 10), _rows(rng, template, 1)
        poison(shards, rows, template, victim=0)
        logits = template.spawn(rows[0]).forward(shards[0].features)
        assert np.all(np.isfinite(logits.data)) == logits_ok
        if logits_ok:
            assert np.isfinite(nn.cross_entropy(logits, shards[0].labels).item()) == loss_ok


@ignore_overflow_warnings
def test_every_client_of_a_stack_can_diverge():
    rng = np.random.default_rng(3)
    template = Classifier(IN_DIM, CLASSES, (8, 8))
    shards = _shards(rng, 3, 5)
    for shard in shards:
        shard.features[0, 1] = np.inf
    rows = _rows(rng, template, 3)
    params, losses, diverged = _check_against_oracle(shards, rows, template, 3, 2, seed=1)
    assert diverged == (0, 1, 2)
    assert np.all(np.isnan(losses))
    assert _bits(params) == _bits(rows)


@ignore_overflow_warnings
def test_a_nan_in_a_cluster_feed_row_diverges_that_client_alone():
    """cfl_only trains each client from its own feed row; events come out in client-id order."""
    cfg = SimConfig(
        variant="cfl_only", rounds=1, clients=24, act=1.0, local_epochs=2, batch_size=4,
        epsilon=0.3, hidden_dim=16, dataset=DatasetConfig(samples_per_class=40),
    )
    sim = Simulation(cfg, seed=4)
    actives = sample_active_clients(cfg.clients, cfg.act, 0, sim.seed)
    sizes = {cid: sim.data.clients[cid].train.n for cid in actives.tolist()}
    groups: dict[int, list[int]] = {}
    for cid, n in sizes.items():
        groups.setdefault(n, []).append(cid)
    # a late member of an early group and an early member of a later group,
    # so the groups run in the other order than the two ids
    early, late = next(
        (g2[0], g1[-1])
        for g1 in groups.values()
        for g2 in groups.values()
        if len(g1) > 1 and len(g2) > 1 and g1[0] < g2[0] < g1[-1]
    )
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
        assert _bits(params_by_client[cid]) == _bits(want[0]), f"client {cid}"
        assert want[2] == (cid in (early, late))
        if not want[2]:
            losses.append(want[1])
    assert _bits(mean_loss) == _bits(float(np.mean(losses)))
    for cid in (early, late):
        assert not np.shares_memory(params_by_client[cid], feed[cid])
