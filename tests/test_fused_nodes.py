"""Fused tape nodes against the unfused chains they replace, bit for bit.

Each test builds one computation twice, once from the engine's fused nodes
and once from the one-op-per-node oracles in helpers.py, runs backward on
the same scalar and compares the bytes of every value and gradient.
"""
from __future__ import annotations

import numpy as np
import pytest

from disue import nn
from helpers import (
    freeze,
    unfused_cross_entropy,
    unfused_stacked_log_likelihood,
    unfused_trunk,
    unfused_weighted_kl,
)

# teacher counts on both sides of numpy's 8-way unrolled pairwise sum: a sum
# over the teacher axis would move bits from K = 8 on
TEACHER_COUNTS = [1, 2, 3, 4, 8, 9]


def _bits(a) -> tuple:
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


def _weights_like(shape, rng) -> np.ndarray:
    """Mixed-sign multipliers with a few exact zeros, so some gradients are 0."""
    w = rng.standard_normal(shape)
    w[rng.random(shape) < 0.2] = 0.0
    return w


def _drive(out: nn.Tensor, w: np.ndarray) -> nn.Tensor:
    return nn.tsum(nn.mul(out, w))


def _classifier(seed: int) -> nn.Classifier:
    return nn.Classifier(3, 4, hidden=(6, 5), rng=np.random.default_rng(seed))


def _twin(model: nn.Classifier) -> nn.Classifier:
    return model.spawn(model.param_vector())


def _grads(model: nn.Module) -> list:
    return [None if p.grad is None else _bits(p.grad) for p in model.parameters()]


def test_classifier_trunk_with_a_constant_input():
    rng = np.random.default_rng(0)
    model = _classifier(1)
    twin = _twin(model)
    x = rng.standard_normal((7, 3))
    x[0] = 0.0  # a row that leaves every first-layer unit at its bias
    w = _weights_like((7, 4), rng)
    fused, plain = model.forward(x), unfused_trunk(x, twin.layers)
    nn.backward(_drive(fused, w))
    nn.backward(_drive(plain, w))
    assert _bits(fused.data) == _bits(plain.data)
    assert _grads(model) == _grads(twin)


def test_classifier_trunk_with_a_live_input_and_frozen_weights():
    rng = np.random.default_rng(1)
    model = freeze(_classifier(2))
    twin = freeze(_twin(model))
    data = rng.standard_normal((6, 3))
    x, x_plain = nn.Tensor(data, requires_grad=True), nn.Tensor(data, requires_grad=True)
    w = _weights_like((6, 4), rng)
    fused, plain = model.forward(x), unfused_trunk(x_plain, twin.layers)
    nn.backward(_drive(fused, w))
    nn.backward(_drive(plain, w))
    assert _bits(fused.data) == _bits(plain.data)
    assert _bits(x.grad) == _bits(x_plain.grad)
    assert all(p.grad is None for p in model.parameters())


def test_generator_trunk_with_tanh():
    rng = np.random.default_rng(2)
    gen = nn.Generator(noise_dim=5, num_classes=4, sample_dim=3, embed_dim=3, hidden=(7, 6), rng=rng)
    twin = nn.Generator(5, 4, 3, embed_dim=3, hidden=(7, 6))
    twin.load_param_vector(gen.param_vector())
    noise = rng.standard_normal((8, 5))
    labels = rng.integers(0, 4, size=8)
    w = _weights_like((8, 3), rng)
    fused = gen.forward(noise, labels)
    plain = unfused_trunk(nn.concat(noise, nn.embedding_rows(twin.embed, labels)), twin.layers, tanh_out=True)
    nn.backward(_drive(fused, w))
    nn.backward(_drive(plain, w))
    assert _bits(fused.data) == _bits(plain.data)
    assert _grads(gen) == _grads(twin)


@pytest.mark.parametrize("k", TEACHER_COUNTS)
def test_stacked_teachers_read_by_two_branches(k):
    """The generator step's shape: one stacked forward, read by a weighted KL and by a log-likelihood branch."""
    rng = np.random.default_rng(10 + k)
    teachers = [freeze(_classifier(20 + i)) for i in range(k)]
    data = rng.standard_normal((9, 3))
    labels = rng.integers(0, 4, size=9)
    student_probs = _probability_rows(rng, (9, 4))
    kl_w, label_w = _weights_like((k, 9), rng), _weights_like((k, 9), rng)

    x = nn.Tensor(data, requires_grad=True)
    logits = nn.stack(teachers).forward(x)
    kl = nn.weighted_kl(nn.softmax(logits), student_probs, kl_w)
    ll = nn.log_likelihood(nn.branch(logits), labels, label_w)
    nn.backward(nn.add(nn.mul(kl, -0.5), nn.mul(ll, -0.25)))

    # the unfused tape runs every teacher twice, once per term
    x_plain = nn.Tensor(data, requires_grad=True)
    plain_probs = [nn.softmax(unfused_trunk(x_plain, t.layers)) for t in teachers]
    plain_logits = [unfused_trunk(x_plain, t.layers) for t in teachers]
    plain_kl = unfused_weighted_kl(plain_probs, student_probs, kl_w)
    plain_ll = unfused_stacked_log_likelihood(plain_logits, labels, label_w)
    nn.backward(nn.add(nn.mul(plain_kl, -0.5), nn.mul(plain_ll, -0.25)))

    for i in range(k):
        assert _bits(logits.data[i]) == _bits(plain_logits[i].data)
    assert _bits(kl.data) == _bits(plain_kl.data)
    assert _bits(ll.data) == _bits(plain_ll.data)
    assert _bits(x.grad) == _bits(x_plain.grad)
    assert all(p.grad is None for t in teachers for p in t.parameters())


def _probability_rows(rng, shape) -> np.ndarray:
    p = rng.dirichlet(np.ones(shape[-1]), size=shape[0])
    p[0, 0] = 0.0  # a zero entry: clamped, contributes exactly 0
    p[1, :] = np.eye(shape[-1])[1]  # a point mass
    return p


@pytest.mark.parametrize("live", ["p", "q"])
def test_weighted_kl_without_a_teacher_axis(live):
    """p with q's shape, as kl_divergence passes it: one teacher, no teacher axis."""
    rng = np.random.default_rng(3)
    p, q = _probability_rows(rng, (6, 4)), _probability_rows(rng, (6, 4))
    w = _weights_like(6, rng)

    def run(weighted_kl):
        tp = nn.Tensor(p, requires_grad=live == "p")
        tq = nn.Tensor(q, requires_grad=live == "q")
        out = weighted_kl(tp, tq, w)
        nn.backward(nn.mul(out, -0.3))
        return _bits(out.data), _bits((tp if live == "p" else tq).grad)

    assert run(nn.weighted_kl) == run(lambda tp, tq, w: unfused_weighted_kl([tp], tq, [w]))


@pytest.mark.parametrize("live", ["teacher", "student"])
@pytest.mark.parametrize("k", TEACHER_COUNTS)
def test_stacked_weighted_kl_matches_the_per_teacher_chain(k, live):
    rng = np.random.default_rng(30 + k)
    ps = [_probability_rows(rng, (20, 4)) for _ in range(k)]
    q = _probability_rows(rng, (20, 4))
    w = _weights_like((k, 20), rng)

    p_stack = nn.Tensor(np.stack(ps), requires_grad=live == "teacher")
    q_live = nn.Tensor(q, requires_grad=live == "student")
    fused = nn.weighted_kl(p_stack, q_live, w)
    nn.backward(nn.mul(fused, -0.3))

    p_plain = [nn.Tensor(p, requires_grad=live == "teacher") for p in ps]
    q_plain = nn.Tensor(q, requires_grad=live == "student")
    plain = unfused_weighted_kl(p_plain, q_plain, w)
    nn.backward(nn.mul(plain, -0.3))

    assert _bits(fused.data) == _bits(plain.data)
    if live == "teacher":
        assert [_bits(g) for g in p_stack.grad] == [_bits(p.grad) for p in p_plain]
    else:
        assert _bits(q_live.grad) == _bits(q_plain.grad)


@pytest.mark.parametrize("k", TEACHER_COUNTS)
def test_stacked_log_likelihood_matches_the_per_teacher_chain(k):
    rng = np.random.default_rng(40 + k)
    data = rng.standard_normal((k, 20, 5)) * 3.0
    labels = rng.integers(0, 5, size=20)
    w = _weights_like((k, 20), rng)

    logits = nn.Tensor(data, requires_grad=True)
    fused = nn.log_likelihood(logits, labels, w)
    nn.backward(nn.mul(fused, -0.05))

    plain_logits = [nn.Tensor(z, requires_grad=True) for z in data]
    plain = unfused_stacked_log_likelihood(plain_logits, labels, w)
    nn.backward(nn.mul(plain, -0.05))

    assert _bits(fused.data) == _bits(plain.data)
    assert [_bits(g) for g in logits.grad] == [_bits(z.grad) for z in plain_logits]


def test_cross_entropy():
    rng = np.random.default_rng(4)
    data = rng.standard_normal((8, 5)) * 3.0
    labels = rng.integers(0, 5, size=8)

    def run(cross_entropy):
        logits = nn.Tensor(data, requires_grad=True)
        loss = cross_entropy(logits, labels)
        nn.backward(loss)
        return _bits(loss.data), _bits(logits.grad)

    assert run(nn.cross_entropy) == run(unfused_cross_entropy)


def test_a_second_consumer_of_the_trunk_input():
    """The trunk's input also feeds another node, so the order of the two contributions shows."""
    rng = np.random.default_rng(5)
    model = _classifier(6)
    twin = _twin(model)
    data = rng.standard_normal((5, 3))
    w, v = _weights_like((5, 4), rng), _weights_like((5, 3), rng)

    def run(trunk):
        base = nn.Tensor(data, requires_grad=True)
        x = nn.mul(base, 1.5)
        nn.backward(nn.add(_drive(trunk(x), w), _drive(nn.mul(x, x), v)))
        return _bits(base.grad), _bits(x.grad)

    assert run(model.forward) == run(lambda x: unfused_trunk(x, twin.layers))
    assert _grads(model) == _grads(twin)
