"""Fused tape nodes against the unfused chains they replace, bit for bit.

Each test builds one computation twice, once from the engine's fused nodes
and once from the one-op-per-node oracles in helpers.py, runs backward on
the same scalar and compares the bytes of every value and gradient.
"""
from __future__ import annotations

import numpy as np
import pytest

from disue import nn
from disue.aggregation import GwfWeights
from disue.config import DistillConfig
from disue.distill import PseudoBatch, _generator_objective, loss_cf
from disue.errors import DivergenceError
from helpers import (
    add,
    bits,
    branch,
    broadcast_pairwise_distances,
    freeze,
    label_batch,
    unfused_cross_entropy,
    unfused_generator_objective,
    unfused_stacked_log_likelihood,
    unfused_trunk,
    unfused_weighted_kl,
)

# teacher counts on both sides of numpy's 8-way unrolled pairwise sum: a sum
# over the teacher axis would move bits from K = 8 on
TEACHER_COUNTS = [1, 2, 3, 4, 8, 9]


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
    return [None if p.grad is None else bits(p.grad) for p in model.parameters()]


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
    assert bits(fused.data) == bits(plain.data)
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
    assert bits(fused.data) == bits(plain.data)
    assert bits(x.grad) == bits(x_plain.grad)
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
    assert bits(fused.data) == bits(plain.data)
    assert _grads(gen) == _grads(twin)


@pytest.mark.parametrize("k", TEACHER_COUNTS)
def test_stacked_teachers_read_by_two_branches(k):
    """The generator step's shape: one stacked forward, read by a weighted KL and by loss_cf's log-likelihood branch."""
    rng = np.random.default_rng(10 + k)
    teachers = [freeze(_classifier(20 + i)) for i in range(k)]
    data = rng.standard_normal((9, 3))
    labels = rng.integers(0, 4, size=9)
    student_probs = _probability_rows(rng, (9, 4))
    kl_w, gwf = _weights_like((k, 9), rng), GwfWeights(alpha=_weights_like((k, 4), rng))

    x = nn.Tensor(data, requires_grad=True)
    logits = nn.stack(teachers).forward(x)
    kl = nn.weighted_kl(nn.softmax(logits), student_probs, kl_w)
    cf = loss_cf(branch(logits), label_batch(labels), gwf)
    nn.backward(add(nn.mul(kl, -0.5), nn.mul(cf, -0.25)))

    # the unfused tape runs every teacher twice, once per term
    x_plain = nn.Tensor(data, requires_grad=True)
    plain_probs = [nn.softmax(unfused_trunk(x_plain, t.layers)) for t in teachers]
    plain_logits = [unfused_trunk(x_plain, t.layers) for t in teachers]
    plain_kl = unfused_weighted_kl(plain_probs, student_probs, kl_w)
    plain_cf = nn.mul(unfused_stacked_log_likelihood(plain_logits, labels, gwf.alpha[:, labels]), -1.0 / 9)
    nn.backward(add(nn.mul(plain_kl, -0.5), nn.mul(plain_cf, -0.25)))

    for i in range(k):
        assert bits(logits.data[i]) == bits(plain_logits[i].data)
    assert bits(kl.data) == bits(plain_kl.data)
    assert bits(cf.data) == bits(plain_cf.data)
    assert bits(x.grad) == bits(x_plain.grad)
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
        return bits(out.data), bits((tp if live == "p" else tq).grad)

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

    assert bits(fused.data) == bits(plain.data)
    if live == "teacher":
        assert [bits(g) for g in p_stack.grad] == [bits(p.grad) for p in p_plain]
    else:
        assert bits(q_live.grad) == bits(q_plain.grad)


@pytest.mark.parametrize("k", TEACHER_COUNTS)
def test_stacked_log_likelihood_matches_the_per_teacher_chain(k):
    """loss_cf: the K teachers' weighted label log-likelihoods, added in order, times -1/Q."""
    rng = np.random.default_rng(40 + k)
    data = rng.standard_normal((k, 20, 5)) * 3.0
    labels = rng.integers(0, 5, size=20)
    gwf = GwfWeights(alpha=_weights_like((k, 5), rng))

    logits = nn.Tensor(data, requires_grad=True)
    fused = loss_cf(logits, label_batch(labels), gwf)
    nn.backward(fused)

    plain_logits = [nn.Tensor(z, requires_grad=True) for z in data]
    plain = nn.mul(unfused_stacked_log_likelihood(plain_logits, labels, gwf.alpha[:, labels]), -1.0 / 20)
    nn.backward(plain)

    assert bits(fused.data) == bits(plain.data)
    assert [bits(g) for g in logits.grad] == [bits(z.grad) for z in plain_logits]


def test_cross_entropy():
    rng = np.random.default_rng(4)
    data = rng.standard_normal((8, 5)) * 3.0
    labels = rng.integers(0, 5, size=8)

    def run(cross_entropy):
        logits = nn.Tensor(data, requires_grad=True)
        loss = cross_entropy(logits, labels)
        nn.backward(loss)
        return bits(loss.data), bits(logits.grad)

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
        nn.backward(add(_drive(trunk(x), w), _drive(nn.mul(x, x), v)))
        return bits(base.grad), bits(x.grad)

    assert run(model.forward) == run(lambda x: unfused_trunk(x, twin.layers))
    assert _grads(model) == _grads(twin)


# runs of equal width, adjacent and apart; widths 9 and 12 run the
# loss sum past numpy's 8-way unrolled pairwise sum
SEGMENT_WIDTHS = [[5], [1, 1, 1], [1, 1, 2, 3, 3, 9], [12, 2, 2, 1, 12]]


@pytest.mark.parametrize("widths", SEGMENT_WIDTHS)
def test_a_segmented_trunk_and_loss_match_each_client_alone(widths):
    """Client c's rows through slice c of a stack give its values and gradients bit for bit."""
    rng = np.random.default_rng(len(widths))
    models = [_classifier(seed) for seed in range(len(widths))]
    stack = models[0].spawn(np.stack([m.param_vector() for m in models]))
    segments = nn.Segments(np.array(widths))
    x = nn.Tensor(rng.standard_normal((sum(widths), 3)), requires_grad=True)
    labels = rng.integers(0, 4, size=sum(widths))
    loss = nn.cross_entropy(stack.forward(x, segments), labels, segments)
    nn.backward(nn.tsum(loss))

    start = 0
    for c, (model, width) in enumerate(zip(models, widths)):
        rows = slice(start, start + width)
        x_c = nn.Tensor(x.data[rows], requires_grad=True)
        loss_c = nn.cross_entropy(model.forward(x_c), labels[rows])
        nn.backward(loss_c)
        assert bits(loss.data[c]) == bits(loss_c.data)
        assert [bits(p.grad[c].reshape(q.grad.shape)) for p, q in zip(stack.parameters(), model.parameters())] == _grads(model)
        assert bits(x.grad[rows]) == bits(x_c.grad)
        start += width


def _objective_setup(k: int, q: int, seed: int, equal_pair: bool = False):
    """K frozen teachers stacked, a student, a generator, a pseudo batch's noise and labels, and GWF weights."""
    rng = np.random.default_rng(seed)
    stacked = nn.stack([nn.Classifier(2, 4, hidden=(6, 5), rng=np.random.default_rng([seed, i])) for i in range(k)])
    student = nn.Classifier(2, 4, hidden=(6, 5), rng=np.random.default_rng([seed, k]))
    gen = nn.Generator(noise_dim=7, num_classes=4, sample_dim=2, embed_dim=3, hidden=(8, 6), rng=rng)
    noise = rng.standard_normal((q, 7))
    labels = rng.integers(0, 4, size=q)
    if equal_pair:  # two equal samples: a zero distance in both the noise and the samples
        noise[1], labels[1] = noise[0], labels[0]
    alpha = rng.random((k, 4))
    alpha[rng.random((k, 4)) < 0.25] = 0.0  # a teacher without a class gets no share of its samples
    return stacked, student, gen, noise, labels, GwfWeights(alpha=alpha)


def _run_objective(objective_fn, setup, cfg, zdist):
    stacked, student, gen, noise, labels, gwf = setup
    twin = nn.Generator(7, 4, 2, embed_dim=3, hidden=(8, 6))
    twin.load_param_vector(gen.param_vector())
    batch = PseudoBatch(noise, labels, twin.forward(noise, labels))
    objective, *parts = objective_fn(stacked, student, batch, gwf, cfg, zdist)
    nn.backward(objective)
    values = [bits(objective.data)] + [bits(np.float64(v)) for v in parts]
    return values, bits(batch.samples.grad), _grads(twin)


# (teachers, batch size, literal_minimax, beta_cf, beta_div, two equal samples)
OBJECTIVE_CASES = (
    [(k, 9, literal, 1.0, 1.0, False) for k in TEACHER_COUNTS for literal in (False, True)]
    + [(3, 9, False, 0.0, 1.0, False), (3, 9, True, 0.7, 0.0, False), (2, 9, False, 0.0, 0.0, False)]
    + [(1, 1, False, 1.0, 1.0, False), (4, 1, True, 0.5, 2.0, False), (3, 6, False, 1.0, 1.0, True)]
)


@pytest.mark.parametrize("k, q, literal, beta_cf, beta_div, equal_pair", OBJECTIVE_CASES)
def test_generator_objective_matches_the_chain_it_replaces(k, q, literal, beta_cf, beta_div, equal_pair):
    """One node against the chain with a branched teacher forward: values, the samples' gradient, generator gradients."""
    setup = _objective_setup(k, q, seed=60 + k + q, equal_pair=equal_pair)
    cfg = DistillConfig(beta_cf=beta_cf, beta_div=beta_div, literal_minimax=literal)
    noise = setup[3]
    fused = _run_objective(_generator_objective, setup, cfg, nn.distances(noise))
    plain = _run_objective(unfused_generator_objective, setup, cfg, broadcast_pairwise_distances(noise).data)
    assert fused == plain


def test_generator_objective_is_one_node_on_the_samples():
    stacked, student, gen, noise, labels, gwf = _objective_setup(3, 9, seed=70)
    batch = PseudoBatch(noise, labels, gen.forward(noise, labels))
    objective, *_ = _generator_objective(stacked, student, batch, gwf, DistillConfig(), nn.distances(noise))
    assert objective._parents == (batch.samples,)


def test_generator_objective_backward_leaves_student_and_teachers_without_gradient():
    stacked, student, gen, noise, labels, gwf = _objective_setup(3, 9, seed=72)
    batch = PseudoBatch(noise, labels, gen.forward(noise, labels))
    objective, *_ = _generator_objective(stacked, student, batch, gwf, DistillConfig(), nn.distances(noise))
    nn.backward(objective)
    assert all(p.grad is None for p in (*student.parameters(), *stacked.parameters()))
    assert all(p.grad is not None for p in gen.parameters())


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_teacher_logit_still_diverges(bad):
    stacked, student, gen, noise, labels, gwf = _objective_setup(3, 9, seed=71)
    stacked.layers[-1].b.data[1, 0, 2] = bad  # teacher 1's logits of class 2
    batch = PseudoBatch(noise, labels, gen.forward(noise, labels))
    with pytest.raises(DivergenceError):
        _generator_objective(stacked, student, batch, gwf, DistillConfig(), nn.distances(noise))
