"""Distillation stage: loss identities, stop-gradients, the alternating loop."""
from __future__ import annotations

import math
from collections import defaultdict

import numpy as np
import pytest

from disue import nn
from disue.aggregation import GlsDistribution, GwfWeights, intra_group_aggregate
from disue.config import SimConfig, validate_config
from disue.data import make_synthetic_dataset
from disue.distill import (
    DistillConfig,
    PseudoBatch,
    _draw_labels_and_noise,
    iga_round,
    loss_cd,
    loss_cf,
    loss_div,
    teacher_softmax,
)
from disue.errors import ConfigError, DivergenceError, InvalidInputError
from disue.nn import Classifier, Generator, Tensor, backward, cross_entropy
from helpers import freeze


def _uniform_gls(c=4):
    return GlsDistribution(probs=np.full(c, 1.0 / c))


def _one_teacher_gwf(c=4):
    return GwfWeights(alpha=np.ones((1, c)))


def _small_models(seed=0, classes=4):
    teacher = Classifier(2, classes, hidden=(16, 16), rng=np.random.default_rng([seed, 1]))
    student = Classifier(2, classes, hidden=(16, 16), rng=np.random.default_rng([seed, 2]))
    gen = Generator(noise_dim=8, num_classes=classes, sample_dim=2, hidden=(16, 16), rng=np.random.default_rng([seed, 3]))
    return teacher, student, gen


def _batch_from(samples, noise, labels):
    return PseudoBatch(noise=noise, labels=labels, samples=Tensor(np.asarray(samples, dtype=np.float64)))


def _cd(teachers, student, batch, gwf):
    return loss_cd(teacher_softmax(nn.stack(teachers), batch.samples.data), student, batch, gwf)


def _cf(teachers, batch, gwf):
    return loss_cf(nn.stack(teachers).forward(batch.samples), batch, gwf)


# ---------------------------------------------------------------------------
# loss closed forms


def test_loss_div_single_sample_is_one():
    batch = _batch_from([[0.5, 0.5]], np.zeros((1, 3)), np.array([0]))
    assert loss_div(batch).item() == 1.0


def test_loss_div_collapsed_samples_is_one():
    batch = _batch_from([[0.3, 0.3]] * 5, np.random.default_rng(0).normal(size=(5, 3)), np.zeros(5, dtype=np.int64))
    assert loss_div(batch).item() == 1.0


def test_loss_div_worked_example():
    # ||x0-x1|| = 5, ||z0-z1|| = 0.4: two ordered pairs of product 2,
    # mean over Q^2 = 4 entries is 1, so the loss is exp(-1)
    batch = _batch_from([[0.0, 0.0], [3.0, 4.0]], np.array([[0.0], [0.4]]), np.array([0, 1]))
    assert abs(loss_div(batch).item() - math.exp(-1.0)) < 1e-9


def test_loss_cf_uniform_teacher_is_log_num_classes():
    teacher = Classifier(2, 4, rng=None)  # zero weights: uniform softmax
    batch = _batch_from(np.random.default_rng(0).normal(size=(6, 2)), np.zeros((6, 3)), np.arange(6) % 4)
    assert abs(_cf([teacher], batch, _one_teacher_gwf()).item() - math.log(4.0)) < 1e-12


def test_loss_cd_single_teacher_equals_plain_kl():
    teacher, student, _ = _small_models()
    x = np.random.default_rng(3).normal(size=(8, 2))
    batch = _batch_from(x, np.zeros((8, 3)), np.arange(8) % 4)
    got = _cd([teacher], student, batch, _one_teacher_gwf()).item()
    with nn.no_grad():
        p = nn.softmax(teacher.forward(x))
        q = nn.softmax(student.forward(x))
        want = nn.kl_divergence(p.data, q).item()
    assert abs(got - want) < 1e-12


def test_loss_cd_is_exactly_zero_at_the_fixed_point():
    teacher, _, _ = _small_models()
    twin = teacher.spawn(teacher.param_vector())
    x = np.random.default_rng(4).normal(size=(5, 2))
    batch = _batch_from(x, np.zeros((5, 3)), np.arange(5) % 4)
    assert _cd([teacher], twin, batch, _one_teacher_gwf()).item() == 0.0


def test_loss_cd_requires_one_weight_row_per_teacher():
    teacher, student, _ = _small_models()
    batch = _batch_from(np.zeros((2, 2)), np.zeros((2, 3)), np.array([0, 1]))
    two_rows = GwfWeights(alpha=np.ones((2, 4)) / 2)
    with pytest.raises(InvalidInputError):
        _cd([teacher], student, batch, two_rows)
    with pytest.raises(InvalidInputError):
        _cf([teacher], batch, two_rows)


def test_loss_cd_routes_by_conditioning_label():
    # teacher 2 has weight 0 everywhere, so its (wild) opinion must not matter
    teacher, student, _ = _small_models()
    wild = Classifier(2, 4, hidden=(16, 16), rng=np.random.default_rng(99))
    x = np.random.default_rng(5).normal(size=(6, 2))
    batch = _batch_from(x, np.zeros((6, 3)), np.arange(6) % 4)
    alpha = np.vstack([np.ones(4), np.zeros(4)])
    both = _cd([teacher, wild], student, batch, GwfWeights(alpha=alpha)).item()
    alone = _cd([teacher], student, batch, _one_teacher_gwf()).item()
    assert abs(both - alone) < 1e-12


# ---------------------------------------------------------------------------
# the per-alternation noise distances are bit-exact


def test_loss_div_with_precomputed_noise_distances_is_bit_identical():
    _, _, gen = _small_models()
    labels = np.arange(10) % 4
    noise = np.random.default_rng(11).normal(size=(10, 8))

    def value_and_grad(*extra):
        batch = PseudoBatch(noise=noise, labels=labels, samples=gen.forward(noise, labels))
        loss = loss_div(batch, *extra)
        backward(loss)
        return loss.item(), np.concatenate([p.grad.ravel() for p in gen.parameters()])

    plain_value, plain_grad = value_and_grad()
    fast_value, fast_grad = value_and_grad(nn.pairwise_distances(noise).data)
    assert fast_value == plain_value
    assert fast_grad.tobytes() == plain_grad.tobytes()


# ---------------------------------------------------------------------------
# gradient routing


def test_loss_cd_pulls_student_only():
    teacher, student, _ = _small_models()
    x = np.random.default_rng(6).normal(size=(6, 2))
    batch = _batch_from(x, np.zeros((6, 3)), np.arange(6) % 4)
    freeze(teacher)
    val = _cd([teacher], student, batch, _one_teacher_gwf())
    backward(val)
    assert any(np.any(p.grad != 0) for p in student.parameters())
    assert all(p.grad is None for p in teacher.parameters())


def test_loss_cf_reaches_the_generator_through_samples():
    teacher, _, gen = _small_models()
    freeze(teacher)
    labels = np.arange(6) % 4
    noise = np.random.default_rng(7).normal(size=(6, 8))
    batch = PseudoBatch(noise=noise, labels=labels, samples=gen.forward(noise, labels))
    backward(_cf([teacher], batch, _one_teacher_gwf()))
    assert any(np.any(p.grad != 0) for p in gen.parameters())
    assert all(p.grad is None for p in teacher.parameters())


def test_student_step_direction_reduces_kl():
    teacher, student, _ = _small_models(seed=1)
    x = np.random.default_rng(8).normal(size=(10, 2))
    batch = _batch_from(x, np.zeros((10, 3)), np.arange(10) % 4)
    gwf = _one_teacher_gwf()
    before = _cd([teacher], student, batch, gwf)
    backward(before)
    student.step(0.05)
    after = _cd([teacher], student, batch, gwf)
    assert after.item() < before.item()


def test_a_nan_teacher_weight_diverges_the_generator_phase():
    teacher, student, gen = _small_models()
    poisoned = Classifier(2, 4, hidden=(16, 16), rng=np.random.default_rng(98))
    poisoned.layers[1].w.data[3, 5] = np.nan
    gwf = GwfWeights(alpha=np.full((2, 4), 0.5))
    cfg = DistillConfig(noise_dim=8, pseudo_batch=10, inner_iters=2, gen_hidden_dim=16)
    gen_before, student_before = gen.param_vector(), student.param_vector()
    res = iga_round([teacher, poisoned], student, gen, _uniform_gls(), gwf, cfg, np.random.default_rng(0))
    assert res.diverged
    assert res.trace == []  # the first generator objective raised: no gen record
    assert np.array_equal(gen.param_vector(), gen_before)
    assert np.array_equal(student.param_vector(), student_before)
    # the stacked teacher forward keeps softmax's non-finite check
    samples = Tensor(np.random.default_rng(1).normal(size=(4, 2)), requires_grad=True)
    with pytest.raises(DivergenceError, match="non-finite logits in softmax"):
        nn.softmax(nn.stack([teacher, poisoned]).forward(samples))


# ---------------------------------------------------------------------------
# pseudo batches


def test_generate_pseudo_batch_shapes_and_rng():
    _, _, gen = _small_models()
    gls = GlsDistribution(probs=np.array([0.5, 0.5, 0.0, 0.0]))
    labels_a, noise_a = _draw_labels_and_noise(gls, 12, gen.noise_dim, np.random.default_rng(5))
    labels_b, noise_b = _draw_labels_and_noise(gls, 12, gen.noise_dim, np.random.default_rng(5))
    a = PseudoBatch(noise_a, labels_a, gen.forward(noise_a, labels_a))
    b = PseudoBatch(noise_b, labels_b, gen.forward(noise_b, labels_b))
    assert a.size == 12
    assert a.noise.shape == (12, 8)
    assert a.samples.data.shape == (12, 2)
    assert np.all(np.abs(a.samples.data) < 1.0)  # tanh range
    assert set(np.unique(a.labels)) <= {0, 1}  # zero-probability classes never drawn
    assert np.array_equal(a.samples.data, b.samples.data)
    assert np.array_equal(a.labels, b.labels)


# ---------------------------------------------------------------------------
# the alternating round


def test_generator_objective_composition_in_trace():
    teacher, student, gen = _small_models()
    cfg = DistillConfig(
        noise_dim=8, pseudo_batch=10, inner_iters=1, gen_steps=1, student_steps=1,
        gen_hidden_dim=16, beta_cf=0.7, beta_div=0.3,
    )
    res = iga_round([teacher], student, gen, _uniform_gls(), _one_teacher_gwf(), cfg, np.random.default_rng(0))
    rec = next(r for r in res.trace if r.phase == "gen")
    want = -rec.loss_cd + 0.7 * rec.loss_cf + 0.3 * rec.loss_div
    assert abs(rec.objective - want) < 1e-12


def test_literal_minimax_flips_the_adversarial_sign():
    teacher, student, gen = _small_models()
    cfg = DistillConfig(
        noise_dim=8, pseudo_batch=10, inner_iters=1, gen_steps=1, student_steps=1,
        gen_hidden_dim=16, beta_cf=0.7, beta_div=0.3, literal_minimax=True,
    )
    res = iga_round([teacher], student, gen, _uniform_gls(), _one_teacher_gwf(), cfg, np.random.default_rng(0))
    rec = next(r for r in res.trace if r.phase == "gen")
    want = rec.loss_cd + 0.7 * rec.loss_cf + 0.3 * rec.loss_div
    assert abs(rec.objective - want) < 1e-12


def test_teachers_never_move():
    teacher, student, gen = _small_models()
    frozen = teacher.param_vector()
    cfg = DistillConfig(noise_dim=8, pseudo_batch=10, inner_iters=3, gen_hidden_dim=16)
    iga_round([teacher], student, gen, _uniform_gls(), _one_teacher_gwf(), cfg, np.random.default_rng(1))
    assert np.array_equal(teacher.param_vector(), frozen)


def test_student_identical_to_teacher_is_a_bitwise_fixed_point():
    teacher, _, gen = _small_models()
    student = teacher.spawn(teacher.param_vector())
    snapshot = student.param_vector()
    gen_before = gen.param_vector()
    cfg = DistillConfig(noise_dim=8, pseudo_batch=10, inner_iters=3, gen_hidden_dim=16)
    res = iga_round([teacher], student, gen, _uniform_gls(), _one_teacher_gwf(), cfg, np.random.default_rng(2))
    assert not res.diverged
    assert np.array_equal(student.param_vector(), snapshot)  # never stepped
    assert not np.array_equal(gen.param_vector(), gen_before)  # generator still trains
    assert all(r.loss_cd == 0.0 for r in res.trace if r.phase == "student")


def test_trace_bookkeeping_and_mean_losses():
    teacher, student, gen = _small_models()
    cfg = DistillConfig(noise_dim=8, pseudo_batch=10, inner_iters=2, gen_steps=3, student_steps=2, gen_hidden_dim=16)
    res = iga_round([teacher], student, gen, _uniform_gls(), _one_teacher_gwf(), cfg, np.random.default_rng(4))
    gen_recs = [r for r in res.trace if r.phase == "gen"]
    stu_recs = [r for r in res.trace if r.phase == "student"]
    assert len(gen_recs) == 2 * 3 and len(stu_recs) == 2 * 2
    cd, cf, dv = res.mean_losses()
    assert abs(cd - np.mean([r.loss_cd for r in stu_recs])) < 1e-12
    assert abs(cf - np.mean([r.loss_cf for r in gen_recs])) < 1e-12
    assert abs(dv - np.mean([r.loss_div for r in gen_recs])) < 1e-12


def test_config_validation():
    with pytest.raises(ConfigError, match="'distill.inner_iters'"):
        validate_config(SimConfig(distill=DistillConfig(inner_iters=0)))
    with pytest.raises(ConfigError, match="'distill.beta_cf'"):
        validate_config(SimConfig(distill=DistillConfig(beta_cf=-0.1)))
    with pytest.raises(ConfigError, match="'distill.student_lr'"):
        validate_config(SimConfig(distill=DistillConfig(student_lr=0.0)))
    with pytest.raises(InvalidInputError):
        iga_round([], Classifier(2, 4), Generator(8, 4, 2), _uniform_gls(), _one_teacher_gwf(), DistillConfig(), np.random.default_rng(0))


# ---------------------------------------------------------------------------
# the mechanism, end to end: two class-experts fused over consecutive rounds


def _train(model, X, y, epochs, lr, rng):
    n = X.shape[0]
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, 50):
            idx = order[start : start + 50]
            backward(cross_entropy(model.forward(X[idx]), y[idx]))
            model.step(lr)


def _truthfulness(gen, teachers, gwf, gls, count=400):
    """How often the weighted teacher mixture classifies a synthesized sample
    as the label it was conditioned on."""
    with nn.no_grad():
        labels, noise = _draw_labels_and_noise(gls, count, gen.noise_dim, np.random.default_rng(12345))
        samples = gen.forward(noise, labels)
        probs = [nn.softmax(t.forward(samples)).data for t in teachers]
        w = gwf.alpha[:, labels]
        mix = sum(w[k][:, None] * probs[k] for k in range(len(teachers)))
        return float(np.mean(np.argmax(mix, axis=1) == labels))


def test_two_expert_fusion_mechanism():
    """A persistent generator must learn to satisfy the conditioning labels,
    and the student must descend the distillation loss within inner
    iterations, across a federated-style loop with two class experts."""
    total_upticks = total_transitions = 0
    for seed in range(3):
        ds = make_synthetic_dataset(4, 200, 2, seed=seed)
        expert_a = ds.labels < 2
        init = Classifier(2, 4, hidden=(32, 32), rng=np.random.default_rng([seed, 0]))
        glob = init.param_vector().copy()
        gen = Generator(noise_dim=20, num_classes=4, sample_dim=2, hidden=(32, 32), rng=np.random.default_rng([seed, 3]))
        gls = _uniform_gls()
        gwf = GwfWeights(alpha=np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]]))
        cfg = DistillConfig(noise_dim=20, gen_hidden_dim=32)
        first_truth = None
        for rnd in range(6):
            t_a = init.spawn(glob.copy())
            t_b = init.spawn(glob.copy())
            _train(t_a, ds.features[expert_a], ds.labels[expert_a], 5, 0.1, np.random.default_rng([seed, rnd, 1]))
            _train(t_b, ds.features[~expert_a], ds.labels[~expert_a], 5, 0.1, np.random.default_rng([seed, rnd, 2]))
            avg = intra_group_aggregate(
                [(t_a.param_vector(), int(expert_a.sum())), (t_b.param_vector(), int((~expert_a).sum()))]
            )
            student = init.spawn(avg)
            if rnd == 0:
                first_truth = _truthfulness(gen, [t_a, t_b], gwf, gls)
            res = iga_round([t_a, t_b], student, gen, gls, gwf, cfg, np.random.default_rng([seed, rnd, 9]))
            assert not res.diverged
            per_iter = defaultdict(list)
            for rec in res.trace:
                if rec.phase == "student":
                    per_iter[rec.inner_iter].append(rec.loss_cd)
            for seq in per_iter.values():
                for a, b in zip(seq, seq[1:]):
                    total_transitions += 1
                    total_upticks += b > a + 1e-12
            glob = student.param_vector()
        final_truth = _truthfulness(gen, [t_a, t_b], gwf, gls)
        # the generator starts guessing and ends class-faithful
        assert first_truth < 0.7
        assert final_truth >= 0.9
    # the student phase descends its loss within an inner iteration
    assert total_upticks <= 0.15 * total_transitions
