"""Engine tests: closed forms first, then gradients against finite differences."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disue import nn
from disue.errors import DivergenceError, InvalidInputError, InvalidStateError
from helpers import max_rel_error, model_gradient, numeric_gradient, ref_kl, tanh, well_separated_classifier

# ---------------------------------------------------------------------------
# closed-form values


def test_softmax_of_log_odds():
    out = nn.softmax(np.array([np.log(1.0), np.log(3.0)]))
    assert np.allclose(out.data, [0.25, 0.75], atol=1e-9)


def test_softmax_rows_sum_to_one_even_for_huge_logits():
    logits = np.array([[1e3, 0.0, -1e3], [5.0, 5.0, 5.0]])
    out = nn.softmax(logits, axis=-1)
    assert np.all(np.isfinite(out.data))
    assert np.allclose(out.data.sum(axis=1), 1.0, atol=1e-12)


def test_kl_point_mass_vs_uniform_is_ln2():
    val = nn.kl_divergence(np.array([1.0, 0.0]), np.array([0.5, 0.5])).item()
    assert abs(val - math.log(2.0)) < 1e-9


def test_kl_half_half_vs_quarter_three_quarter():
    val = nn.kl_divergence(np.array([0.5, 0.5]), np.array([0.25, 0.75])).item()
    expected = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
    assert abs(val - expected) < 1e-9


def test_kl_identical_distributions_is_exactly_zero():
    p = np.array([[0.2, 0.3, 0.5], [1.0, 0.0, 0.0]])
    assert nn.kl_divergence(p, p.copy()).item() == 0.0


def test_cross_entropy_closed_form():
    logits = np.array([[np.log(1.0), np.log(3.0)]])
    val = nn.cross_entropy(logits, np.array([1])).item()
    assert abs(val - (-math.log(0.75))) < 1e-9


def test_cross_entropy_rejects_out_of_range_label():
    with pytest.raises(InvalidInputError):
        nn.cross_entropy(np.zeros((2, 3)), np.array([0, 3]))


def test_sgd_step_worked_example():
    out = nn.sgd_step(np.array([2.0]), np.array([0.5]), lr=0.1, weight_decay=1e-3)
    assert np.allclose(out, [1.9498], atol=1e-12)


def test_sgd_step_rejects_non_finite_gradient():
    with pytest.raises(DivergenceError):
        nn.sgd_step(np.array([1.0]), np.array([np.nan]), lr=0.1)


def test_sgd_step_zero_lr_is_identity():
    params = np.array([0.3, -1.7])
    assert np.array_equal(nn.sgd_step(params, np.array([9.0, -2.0]), lr=0.0), params)


# ---------------------------------------------------------------------------
# models


def test_identity_single_layer_returns_input():
    model = nn.Classifier(3, 3, hidden=())
    model.layers[0].w.data = np.eye(3)
    x = np.array([[0.3, -1.2, 2.0], [1.0, 1.0, 1.0]])
    assert np.array_equal(model.forward(x).data, x)


def test_zero_initialized_classifier_outputs_zero_logits():
    model = nn.Classifier(4, 3)
    out = model.forward(np.random.default_rng(0).standard_normal((5, 4)))
    assert np.array_equal(out.data, np.zeros((5, 3)))


def test_param_vector_round_trip():
    rng = np.random.default_rng(7)
    model = nn.Classifier(3, 4, hidden=(8, 8), rng=rng)
    vec = model.param_vector()
    twin = model.spawn(vec)
    assert np.array_equal(twin.param_vector(), vec)
    assert twin.param_count == model.param_count


def test_load_param_vector_rejects_wrong_length():
    model = nn.Classifier(3, 4)
    with pytest.raises(InvalidInputError):
        model.load_param_vector(np.zeros(model.param_count + 1))


def test_forward_rejects_wrong_width():
    model = nn.Classifier(3, 4)
    with pytest.raises(InvalidInputError):
        model.forward(np.zeros((2, 5)))


def test_generator_output_bounded_by_tanh():
    gen = nn.Generator(noise_dim=6, num_classes=4, sample_dim=2, rng=np.random.default_rng(1))
    out = gen.forward(np.random.default_rng(2).standard_normal((10, 6)), np.arange(10) % 4)
    assert out.data.shape == (10, 2)
    assert np.all(np.abs(out.data) < 1.0)


# ---------------------------------------------------------------------------
# backward semantics


def test_backward_on_detached_scalar_raises():
    with pytest.raises(InvalidStateError):
        nn.backward(nn.Tensor(3.0))


def test_backward_needs_scalar_loss():
    w = nn.Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(InvalidInputError):
        nn.backward(nn.mul(w, 2.0))


def test_disconnected_parameter_gets_zero_gradient():
    used = nn.Tensor(np.array([2.0]), requires_grad=True)
    unused = nn.Tensor(np.array([5.0]), requires_grad=True)
    nn.backward(nn.tsum(nn.mul(used, used)))
    assert np.array_equal(unused.grad, np.zeros(1))
    assert np.allclose(used.grad, [4.0])


def test_repeated_backward_does_not_accumulate():
    w = nn.Tensor(np.array([3.0, -0.5]), requires_grad=True)
    h = tanh(w)  # an interior node with two consumers
    loss = nn.tsum(nn.add(nn.mul(w, w), nn.mul(h, h)))
    nn.backward(loss)
    first_w, first_h = w.grad.copy(), h.grad.copy()
    nn.backward(loss)
    assert np.array_equal(w.grad, first_w)
    assert np.array_equal(h.grad, first_h)


def test_tensor_used_twice_gets_the_summed_gradient():
    x = nn.Tensor(np.array([1.5, -2.0]), requires_grad=True)
    nn.backward(nn.tsum(nn.add(x, x)))
    assert np.array_equal(x.grad, [2.0, 2.0])
    nn.backward(nn.tsum(nn.mul(x, x)))
    assert np.array_equal(x.grad, 2.0 * x.data)


def test_gradient_arriving_as_a_view_is_not_aliased():
    # add's backward hands the upstream gradient itself to both operands and
    # concat's hands out views of it; every node must own its gradient
    a = nn.Tensor(np.ones((2, 2)), requires_grad=True)
    b = nn.Tensor(np.ones((2, 3)), requires_grad=True)
    s = nn.add(a, 0.0)
    joined = nn.concat(s, b, axis=1)
    out = nn.add(joined, 1.0)
    nn.backward(nn.tsum(nn.mul(out, 3.0)))
    grads = [a.grad, b.grad, s.grad, joined.grad, out.grad]
    for i, left in enumerate(grads):
        for right in grads[i + 1 :]:
            assert not np.shares_memory(left, right)
    assert np.array_equal(a.grad, np.full((2, 2), 3.0))
    assert np.array_equal(b.grad, np.full((2, 3), 3.0))
    a.grad += 1.0  # writing one gradient leaves the others alone
    assert np.array_equal(s.grad, np.full((2, 2), 3.0))
    assert np.array_equal(out.grad, np.full((2, 5), 3.0))


def test_no_grad_blocks_recording():
    w = nn.Tensor(np.ones(2), requires_grad=True)
    with nn.no_grad():
        out = nn.mul(w, 3.0)
    assert out._parents == ()
    with pytest.raises(InvalidStateError):
        nn.backward(nn.tsum(out))


# ---------------------------------------------------------------------------
# gradients vs central finite differences


def _gradcheck_model(seed: int, loss_builder) -> float:
    rng = np.random.default_rng(seed)
    model, x = well_separated_classifier(rng, in_dim=3, hidden=(5,), classes=4, batch=3)
    labels = rng.integers(0, 4, size=3)
    vec = model.param_vector()

    def loss_at(v):
        return loss_builder(model.spawn(v), x, labels).item()

    auto = model_gradient(model, lambda m: loss_builder(m, x, labels))
    numeric = numeric_gradient(loss_at, vec)
    return max_rel_error(auto, numeric)


@pytest.mark.parametrize("seed", range(6))
def test_cross_entropy_gradient_matches_finite_differences(seed):
    err = _gradcheck_model(seed, lambda m, x, y: nn.cross_entropy(m.forward(x), y))
    assert err < 1e-4


@pytest.mark.parametrize("seed", range(3))
def test_kl_gradient_matches_finite_differences(seed):
    target = np.abs(np.random.default_rng(seed + 100).standard_normal((3, 4))) + 0.1
    target = target / target.sum(axis=1, keepdims=True)

    def loss(m, x, y):
        return nn.kl_divergence(target, nn.softmax(m.forward(x)))

    assert _gradcheck_model(seed, loss) < 1e-4


def test_tanh_generator_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    gen = nn.Generator(noise_dim=4, num_classes=3, sample_dim=2, embed_dim=3, hidden=(5,), rng=rng)
    noise = rng.standard_normal((4, 4))
    labels = np.array([0, 1, 2, 1])
    vec = gen.param_vector()

    def loss_fn(g):
        out = g.forward(noise, labels)
        return nn.tsum(nn.mul(out, out))

    auto = model_gradient(gen, loss_fn)

    def loss_at(v):
        twin = nn.Generator(4, 3, 2, embed_dim=3, hidden=(5,))
        twin.load_param_vector(v)
        return loss_fn(twin).item()

    assert max_rel_error(auto, numeric_gradient(loss_at, vec)) < 1e-4


def test_pairwise_distances_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    x0 = rng.standard_normal((4, 3))
    zdist = np.abs(rng.standard_normal((4, 4)))

    def value(flat):
        t = nn.Tensor(flat.reshape(4, 3), requires_grad=True)
        return nn.tsum(nn.mul(nn.pairwise_distances(t), zdist)).item()

    t = nn.Tensor(x0, requires_grad=True)
    nn.backward(nn.tsum(nn.mul(nn.pairwise_distances(t), zdist)))
    assert max_rel_error(t.grad.ravel(), numeric_gradient(value, x0.ravel().copy())) < 1e-4


def test_pairwise_distances_zero_rows_give_finite_gradient():
    t = nn.Tensor(np.zeros((3, 2)), requires_grad=True)
    nn.backward(nn.tsum(nn.pairwise_distances(t)))
    assert np.all(np.isfinite(t.grad))


# ---------------------------------------------------------------------------
# properties


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_softmax_rows_always_sum_to_one(seed):
    rng = np.random.default_rng(seed)
    logits = rng.standard_normal((3, 5)) * rng.uniform(0.1, 50.0)
    out = nn.softmax(logits, axis=-1)
    assert np.allclose(out.data.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(out.data >= 0)


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_kl_nonnegative_and_matches_reference(seed):
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(4), size=3)
    q = rng.dirichlet(np.ones(4), size=3)
    val = nn.kl_divergence(p, q).item()
    assert val >= -1e-12
    assert abs(val - ref_kl(p, q)) < 1e-9


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_forward_backward_stay_finite(seed):
    rng = np.random.default_rng(seed)
    model = nn.Classifier(3, 4, hidden=(6, 6), rng=rng)
    x = rng.standard_normal((4, 3)) * 10.0
    loss = nn.cross_entropy(model.forward(x), rng.integers(0, 4, size=4))
    nn.backward(loss)
    assert np.isfinite(loss.item())
    for p in model.parameters():
        assert np.all(np.isfinite(p.grad))


def test_bitwise_determinism_of_training_steps():
    def train_once():
        rng = np.random.default_rng(42)
        model = nn.Classifier(2, 3, hidden=(8,), rng=rng)
        x = rng.standard_normal((6, 2))
        y = rng.integers(0, 3, size=6)
        for _ in range(20):
            nn.backward(nn.cross_entropy(model.forward(x), y))
            model.step(0.1, 1e-3)
        return model.param_vector()

    assert np.array_equal(train_once(), train_once())
