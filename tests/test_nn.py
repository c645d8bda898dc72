"""Engine tests: closed forms first, then gradients against finite differences."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disue import nn
from disue.errors import DivergenceError, InvalidInputError, InvalidStateError
from helpers import (
    add,
    broadcast_pairwise_distances,
    max_rel_error,
    model_gradient,
    numeric_gradient,
    ref_kl,
    tanh,
    well_separated_classifier,
)

# ---------------------------------------------------------------------------
# closed-form values


def test_softmax_of_log_odds():
    out = nn.softmax(np.array([np.log(1.0), np.log(3.0)]))
    assert np.allclose(out.data, [0.25, 0.75], atol=1e-9)


def test_softmax_rows_sum_to_one_even_for_huge_logits():
    logits = np.array([[1e3, 0.0, -1e3], [5.0, 5.0, 5.0]])
    out = nn.softmax(logits)
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


class _OneParam(nn.Module):
    def __init__(self, value, grad):
        self.p = nn.Tensor(np.array(value, dtype=float), requires_grad=True)
        self.p.grad = np.array(grad, dtype=float)

    def parameters(self):
        return [self.p]


def test_sgd_step_worked_example():
    model = _OneParam([2.0], [0.5])
    model.step(0.1, weight_decay=1e-3)
    assert np.allclose(model.p.data, [1.9498], atol=1e-12)


def test_sgd_step_rejects_non_finite_gradient():
    model = _OneParam([1.0], [np.nan])
    with pytest.raises(DivergenceError):
        model.step(0.1)
    assert model.p.data.tolist() == [1.0]


def test_sgd_step_zero_lr_is_identity():
    model = _OneParam([0.3, -1.7], [9.0, -2.0])
    model.step(0.0)
    assert model.p.data.tolist() == [0.3, -1.7]


# ---------------------------------------------------------------------------
# gradient lifetime: from one backward to the step that spends it


def _after_one_backward() -> nn.Classifier:
    model = nn.Classifier(2, 4, (8, 8), rng=np.random.default_rng(1))
    x = np.random.default_rng(2).standard_normal((5, 2))
    nn.backward(nn.cross_entropy(model.forward(x), np.arange(5) % 4))
    assert all(p.grad is not None for p in model.parameters())
    return model


@pytest.mark.parametrize("rows", [None, 3], ids=["flat", "stack of 3"])
def test_a_loaded_model_refuses_a_step_with_no_backward(rows):
    vec = nn.Classifier(2, 4, (8, 8), rng=np.random.default_rng(0)).param_vector()
    model = nn.Classifier(2, 4, (8, 8)).spawn(vec if rows is None else np.stack([vec] * rows))
    before = model.param_vector()
    with pytest.raises(InvalidStateError):
        model.step(0.1, weight_decay=1e-3)
    assert np.array_equal(model.param_vector(), before)


def test_loading_parameters_drops_every_gradient():
    model = _after_one_backward()
    model.load_param_vector(model.param_vector())
    assert all(p.grad is None for p in model.parameters())


def test_a_step_spends_every_gradient():
    model = _after_one_backward()
    model.step(0.1, weight_decay=1e-3)
    assert all(p.grad is None for p in model.parameters())
    with pytest.raises(InvalidStateError):  # a second step needs a second backward
        model.step(0.1)


def test_a_step_refused_for_a_non_finite_gradient_keeps_every_gradient():
    model = _after_one_backward()
    model.layers[1].w.grad[3, 5] = np.nan
    grads, before = [p.grad.copy() for p in model.parameters()], model.param_vector()
    with pytest.raises(DivergenceError):
        model.step(0.1, weight_decay=1e-3)
    assert np.array_equal(model.param_vector(), before)
    assert all(np.array_equal(p.grad, g, equal_nan=True) for p, g in zip(model.parameters(), grads))


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


def test_param_vector_of_a_zero_row_stack_has_zero_rows():
    """What is left of a local-training stack whose every client diverged."""
    empty = nn.Classifier(2, 4, (8, 8)).spawn(np.zeros((0, 132)))
    assert empty.param_vector().shape == (0, 132)


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


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: nn.embedding_rows(np.zeros((3, 2)), [0, 3]), "embedding index out of range"),
        (lambda: nn.kl_divergence(np.full(3, 1 / 3), np.full(2, 0.5)), "kl_divergence shape mismatch"),
        (lambda: nn.cross_entropy(np.zeros((2, 2, 3)), [0, 1]), r"expected \[batch, classes\] logits"),
        (lambda: nn.log_likelihood(np.zeros((2, 3)), [0, 1], np.ones((1, 2))), r"expected \[K, batch, classes\] logits"),
        (lambda: nn.cross_entropy(np.zeros((2, 3)), [[0], [1]]), "one label per row"),
        (lambda: nn.Classifier(0, 3), "classifier needs in_dim >= 1"),
        (lambda: nn.Classifier(2, 1), "and num_classes >= 2"),
        (lambda: nn.Generator(2, 3, 2, embed_dim=0), "generator dimensions must be positive"),
        (lambda: nn.Generator(2, 3, 2).forward(np.zeros((4, 3)), np.zeros(4)), r"expected \[batch, 2\] noise"),
        (lambda: nn.Generator(2, 3, 2).forward(np.zeros((4, 2)), np.zeros(3)), "one label per noise row"),
    ],
    ids=[
        "embedding index",
        "kl shapes",
        "label logits of rank 3",
        "stacked label logits of rank 2",
        "labels of the wrong shape",
        "classifier input width",
        "classifier classes",
        "generator sizes",
        "generator noise width",
        "generator labels",
    ],
)
def test_an_input_check_names_what_is_wrong(call, message):
    with pytest.raises(InvalidInputError, match=message):
        call()


def test_disconnected_parameter_gets_zero_gradient():
    used = nn.Tensor(np.array([2.0]), requires_grad=True)
    unused = nn.Tensor(np.array([5.0]), requires_grad=True)
    nn.backward(nn.tsum(nn.mul(used, used)))
    assert np.array_equal(unused.grad, np.zeros(1))
    assert np.allclose(used.grad, [4.0])


def test_repeated_backward_does_not_accumulate():
    w = nn.Tensor(np.array([3.0, -0.5]), requires_grad=True)
    h = tanh(w)  # an interior node with two consumers
    loss = nn.tsum(add(nn.mul(w, w), nn.mul(h, h)))
    nn.backward(loss)
    first_w, first_h = w.grad.copy(), h.grad.copy()
    nn.backward(loss)
    assert np.array_equal(w.grad, first_w)
    assert np.array_equal(h.grad, first_h)


def test_add_sums_the_gradient_over_a_size_one_axis_keeping_it():
    rng = np.random.default_rng(4)
    row = nn.Tensor(rng.standard_normal((1, 3)), requires_grad=True)
    block = nn.Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    upstream = rng.standard_normal((4, 3))
    nn.backward(nn.tsum(nn.mul(add(row, block), upstream)))
    assert row.grad.shape == (1, 3)
    assert np.array_equal(row.grad, upstream.sum(axis=0, keepdims=True))  # the column sums
    assert np.array_equal(block.grad, upstream)


def test_tensor_used_twice_gets_the_summed_gradient():
    x = nn.Tensor(np.array([1.5, -2.0]), requires_grad=True)
    nn.backward(nn.tsum(add(x, x)))
    assert np.array_equal(x.grad, [2.0, 2.0])
    nn.backward(nn.tsum(nn.mul(x, x)))
    assert np.array_equal(x.grad, 2.0 * x.data)


def test_gradient_arriving_as_a_view_is_not_aliased():
    # add's backward hands the upstream gradient itself to both operands and
    # concat's hands out views of it; every node must own its gradient
    a = nn.Tensor(np.ones((2, 2)), requires_grad=True)
    b = nn.Tensor(np.ones((2, 3)), requires_grad=True)
    s = add(a, 0.0)
    joined = nn.concat(s, b)
    out = add(joined, 1.0)
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


def test_a_node_records_exactly_when_a_parent_can_take_a_gradient():
    out = nn.mul(nn.Tensor(np.ones(2)), 3.0)
    assert out._parents == () and out._bwd is None
    with pytest.raises(InvalidStateError):
        nn.backward(nn.tsum(out))
    rng = np.random.default_rng(0)
    frozen = nn.stack([nn.Classifier(2, 3, (4,), rng=rng) for _ in range(2)])
    batch = rng.standard_normal((5, 2))
    logits = frozen.forward(batch)
    assert logits._parents == () and logits._bwd is None
    with pytest.raises(InvalidStateError):
        nn.backward(nn.tsum(logits))
    live = nn.Tensor(batch, requires_grad=True)
    nn.backward(nn.tsum(frozen.forward(live)))
    assert live.grad.shape == batch.shape
    assert all(p.grad is None for p in frozen.parameters())


def test_a_fresh_module_cannot_step_before_a_backward():
    rng = np.random.default_rng(0)
    for model, weight_decay in ((nn.Classifier(2, 4, (8, 8), rng=rng), 0.5), (nn.Generator(3, 4, 2, rng=rng), 0.0)):
        before = model.param_vector()
        assert all(p.grad is None for p in model.parameters())
        with pytest.raises(InvalidStateError, match="run backward first"):
            model.step(0.1, weight_decay=weight_decay)
        assert np.array_equal(model.param_vector(), before)


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
        return float((nn.distances(flat.reshape(4, 3)) * zdist).sum())

    grad = nn.distances_grad(x0, nn.distances(x0), zdist)
    assert max_rel_error(grad.ravel(), numeric_gradient(value, x0.ravel().copy())) < 1e-4


def test_pairwise_distances_match_the_plain_formula_bit_for_bit():
    # the kernel squares its difference array in place; the bits must not move
    rng = np.random.default_rng(6)
    for _ in range(20):
        x = rng.standard_normal((int(rng.integers(2, 60)), int(rng.integers(1, 120))))
        diff = x[:, None, :] - x[None, :, :]
        assert nn.distances(x).tobytes() == np.sqrt((diff * diff).sum(axis=2)).tobytes()


@pytest.mark.parametrize("dim", [*range(1, 13), 16, 100, 129])
@pytest.mark.parametrize("n", [1, 2, 50])
def test_pairwise_distances_match_the_broadcast_form_bit_for_bit(n, dim):
    """The kernels compute each distance once, below and above numpy's 8-value pairwise block."""
    rng = np.random.default_rng([n, dim])
    data = rng.standard_normal((n, dim)) * rng.uniform(0.1, 10.0, size=dim)
    if n > 2:
        data[n // 2] = data[0]  # a duplicate row: zero distances, which pass no gradient
    g = rng.standard_normal((n, n))
    x = nn.Tensor(data, requires_grad=True)
    d = broadcast_pairwise_distances(x)
    nn.backward(nn.tsum(nn.mul(d, g)))
    kernel = nn.distances(data)
    # + 0.0, as `_accumulate` gives a fresh gradient: at n = 1 the two differ only in the sign of a zero
    assert (kernel.tobytes(), (nn.distances_grad(data, kernel, g) + 0.0).tobytes()) == (d.data.tobytes(), x.grad.tobytes())


def test_pairwise_distances_zero_rows_give_finite_gradient():
    x = np.zeros((3, 2))
    assert np.all(np.isfinite(nn.distances_grad(x, nn.distances(x), np.ones((3, 3)))))


# ---------------------------------------------------------------------------
# properties


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_softmax_rows_always_sum_to_one(seed):
    rng = np.random.default_rng(seed)
    logits = rng.standard_normal((3, 5)) * rng.uniform(0.1, 50.0)
    out = nn.softmax(logits)
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
