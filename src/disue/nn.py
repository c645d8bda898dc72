"""Minimal reverse-mode autodiff on float64 numpy arrays.

Just enough machinery for dense classifiers, a conditional generator and
their losses: no broadcasting zoo, no views, no batchnorm. Every value in
the graph is float64 and every op is deterministic, so identical seeds
reproduce identical parameters bit for bit.
"""
from __future__ import annotations

import contextlib
from typing import Callable, Sequence

import numpy as np

from .errors import DivergenceError, InvalidInputError, InvalidStateError

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (eval, teacher forwards)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """Array node of a dynamically recorded computation graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_bwd")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = np.zeros_like(self.data) if requires_grad else None
        self._parents: tuple[Tensor, ...] = ()
        self._bwd: Callable[[np.ndarray], None] | None = None

    def item(self) -> float:
        return float(self.data)

    def needs_grad(self) -> bool:
        return self.requires_grad or bool(self._parents)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={'on' if self.needs_grad() else 'off'})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(data: np.ndarray, parents: tuple[Tensor, ...], bwd: Callable[[np.ndarray], None]) -> Tensor:
    out = Tensor(data)
    if _grad_enabled:
        for p in parents:
            if p.requires_grad or p._parents:
                out._parents = parents
                out._bwd = bwd
                break
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add one gradient contribution to t.grad, allocating it on the first.

    The first contribution is written as 0.0 + g into a fresh array: g may be
    the upstream gradient itself or a view of it, and 0.0 + g has the bits
    of a zero-filled accumulator, signed zeros included.
    """
    if t.grad is None:
        t.grad = np.add(g, 0.0, out=np.empty_like(t.data))
    else:
        t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to `shape` after numpy broadcasting."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _topo_order(root: Tensor) -> list[Tensor]:
    """Every node below root that takes a gradient, each after its parents.

    Constant leaves are skipped: they hold no gradient and have no backward,
    and leaving them out does not move the other nodes.
    """
    order: list[Tensor] = []
    seen: set[Tensor] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if node in seen:
            continue
        seen.add(node)
        stack.append((node, True))
        for p in node._parents:
            if (p.requires_grad or p._parents) and p not in seen:
                stack.append((p, False))
    return order


def backward(loss: Tensor) -> None:
    """Populate .grad for every node reachable from a scalar loss.

    Gradients of reachable nodes are reset to None first and allocated by
    their first contribution, so repeated calls do not accumulate across
    backward passes.
    """
    if loss.data.size != 1:
        raise InvalidInputError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    if not loss._parents:
        raise InvalidStateError("backward on a detached scalar: no recorded graph")
    order = _topo_order(loss)
    for node in order:
        node.grad = None
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._bwd is not None:
            node._bwd(node.grad)


# ---------------------------------------------------------------------------
# primitives


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def bwd(g):
        if a.needs_grad():
            _accumulate(a, _unbroadcast(g, a.data.shape))
        if b.needs_grad():
            _accumulate(b, _unbroadcast(g, b.data.shape))

    return _node(a.data + b.data, (a, b), bwd)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def bwd(g):
        if a.needs_grad():
            _accumulate(a, _unbroadcast(g, a.data.shape))
        if b.needs_grad():
            _accumulate(b, -_unbroadcast(g, b.data.shape))

    return _node(a.data - b.data, (a, b), bwd)


def neg(a) -> Tensor:
    a = as_tensor(a)

    def bwd(g):
        if a.needs_grad():
            _accumulate(a, -g)

    return _node(-a.data, (a,), bwd)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def bwd(g):
        if a.needs_grad():
            _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        if b.needs_grad():
            _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _node(a.data * b.data, (a, b), bwd)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise InvalidInputError("matmul supports 2-d operands only")
    if a.data.shape[1] != b.data.shape[0]:
        raise InvalidInputError(f"matmul shape mismatch: {a.data.shape} @ {b.data.shape}")

    def bwd(g):
        if a.needs_grad():
            _accumulate(a, g @ b.data.T)
        if b.needs_grad():
            _accumulate(b, a.data.T @ g)

    return _node(a.data @ b.data, (a, b), bwd)


def relu(a) -> Tensor:
    a = as_tensor(a)
    mask = a.data > 0

    def bwd(g):
        if a.needs_grad():
            _accumulate(a, g * mask)

    # np.maximum, not np.where: a nan input must poison the output, not
    # silently turn into 0 and hide a diverged model
    return _node(np.maximum(a.data, 0.0), (a,), bwd)


def tanh(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.tanh(a.data)

    def bwd(g):
        if a.needs_grad():
            _accumulate(a, g * (1.0 - out_data * out_data))

    return _node(out_data, (a,), bwd)


def exp(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.exp(a.data)

    def bwd(g):
        if a.needs_grad():
            _accumulate(a, g * out_data)

    return _node(out_data, (a,), bwd)


def log(a) -> Tensor:
    # callers clamp first; log of a nonpositive value is a caller bug
    a = as_tensor(a)

    def bwd(g):
        if a.needs_grad():
            _accumulate(a, g / a.data)

    return _node(np.log(a.data), (a,), bwd)


def clamp_min(a, low: float) -> Tensor:
    a = as_tensor(a)
    mask = a.data > low

    def bwd(g):
        if a.needs_grad():
            _accumulate(a, g * mask)

    return _node(np.maximum(a.data, low), (a,), bwd)


def tsum(a, axis: int | None = None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        if not a.needs_grad():
            return
        gg = g
        if axis is not None and not keepdims:
            gg = np.expand_dims(gg, axis)
        _accumulate(a, np.broadcast_to(gg, a.data.shape))

    return _node(out_data, (a,), bwd)


def concat(a, b, axis: int = 1) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    split = a.data.shape[axis]

    def bwd(g):
        ga, gb = np.split(g, [split], axis=axis)
        if a.needs_grad():
            _accumulate(a, ga)
        if b.needs_grad():
            _accumulate(b, gb)

    return _node(np.concatenate([a.data, b.data], axis=axis), (a, b), bwd)


def embedding_rows(table, index) -> Tensor:
    """Select rows of a 2-d table by integer index; gradients scatter-add back."""
    table = as_tensor(table)
    index = np.asarray(index, dtype=np.int64)
    n = table.data.shape[0]
    if index.size and (index.min() < 0 or index.max() >= n):
        raise InvalidInputError(f"embedding index out of range [0, {n})")

    def bwd(g):
        if table.needs_grad():
            if table.grad is None:
                table.grad = np.zeros_like(table.data)
            np.add.at(table.grad, index, g)

    return _node(table.data[index], (table,), bwd)


def take_per_row(a, index) -> Tensor:
    """out[i] = a[i, index[i]] for a 2-d tensor."""
    a = as_tensor(a)
    index = np.asarray(index, dtype=np.int64)
    n, c = a.data.shape
    if index.shape != (n,):
        raise InvalidInputError("take_per_row needs one index per row")
    if index.size and (index.min() < 0 or index.max() >= c):
        raise InvalidInputError(f"column index out of range [0, {c})")
    rows = np.arange(n)

    def bwd(g):
        if a.needs_grad():
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            # one (row, index) pair per row, so plain fancy-index add is exact
            a.grad[rows, index] += g

    return _node(a.data[rows, index], (a,), bwd)


def softmax(logits, axis: int = -1) -> Tensor:
    t = as_tensor(logits)
    if not np.all(np.isfinite(t.data)):
        # non-finite logits mean the optimization blew up somewhere upstream
        raise DivergenceError("non-finite logits in softmax")
    shifted = t.data - t.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        if t.needs_grad():
            dot = (g * out_data).sum(axis=axis, keepdims=True)
            _accumulate(t, out_data * (g - dot))

    return _node(out_data, (t,), bwd)


def log_softmax(logits, axis: int = -1) -> Tensor:
    t = as_tensor(logits)
    if not np.all(np.isfinite(t.data)):
        raise DivergenceError("non-finite logits in log_softmax")
    shifted = t.data - t.data.max(axis=axis, keepdims=True)
    out_data = shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    probs = np.exp(out_data)

    def bwd(g):
        if t.needs_grad():
            _accumulate(t, g - probs * g.sum(axis=axis, keepdims=True))

    return _node(out_data, (t,), bwd)


def pairwise_distances(x) -> Tensor:
    """Euclidean distance between every pair of rows, differentiable in x."""
    t = as_tensor(x)
    if t.data.ndim != 2:
        raise InvalidInputError("pairwise_distances expects a 2-d batch")
    diff = t.data[:, None, :] - t.data[None, :, :]
    d = np.sqrt((diff * diff).sum(axis=2))

    def bwd(g):
        if not t.needs_grad():
            return
        with np.errstate(divide="ignore", invalid="ignore"):
            w = np.where(d > 0, (g + g.T) / np.where(d > 0, d, 1.0), 0.0)
        _accumulate(t, w.sum(axis=1)[:, None] * t.data - w @ t.data)

    return _node(d, (t,), bwd)


# ---------------------------------------------------------------------------
# losses

_PROB_FLOOR = 1e-12


def kl_rows(p, q) -> Tensor:
    """sum_c p_c * ln(p_c / q_c) along the last axis, one value per row.

    Both sides are clamped below at 1e-12 before the log, so p entries
    equal to 0 contribute exactly 0. Either side may be a live tensor or a
    constant.
    """
    p, q = as_tensor(p), as_tensor(q)
    return tsum(mul(p, sub(log(clamp_min(p, _PROB_FLOOR)), log(clamp_min(q, _PROB_FLOOR)))), axis=-1)


def kl_divergence(p, q) -> Tensor:
    """Mean over rows of kl_rows(p, q); accepts a single distribution or a batch of rows."""
    p, q = as_tensor(p), as_tensor(q)
    if p.data.shape != q.data.shape:
        raise InvalidInputError(f"kl_divergence shape mismatch: {p.data.shape} vs {q.data.shape}")
    rows = 1 if p.data.ndim == 1 else p.data.shape[0]
    return mul(tsum(kl_rows(p, q)), 1.0 / rows)


def cross_entropy(logits, labels) -> Tensor:
    """Mean negative log-likelihood of integer labels under softmax(logits)."""
    logits = as_tensor(logits)
    labels = np.asarray(labels, dtype=np.int64)
    if logits.data.ndim != 2:
        raise InvalidInputError("cross_entropy expects [batch, classes] logits")
    picked = take_per_row(log_softmax(logits, axis=-1), labels)
    return mul(tsum(picked), -1.0 / labels.shape[0])


def sgd_step(params: np.ndarray, grads: np.ndarray, lr: float, weight_decay: float = 0.0) -> np.ndarray:
    """One SGD update with coupled weight decay: p <- p - lr * (g + weight_decay * p)."""
    grads = np.asarray(grads, dtype=np.float64)
    if grads.shape != np.asarray(params).shape:
        raise InvalidInputError("sgd_step shape mismatch between params and grads")
    if not np.all(np.isfinite(grads)):
        raise DivergenceError("non-finite gradient")
    return params - lr * (grads + weight_decay * params)


# ---------------------------------------------------------------------------
# models


class Module:
    """Bag of named parameter tensors with a flat-vector view."""

    def parameters(self) -> list[Tensor]:
        raise NotImplementedError

    @property
    def param_count(self) -> int:
        return sum(p.data.size for p in self.parameters())

    def param_vector(self) -> np.ndarray:
        return np.concatenate([p.data.ravel() for p in self.parameters()])

    def load_param_vector(self, vec: np.ndarray) -> None:
        vec = np.asarray(vec, dtype=np.float64)
        if vec.ndim != 1 or vec.size != self.param_count:
            raise InvalidInputError(f"expected a flat vector of {self.param_count} values, got shape {vec.shape}")
        offset = 0
        for p in self.parameters():
            n = p.data.size
            p.data = vec[offset : offset + n].reshape(p.data.shape).copy()
            offset += n

    def step(self, lr: float, weight_decay: float = 0.0) -> None:
        """Apply sgd_step to every parameter using its current gradient."""
        for p in self.parameters():
            p.data = sgd_step(p.data, p.grad, lr, weight_decay)

    def freeze(self) -> "Module":
        for p in self.parameters():
            p.requires_grad = False
            p.grad = None
        return self


class Dense:
    """Affine layer x @ w + b with w of shape [in, out]."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator | None, gain: float):
        if rng is None:
            w = np.zeros((in_dim, out_dim))
        else:
            w = rng.normal(0.0, gain / np.sqrt(in_dim), size=(in_dim, out_dim))
        self.w = Tensor(w, requires_grad=True)
        self.b = Tensor(np.zeros(out_dim), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return add(matmul(x, self.w), self.b)


class Classifier(Module):
    """Dense ReLU network emitting raw logits.

    rng=None zero-initializes, which is the cheap path when parameters are
    loaded from a flat vector right after construction.
    """

    def __init__(
        self,
        in_dim: int,
        num_classes: int,
        hidden: Sequence[int] = (64, 64),
        rng: np.random.Generator | None = None,
    ):
        if in_dim < 1 or num_classes < 2:
            raise InvalidInputError("classifier needs in_dim >= 1 and num_classes >= 2")
        self.in_dim = in_dim
        self.num_classes = num_classes
        self.hidden = tuple(hidden)
        dims = [in_dim, *self.hidden, num_classes]
        self.layers = [
            Dense(dims[i], dims[i + 1], rng, gain=np.sqrt(2.0) if i + 2 < len(dims) else 1.0)
            for i in range(len(dims) - 1)
        ]

    def parameters(self) -> list[Tensor]:
        out: list[Tensor] = []
        for layer in self.layers:
            out.extend((layer.w, layer.b))
        return out

    def forward(self, batch) -> Tensor:
        h = as_tensor(batch)
        if h.data.ndim != 2 or h.data.shape[1] != self.in_dim:
            raise InvalidInputError(f"expected a [batch, {self.in_dim}] input, got shape {h.data.shape}")
        for layer in self.layers[:-1]:
            h = relu(layer(h))
        return self.layers[-1](h)

    def spawn(self, vec: np.ndarray | None = None) -> "Classifier":
        """A same-shape classifier, optionally loaded from a flat vector."""
        twin = Classifier(self.in_dim, self.num_classes, self.hidden, rng=None)
        if vec is not None:
            twin.load_param_vector(vec)
        return twin


class Generator(Module):
    """Conditional sample generator: concat(noise, label embedding) -> tanh output."""

    def __init__(
        self,
        noise_dim: int,
        num_classes: int,
        sample_dim: int,
        embed_dim: int = 8,
        hidden: Sequence[int] = (64, 64),
        rng: np.random.Generator | None = None,
    ):
        if min(noise_dim, num_classes, sample_dim, embed_dim) < 1:
            raise InvalidInputError("generator dimensions must be positive")
        self.noise_dim = noise_dim
        self.num_classes = num_classes
        self.sample_dim = sample_dim
        self.embed_dim = embed_dim
        self.hidden = tuple(hidden)
        embed = np.zeros((num_classes, embed_dim)) if rng is None else rng.normal(0.0, 1.0, size=(num_classes, embed_dim))
        self.embed = Tensor(embed, requires_grad=True)
        dims = [noise_dim + embed_dim, *self.hidden, sample_dim]
        self.layers = [
            Dense(dims[i], dims[i + 1], rng, gain=np.sqrt(2.0) if i + 2 < len(dims) else 1.0)
            for i in range(len(dims) - 1)
        ]

    def parameters(self) -> list[Tensor]:
        out = [self.embed]
        for layer in self.layers:
            out.extend((layer.w, layer.b))
        return out

    def forward(self, noise, labels) -> Tensor:
        z = as_tensor(noise)
        if z.data.ndim != 2 or z.data.shape[1] != self.noise_dim:
            raise InvalidInputError(f"expected [batch, {self.noise_dim}] noise, got shape {z.data.shape}")
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape != (z.data.shape[0],):
            raise InvalidInputError("one label per noise row required")
        h = concat(z, embedding_rows(self.embed, labels), axis=1)
        for layer in self.layers[:-1]:
            h = relu(layer(h))
        return tanh(self.layers[-1](h))


def accuracy(model: Classifier, features: np.ndarray, labels: np.ndarray) -> float:
    """Share of argmax predictions equal to the labels, without recording a graph."""
    labels = np.asarray(labels)
    if labels.size == 0:
        return float("nan")
    with no_grad():
        logits = model.forward(features)
    return float(np.mean(np.argmax(logits.data, axis=1) == labels))
