"""Minimal reverse-mode autodiff on float64 numpy arrays.

Just enough machinery for dense classifiers, a conditional generator and
their losses: no broadcasting zoo, no views, no batchnorm. Every value in
the graph is float64 and every op is deterministic, so identical seeds
reproduce identical parameters bit for bit.

The hot chains are single fused nodes: a network trunk (`mlp`), the
weighted KL total of K teachers (`weighted_kl`) and the label
log-likelihood (`cross_entropy`, and `log_likelihood` over K teachers).
Each backward replays the numpy ops of the one-op-per-node chain it
replaces, per teacher and in its order, so values and gradients match
that chain bit for bit; tests/helpers.py keeps the chain as the oracle.
Where the chain would store a computed value as a fresh gradient, the
kernel adds 0.0 as `_accumulate` does, which turns -0.0 into 0.0. A
stored gradient holds no -0.0, so the chain's copies of one are skipped.
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


def branch(t: Tensor) -> Tensor:
    """A second node with t's value and backward, for a second consumer of t.

    Each branch gets its own gradient and runs the backward on it, so t's
    inputs receive one contribution per branch, in backward order, as if t
    had been computed twice. Every backward here reads only its argument,
    never its own node, which is what makes the sharing sound.
    """
    return _node(t.data, t._parents, t._bwd)


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


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def bwd(g):
        if a.needs_grad():
            _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        if b.needs_grad():
            _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _node(a.data * b.data, (a, b), bwd)


def exp(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.exp(a.data)

    def bwd(g):
        if a.needs_grad():
            _accumulate(a, g * out_data)

    return _node(out_data, (a,), bwd)


def tsum(a) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.sum()

    def bwd(g):
        if a.needs_grad():
            _accumulate(a, g)  # the scalar g broadcasts over a in the add

    return _node(out_data, (a,), bwd)


def concat(a, b) -> Tensor:
    """[batch, m] and [batch, n] side by side as [batch, m + n]."""
    a, b = as_tensor(a), as_tensor(b)
    split = a.data.shape[1]

    def bwd(g):
        ga, gb = np.split(g, [split], axis=1)
        if a.needs_grad():
            _accumulate(a, ga)
        if b.needs_grad():
            _accumulate(b, gb)

    return _node(np.concatenate([a.data, b.data], axis=1), (a, b), bwd)


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


def mlp(x, layers: Sequence["Dense"], tanh: bool = False) -> Tensor:
    """A dense trunk as one node: relu(h @ w + b) per hidden layer, then h @ w + b.

    With `tanh` the output passes through tanh. Layers with [K, in, out]
    weights and [K, 1, out] biases (see `stack`) map a [batch, in] input,
    or a [K, batch, in] one, to [K, batch, out] with one np.matmul per
    layer. The backward replays the numpy ops of the unfused
    matmul/add/relu/tanh chain in its order, so values and gradients match
    it bit for bit, and it feeds only what that chain would have fed: a
    frozen weight or a constant input gets nothing. For a stack, the K
    gradients of a [batch, in] input are added in order k = 0..K-1.
    """
    x = as_tensor(x)
    hs = [x.data]  # each layer's input
    for layer in layers[:-1]:
        # np.maximum, not np.where: a nan input must poison the output, not
        # silently turn into 0 and hide a diverged model
        hs.append(np.maximum(hs[-1] @ layer.w.data + layer.b.data, 0.0))
    out = hs[-1] @ layers[-1].w.data + layers[-1].b.data
    if tanh:
        out = np.tanh(out)

    def bwd(g):
        # a layer's input takes a gradient when x or an earlier parameter does
        feeds, live = [], x.needs_grad()
        for layer in layers:
            feeds.append(live)
            live = live or layer.w.requires_grad or layer.b.requires_grad
        if tanh:
            g = np.add(g * (1.0 - out * out), 0.0)
        for i in range(len(layers) - 1, -1, -1):
            w, b = layers[i].w, layers[i].b
            if b.requires_grad:
                _accumulate(b, _unbroadcast(g, b.data.shape))
            if w.requires_grad:
                _accumulate(w, hs[i].swapaxes(-1, -2) @ g)
            if not feeds[i]:
                return
            g_in = g @ w.data.swapaxes(-1, -2)
            if i:
                g = np.add(g_in * (hs[i] > 0), 0.0)
            elif g_in.ndim > x.data.ndim:
                for part in g_in:
                    _accumulate(x, part)
            else:
                _accumulate(x, g_in)

    params = tuple(t for layer in layers for t in (layer.w, layer.b))
    return _node(out, (x, *params), bwd)


def softmax(logits) -> Tensor:
    """Softmax over the last axis."""
    t = as_tensor(logits)
    if not np.all(np.isfinite(t.data)):
        # non-finite logits mean the optimization blew up somewhere upstream
        raise DivergenceError("non-finite logits in softmax")
    shifted = t.data - t.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        if t.needs_grad():
            dot = (g * out_data).sum(axis=-1, keepdims=True)
            _accumulate(t, out_data * (g - dot))

    return _node(out_data, (t,), bwd)


def pairwise_distances(x) -> Tensor:
    """Euclidean distance between every pair of rows, differentiable in x."""
    t = as_tensor(x)
    if t.data.ndim != 2:
        raise InvalidInputError("pairwise_distances expects a 2-d batch")
    diff = t.data[:, None, :] - t.data[None, :, :]
    np.multiply(diff, diff, out=diff)  # in place: a second [n, n, dim] buffer costs more than the square
    d = np.sqrt(diff.sum(axis=2))

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


def _sum_per_teacher(terms: np.ndarray) -> float:
    """Each teacher's terms summed, then the K sums added one at a time, k = 0..K-1.

    This is the order of a chain of per-teacher add nodes. Summing over the
    teacher axis at once would sum pairwise from K = 8 on and move bits.
    """
    total = terms[0].sum()
    for t in terms[1:]:
        total = total + t.sum()
    return total


def weighted_kl(p, q, weights) -> Tensor:
    """sum_k sum_i weights[k, i] * KL(p[k, i] || q[i]), one node.

    p holds K distributions per row of q along a leading teacher axis, or
    has q's shape for K = 1; weights has p's shape without the class axis.
    Both sides are clamped below at 1e-12 before the log, so p entries
    equal to 0 contribute exactly 0. Either side may be a live tensor or a
    constant. The K gradient contributions to q are added in order
    k = 0..K-1.
    """
    p, q = as_tensor(p), as_tensor(q)
    weights = np.asarray(weights, dtype=np.float64)
    # without a teacher axis, run the stacked code on a view with K = 1
    stacked = p.data.ndim > q.data.ndim
    pk = p.data if stacked else p.data[None]
    wk = weights if stacked else weights[None]
    if pk.shape[1:] != q.data.shape or wk.shape != pk.shape[:-1]:
        raise InvalidInputError(
            f"weighted_kl shape mismatch: p {p.data.shape}, q {q.data.shape}, weights {weights.shape}"
        )
    p_floor = np.maximum(pk, _PROB_FLOOR)
    q_floor = np.maximum(q.data, _PROB_FLOOR)
    log_ratio = np.log(p_floor) - np.log(q_floor)

    def bwd(g):
        # per teacher, the backward of the clamp/log/sub/mul/sum chain and of
        # its weighting mul and tsum, op for op
        g = np.broadcast_to(np.expand_dims(np.add(g * wk, 0.0), -1), log_ratio.shape)
        if p.needs_grad():
            _accumulate(p, (g * log_ratio).reshape(p.data.shape))
        g_ratio = np.add(g * pk, 0.0)
        if p.needs_grad():
            _accumulate(p, (np.add(g_ratio / p_floor, 0.0) * (pk > _PROB_FLOOR)).reshape(p.data.shape))
        if q.needs_grad():
            for part in np.add(np.add(-g_ratio, 0.0) / q_floor, 0.0) * (q.data > _PROB_FLOOR):
                _accumulate(q, part)

    return _node(_sum_per_teacher((pk * log_ratio).sum(axis=-1) * wk), (p, q), bwd)


def kl_divergence(p, q) -> Tensor:
    """Mean over rows of KL(p || q); accepts a single distribution or a batch of rows."""
    p, q = as_tensor(p), as_tensor(q)
    if p.data.shape != q.data.shape:
        raise InvalidInputError(f"kl_divergence shape mismatch: {p.data.shape} vs {q.data.shape}")
    rows = 1 if p.data.ndim == 1 else p.data.shape[0]
    return mul(weighted_kl(p, q, np.ones(p.data.shape[:-1])), 1.0 / rows)


def _label_log_probs(logits: Tensor, labels, stacked: bool) -> tuple[np.ndarray, Callable[[np.ndarray], None]]:
    """log softmax(logits)[..., i, labels[..., i]] per row, and the backward from a gradient on those values.

    Stacked logits carry a leading axis of K teachers or C clients, with
    shared [batch] labels or [C, batch] ones. The backward takes any shape
    that broadcasts to the values and replays the unfused
    log_softmax/take_per_row chain.
    """
    if logits.data.ndim != 2 + stacked:
        raise InvalidInputError("expected [K, batch, classes] logits" if stacked else "expected [batch, classes] logits")
    if not np.isfinite(logits.data).all():
        raise DivergenceError("non-finite logits in log_softmax")
    labels = np.asarray(labels, dtype=np.int64)
    n, c = logits.data.shape[-2:]
    if labels.shape not in ((n,), logits.data.shape[:-1]):
        raise InvalidInputError("one label per row required")
    if labels.size and (labels.min() < 0 or labels.max() >= c):
        raise InvalidInputError(f"label out of range [0, {c})")
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    rows = np.arange(n)
    index = (..., rows, labels) if labels.ndim == 1 else (np.arange(labels.shape[0])[:, None], rows, labels)

    def bwd(g_picked):
        g = np.zeros_like(log_probs)
        g[index] += g_picked
        _accumulate(logits, g - np.exp(log_probs) * g.sum(axis=-1, keepdims=True))

    return log_probs[index], bwd


def cross_entropy(logits, labels) -> Tensor:
    """Mean negative log-likelihood of integer labels under softmax(logits), one node; [C] means for a stack."""
    logits = as_tensor(logits)
    picked, picked_bwd = _label_log_probs(logits, labels, stacked=logits.data.ndim == 3)
    scale = np.asarray(-1.0 / picked.shape[-1])

    def bwd(g):
        picked_bwd(np.add(g * scale, 0.0)[..., None])  # broadcast over each slice's rows

    return _node(picked.sum(axis=-1) * scale, (logits,), bwd)


def log_likelihood(logits, labels, weights: np.ndarray) -> Tensor:
    """sum_k sum_i weights[k, i] * log softmax(logits[k])[i, labels[i]], one node.

    logits are [K, batch, classes] and weights [K, batch]; the K
    per-teacher totals are added in order k = 0..K-1.
    """
    logits = as_tensor(logits)
    picked, picked_bwd = _label_log_probs(logits, labels, stacked=True)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != picked.shape:
        raise InvalidInputError(f"log_likelihood expects weights of shape {picked.shape}, got {weights.shape}")

    def bwd(g):
        picked_bwd(np.add(np.broadcast_to(g, picked.shape) * weights, 0.0))

    return _node(_sum_per_teacher(picked * weights), (logits,), bwd)


# ---------------------------------------------------------------------------
# models


class Dense:
    """Affine layer x @ w + b with w of shape [in, out]."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator | None, gain: float):
        if rng is None:
            w = np.zeros((in_dim, out_dim))
        else:
            w = rng.normal(0.0, gain / np.sqrt(in_dim), size=(in_dim, out_dim))
        self.w = Tensor(w, requires_grad=True)
        self.b = Tensor(np.zeros(out_dim), requires_grad=True)


class Module:
    """A dense trunk, dims[0] -> ... -> dims[-1], with a flat-vector view of its parameters.

    Hidden layers draw He-scaled weights and the output layer unit-gain
    ones, in layer order; rng=None zero-initializes, which is the cheap path
    when parameters are loaded from a flat vector right after construction.
    """

    def __init__(self, dims: Sequence[int], rng: np.random.Generator | None):
        self.layers = [
            Dense(dims[i], dims[i + 1], rng, gain=np.sqrt(2.0) if i + 2 < len(dims) else 1.0)
            for i in range(len(dims) - 1)
        ]

    def parameters(self) -> list[Tensor]:
        return [t for layer in self.layers for t in (layer.w, layer.b)]

    @property
    def param_count(self) -> int:
        return sum(p.data.size for p in self.parameters())

    def param_vector(self) -> np.ndarray:
        """The parameters flattened in order: [P] for one model, [C, P] rows for a stack of C."""
        lead = self.layers[0].w.data.shape[:-2]
        return np.concatenate([p.data.reshape(*lead, -1) for p in self.parameters()], axis=-1)

    def load_param_vector(self, vec: np.ndarray) -> None:
        """Load a flat [P] vector, or [C, P] rows as a stack: [C, in, out] weights, [C, 1, out] biases."""
        vec = np.asarray(vec, dtype=np.float64)
        if vec.ndim not in (1, 2) or vec.shape[-1] != self.param_count:
            raise InvalidInputError(f"expected a flat vector of {self.param_count} values, got shape {vec.shape}")
        lead = vec.shape[:-1]
        offset = 0
        for p in self.parameters():
            n, shape = p.data.size, p.data.shape
            if lead and len(shape) == 1:
                shape = (1, *shape)
            p.data = vec[..., offset : offset + n].reshape(*lead, *shape).copy()
            offset += n

    def step(self, lr: float, weight_decay: float = 0.0) -> None:
        """One SGD update with coupled weight decay: p <- p - lr * (g + weight_decay * p).

        Every gradient is allocated with its parameter's shape, so only its
        finiteness is checked, before any parameter moves. The update runs
        the formula's ops in its order, in one buffer per parameter.
        """
        params = self.parameters()
        if not all(np.isfinite(p.grad).all() for p in params):
            raise DivergenceError("non-finite gradient")
        for p in params:
            update = np.multiply(weight_decay, p.data)
            np.add(p.grad, update, out=update)
            np.multiply(lr, update, out=update)
            p.data = np.subtract(p.data, update, out=update)


class Classifier(Module):
    """Dense ReLU network emitting raw logits."""

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
        super().__init__([in_dim, *self.hidden, num_classes], rng)

    def forward(self, batch) -> Tensor:
        h = as_tensor(batch)
        if h.data.ndim not in (2, 3) or h.data.shape[-1] != self.in_dim:
            raise InvalidInputError(f"expected a [batch, {self.in_dim}] input, got shape {h.data.shape}")
        return mlp(h, self.layers)

    def spawn(self, vec: np.ndarray | None = None) -> "Classifier":
        """A same-shape classifier, optionally loaded from a flat vector; [C, P] rows give a stack of C."""
        twin = Classifier(self.in_dim, self.num_classes, self.hidden, rng=None)
        if vec is not None:
            twin.load_param_vector(vec)
        return twin


def stack(models: Sequence[Classifier]) -> Classifier:
    """Same-shape classifiers as one frozen stack, for forward passes only.

    `forward` maps a [batch, in] input to [K, batch, classes] logits, and
    slice k equals models[k].forward bit for bit.
    """
    stacked = models[0].spawn(np.stack([m.param_vector() for m in models]))
    for p in stacked.parameters():
        p.requires_grad, p.grad = False, None
    return stacked


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
        self.embed = Tensor(embed, requires_grad=True)  # drawn before the trunk
        super().__init__([noise_dim + embed_dim, *self.hidden, sample_dim], rng)

    def parameters(self) -> list[Tensor]:
        return [self.embed, *super().parameters()]

    def forward(self, noise, labels) -> Tensor:
        z = as_tensor(noise)
        if z.data.ndim != 2 or z.data.shape[1] != self.noise_dim:
            raise InvalidInputError(f"expected [batch, {self.noise_dim}] noise, got shape {z.data.shape}")
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape != (z.data.shape[0],):
            raise InvalidInputError("one label per noise row required")
        return mlp(concat(z, embedding_rows(self.embed, labels)), self.layers, tanh=True)


def accuracy(model: Classifier, features: np.ndarray, labels: np.ndarray) -> float:
    """Share of argmax predictions equal to the labels, without recording a graph."""
    labels = np.asarray(labels)
    if labels.size == 0:
        return float("nan")
    with no_grad():
        logits = model.forward(features)
    return float(np.mean(np.argmax(logits.data, axis=1) == labels))
