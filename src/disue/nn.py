"""Minimal reverse-mode autodiff on float64 numpy arrays.

Just enough machinery for dense classifiers, a conditional generator and
their losses: no broadcasting zoo, no views, no batchnorm. Every value in
the graph is float64 and every op is deterministic, so identical seeds
reproduce identical parameters bit for bit.

The hot chains are single fused nodes: a network trunk (`mlp`), the
weighted KL of K teachers and the label log-likelihood (`weighted_kl`,
`cross_entropy`). Their array kernels (`trunk_forward`, `trunk_backward`,
`SoftmaxRows`, `kl_terms`, `label_terms`, `distances`, `distances_grad`)
serve distill too: its cf and diversity nodes, and its generator and
student steps, which run on the kernels alone, off the tape. Each
backward replays the numpy ops of the one-op-per-node chain it replaces,
per teacher and in its order, so values and gradients match it bit for
bit; tests/helpers.py keeps the chain as the oracle. A fresh gradient
gets +0.0 as `_accumulate` gives it, turning -0.0 into 0.0, so a stored
one holds no -0.0 and the chain's copies of it are skipped.
"""
from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import DivergenceError, InvalidInputError, InvalidStateError

# the simulator's entry points run under this one policy: an overflow, invalid
# value, underflow or division by zero leaves its IEEE result, and the finiteness
# checks decide divergence, whatever the caller's warnings filter or numpy error
# state; errstate changes how numpy reports a fault, not the value it computes.
# Apply it as a decorator, which nests; one instance cannot nest `with` blocks
FLOAT_POLICY = np.errstate(all="ignore")


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
    """A node that records its parents and backward exactly when one of them can take a gradient."""
    out = Tensor(data)
    if any(p.needs_grad() for p in parents):
        out._parents = parents
        out._bwd = bwd
    return out


def _accumulate(t: Tensor, g: np.ndarray, owned: bool = False) -> None:
    """Add one gradient contribution to t.grad, allocating it on the first.

    The first contribution is written as 0.0 + g into a fresh array: g may be
    the upstream gradient itself or a view of it, and 0.0 + g has the bits
    of a zero-filled accumulator, signed zeros included. An `owned` g is a
    fresh array of t's shape that nothing else reads, so it takes the 0.0
    in place and becomes the gradient.
    """
    if t.grad is None:
        t.grad = np.add(g, 0.0, out=g if owned else np.empty_like(t.data))
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


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def bwd(g):
        if a.needs_grad():
            _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        if b.needs_grad():
            _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _node(a.data * b.data, (a, b), bwd)


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


def _check_rows(index: np.ndarray, n: int) -> None:
    if index.size and (index.min() < 0 or index.max() >= n):
        raise InvalidInputError(f"embedding index out of range [0, {n})")


def embedding_rows(table, index) -> Tensor:
    """Select rows of a 2-d table by integer index; gradients scatter-add back."""
    table = as_tensor(table)
    index = np.asarray(index, dtype=np.int64)
    _check_rows(index, table.data.shape[0])

    def bwd(g):
        if table.needs_grad():
            if table.grad is None:
                table.grad = np.zeros_like(table.data)
            np.add.at(table.grad, index, g)

    return _node(table.data[index], (table,), bwd)


class Segments:
    """The rows of C clients laid end to end in one [R, ...] array.

    Client c owns widths[c] consecutive rows, in client order, and slice c
    of a [C, ...] stacked parameter. Each run of adjacent clients of equal
    width is one batched np.matmul of [clients, width, k] @ [clients, k, m],
    whose slices equal the 2-d products bit for bit; padding ragged clients
    to one width does not keep that. So order clients by width to make
    few runs.
    """

    def __init__(self, widths: np.ndarray):
        widths = np.asarray(widths, dtype=np.int64)
        starts = np.flatnonzero(np.diff(widths, prepend=-1))  # the first client of each run
        self.widths = widths
        self.owner = np.repeat(np.arange(widths.size), widths)  # the client of each row
        self.runs = []  # (client slice, row slice, clients, width) per run
        row = 0
        for first, end in zip(starts.tolist(), [*starts[1:].tolist(), widths.size]):
            count, width = end - first, int(widths[first])
            self.runs.append((slice(first, end), slice(row, row + count * width), count, width))
            row += count * width

    def matmul(self, rows: np.ndarray, w: np.ndarray) -> np.ndarray:
        """[R, k] rows times each owner's [k, m] slice of a [C, k, m] stack: [R, m]."""
        out = np.empty((self.owner.size, w.shape[-1]))
        for clients, span, count, width in self.runs:
            np.matmul(rows[span].reshape(count, width, -1), w[clients], out=out[span].reshape(count, width, -1))
        return out

    def outer(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a_c.T @ b_c per client, from [R, k] and [R, m] rows: [C, k, m].

        A width-1 run is a broadcast product, faster than a k = 1 matmul and
        equal to it, signed zeros aside, once `_accumulate` adds 0.0.
        """
        out = np.empty((self.widths.size, a.shape[-1], b.shape[-1]))
        for clients, span, count, width in self.runs:
            product = np.multiply if width == 1 else np.matmul
            product(a[span].reshape(count, width, -1).swapaxes(-1, -2), b[span].reshape(count, width, -1), out=out[clients])
        return out

    def sum(self, rows: np.ndarray) -> np.ndarray:
        """Each client's rows summed, [R, ...] to [C, ...], as `_unbroadcast` sums them."""
        out = np.empty((self.widths.size, *rows.shape[1:]))
        for clients, span, count, width in self.runs:
            np.add.reduce(rows[span].reshape(count, width, *rows.shape[1:]), axis=1, out=out[clients])
        return out


def trunk_forward(x: np.ndarray, layers: Sequence["Dense"], tanh: bool = False, segments: Segments | None = None) -> tuple:
    """relu(h @ w + b) per hidden layer, then h @ w + b, then tanh with `tanh`: the output and each layer's input.

    [K, in, out] weights and [K, 1, out] biases (see `stack`) map a [batch, in] input to [K, batch, out], one
    np.matmul per layer. With `segments`, x holds the [R, in] rows of the C clients of a [C, in, out] stack, each
    client's rows through its own slice: the matmuls run once per run of equal width, all else once over all rows.
    """

    def affine(h, layer):  # a fresh array, which the ops after it may overwrite
        if segments is None:
            out = h @ layer.w.data
            out += layer.b.data
        else:
            out = segments.matmul(h, layer.w.data)
            out += layer.b.data[segments.owner, 0]  # each row's owner's bias
        return out

    hs = [x]
    for layer in layers[:-1]:
        # np.maximum, not np.where: a nan input must poison the output, not
        # silently turn into 0 and hide a diverged model
        h = affine(hs[-1], layer)
        hs.append(np.maximum(h, 0.0, out=h))
    out = affine(hs[-1], layers[-1])
    return (np.tanh(out) if tanh else out), hs


def trunk_backward(
    g: np.ndarray, hs: list, out: np.ndarray, layers: Sequence["Dense"], tanh: bool = False, segments: Segments | None = None,
    params: bool = True, to_input: bool = True,
) -> tuple:
    """A trunk's gradients from g on its output: [(w, b)] per layer ([] without `params`), and the input's or None.

    The numpy ops are those of the unfused matmul/add/relu/tanh chain, in its order, so the bits are too; the
    caller adds 0.0 to each, as `_accumulate` does. A stack's input gradient keeps g's leading axes.
    """
    if tanh:
        g = np.add(g * (1.0 - out * out), 0.0)
    grads, g_in = [], None
    for i in range(len(layers) - 1, -1, -1):
        w, b = layers[i].w.data, layers[i].b.data
        if params:
            g_w = hs[i].swapaxes(-1, -2) @ g if segments is None else segments.outer(hs[i], g)
            grads.append((g_w, _unbroadcast(g, b.shape) if segments is None else segments.sum(g)[:, None]))
        if not (i or to_input):
            break
        w_t = w.swapaxes(-1, -2)
        g_in = g @ w_t if segments is None else segments.matmul(g, w_t)
        if i:  # in place: a broadcast mask product into fresh arrays measured 4x slower
            g_in *= hs[i] > 0
            g = np.add(g_in, 0.0, out=g_in)
    return grads[::-1], (g_in if to_input else None)


def mlp(x, layers: Sequence["Dense"], tanh: bool = False, segments: Segments | None = None) -> Tensor:
    """A dense trunk as one node on `trunk_forward` and `trunk_backward`.

    The backward feeds only what the unfused chain would have fed: a frozen weight or a constant input gets
    nothing. For a stack, the K gradients of a [batch, in] input are added in order k = 0..K-1, and those of a
    [2, K, batch, out] gradient in C order.
    """
    x = as_tensor(x)
    out, hs = trunk_forward(x.data, layers, tanh, segments)
    params = tuple(t for layer in layers for t in (layer.w, layer.b))

    def bwd(g):
        grads, g_in = trunk_backward(g, hs, out, layers, tanh, segments, any(p.requires_grad for p in params), x.needs_grad())
        for layer, (g_w, g_b) in zip(layers, grads):
            if layer.b.requires_grad:
                _accumulate(layer.b, g_b, owned=segments is not None)
            if layer.w.requires_grad:
                _accumulate(layer.w, g_w, owned=True)
        if g_in is not None:  # each [batch, in] slice in order, over every leading axis; without a stack the one slice
            for part in g_in.reshape(-1, *x.data.shape):
                _accumulate(x, part)

    return _node(out, (x, *params), bwd)


class SoftmaxRows:
    """Softmax and log-softmax over the last axis from one finiteness check, shift, exp and row sum."""

    def __init__(self, logits: np.ndarray, op: str):
        if not np.isfinite(logits).all():  # the optimization blew up somewhere upstream
            raise DivergenceError(f"non-finite logits in {op}")
        self.shifted = logits - logits.max(axis=-1, keepdims=True)
        self.exp = np.exp(self.shifted)
        self.sums = self.exp.sum(axis=-1, keepdims=True)

    def probs(self) -> np.ndarray:
        return self.exp / self.sums

    def log_probs(self) -> np.ndarray:
        return self.shifted - np.log(self.sums)


def softmax_grad(probs: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The logits' gradient from a gradient g on their softmax probs."""
    return probs * (g - (g * probs).sum(axis=-1, keepdims=True))


def softmax(logits) -> Tensor:
    """Softmax over the last axis."""
    t = as_tensor(logits)
    out_data = SoftmaxRows(t.data, "softmax").probs()

    def bwd(g):
        if t.needs_grad():
            _accumulate(t, softmax_grad(out_data, g), owned=True)

    return _node(out_data, (t,), bwd)


_DISTANCE_BLOCK = 40_000  # differences per block: blocks of 6-13 rows at [50, 100] took 0.3-0.4 ms, one 0.6 ms


def distances(x: np.ndarray) -> np.ndarray:
    """Distances between the rows of [n, D] x, with the bits of np.sum over the [n, n, D] differences.

    numpy adds fewer than 8 values one by one, so a small D adds [n, n] planes in turn. Otherwise
    blocks of rows take the rows from their first on, and are mirrored: x_i - x_j is -(x_j - x_i).
    """
    n, dim = x.shape
    if dim < 8:
        squares = np.zeros((n, n))
        for col in x.T:
            diff = col[:, None] - col[None, :]
            squares += diff * diff
        return np.sqrt(squares)
    d, rows = np.empty((n, n)), max(1, _DISTANCE_BLOCK // max(n * dim, 1))
    for first in range(0, n, rows):
        block = slice(first, first + rows)
        diff = x[block, None, :] - x[None, first:, :]
        np.multiply(diff, diff, out=diff)  # in place: a second block buffer costs more than the square
        d[block, first:] = np.sqrt(diff.sum(axis=2))
        d[first:, block] = d[block, first:].T
    return d


def distances_grad(x: np.ndarray, d: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The [n, D] rows' gradient from a gradient g on their distances d; a zero distance passes none."""
    w = np.zeros_like(d)
    np.divide(g + g.T, d, out=w, where=d > 0)
    return w.sum(axis=1)[:, None] * x - w @ x


# ---------------------------------------------------------------------------
# losses

_PROB_FLOOR = 1e-12


def sum_per_teacher(terms: np.ndarray) -> float:
    """Each teacher's terms summed, then the K sums added one at a time, k = 0..K-1.

    This is the order of a chain of per-teacher add nodes. Summing over the
    teacher axis at once would sum pairwise from K = 8 on and move bits.
    """
    total = terms[0].sum()
    for t in terms[1:]:
        total = total + t.sum()
    return total


def kl_terms(pk: np.ndarray, q: np.ndarray, wk: np.ndarray):
    """sum_k sum_i wk[k, i] * KL(pk[k, i] || q[i]), and its backward to pk (2 parts) and q (K parts), in order."""
    p_floor, q_floor = np.maximum(pk, _PROB_FLOOR), np.maximum(q, _PROB_FLOOR)
    log_ratio = np.log(p_floor) - np.log(q_floor)

    def bwd(g, p_side: bool, q_side: bool):
        # per teacher, the backward of the clamp/log/sub/mul/sum chain and its weighting mul and tsum
        g = np.broadcast_to(np.expand_dims(np.add(g * wk, 0.0), -1), log_ratio.shape)
        g_ratio = np.add(g * pk, 0.0)
        p_parts = (g * log_ratio, np.add(g_ratio / p_floor, 0.0) * (pk > _PROB_FLOOR)) if p_side else ()
        q_parts = np.add(np.add(-g_ratio, 0.0) / q_floor, 0.0) * (q > _PROB_FLOOR) if q_side else ()
        return p_parts, q_parts

    return sum_per_teacher((pk * log_ratio).sum(axis=-1) * wk), bwd


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
        raise InvalidInputError(f"weighted_kl shape mismatch: p {p.data.shape}, q {q.data.shape}, weights {weights.shape}")
    value, kl_bwd = kl_terms(pk, q.data, wk)

    def bwd(g):
        p_parts, q_parts = kl_bwd(g, p.needs_grad(), q.needs_grad())
        for part in p_parts:
            _accumulate(p, part.reshape(p.data.shape))
        for part in q_parts:
            _accumulate(q, part)

    return _node(value, (p, q), bwd)


def kl_divergence(p, q) -> Tensor:
    """Mean over rows of KL(p || q); accepts a single distribution or a batch of rows."""
    p, q = as_tensor(p), as_tensor(q)
    if p.data.shape != q.data.shape:
        raise InvalidInputError(f"kl_divergence shape mismatch: {p.data.shape} vs {q.data.shape}")
    rows = 1 if p.data.ndim == 1 else p.data.shape[0]
    return mul(weighted_kl(p, q, np.ones(p.data.shape[:-1])), 1.0 / rows)


def label_grad(log_probs: np.ndarray, index: tuple, g_picked: np.ndarray) -> np.ndarray:
    """The logits' gradient from a gradient on log_probs[index], as the log_softmax/take_per_row chain gives it."""
    g = np.zeros_like(log_probs)
    g[index] += g_picked
    return g - np.exp(log_probs) * g.sum(axis=-1, keepdims=True)


def label_terms(log_probs: np.ndarray, index: tuple, weights: np.ndarray):
    """sum_k sum_i weights[k, i] * log_probs[index][k, i], and its backward from a scalar to the logits."""
    picked = log_probs[index]

    def bwd(g):
        return label_grad(log_probs, index, np.add(np.broadcast_to(g, picked.shape) * weights, 0.0))

    return sum_per_teacher(picked * weights), bwd


def _label_log_probs(logits: Tensor, labels, stacked: bool) -> tuple[np.ndarray, tuple]:
    """log softmax(logits), after checking them and the labels, and the index of each row's label.

    Stacked logits carry a leading axis of K teachers that share the
    [batch] labels.
    """
    if logits.data.ndim != 2 + stacked:
        raise InvalidInputError("expected [K, batch, classes] logits" if stacked else "expected [batch, classes] logits")
    rows = SoftmaxRows(logits.data, "log_softmax")
    labels = np.asarray(labels, dtype=np.int64)
    n, c = logits.data.shape[-2:]
    if labels.shape != (n,):
        raise InvalidInputError("one label per row required")
    if labels.size and (labels.min() < 0 or labels.max() >= c):
        raise InvalidInputError(f"label out of range [0, {c})")
    return rows.log_probs(), (..., np.arange(n), labels)


def cross_entropy(logits, labels, segments: Segments | None = None) -> Tensor:
    """Mean negative log-likelihood of integer labels under softmax(logits), one node.

    With `segments`, the [R, classes] logits are the rows of C clients and
    the value is the [C] per-client means, each taken as a client alone
    would: its own sum, times -1/width.
    """
    logits = as_tensor(logits)
    log_probs, index = _label_log_probs(logits, labels, stacked=False)
    picked = log_probs[index]
    if segments is None:
        total, scale = picked.sum(), np.asarray(-1.0 / picked.size)
    else:
        total, scale = segments.sum(picked), -1.0 / segments.widths

    def bwd(g):
        g = np.add(g * scale, 0.0)
        g = g if segments is None else g[segments.owner]  # each client's gradient on its rows
        _accumulate(logits, label_grad(log_probs, index, g), owned=True)

    return _node(total * scale, (logits,), bwd)


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
        for p in self.parameters():  # a model starts with no gradient, so it cannot step before a backward
            p.grad = None

    def parameters(self) -> list[Tensor]:
        return [t for layer in self.layers for t in (layer.w, layer.b)]

    @property
    def param_count(self) -> int:
        return sum(p.data.size for p in self.parameters())

    def param_vector(self) -> np.ndarray:
        """The parameters flattened in order: [P] for one model, [C, P] rows for a stack of C."""
        lead = self.layers[0].w.data.shape[:-2]  # row sizes by name: reshape cannot infer -1 from zero rows
        rows = [p.data.reshape(*lead, math.prod(p.data.shape[len(lead) :])) for p in self.parameters()]
        return np.concatenate(rows, axis=-1)

    def load_param_vector(self, vec: np.ndarray) -> None:
        """Load a flat [P] vector, or [C, P] rows as a stack ([C, in, out] weights, [C, 1, out] biases); drops every gradient."""
        vec = np.asarray(vec, dtype=np.float64)
        if vec.ndim not in (1, 2) or vec.shape[-1] != self.param_count:
            raise InvalidInputError(f"expected a flat vector of {self.param_count} values, got shape {vec.shape}")
        lead = vec.shape[:-1]
        offset = 0
        for p in self.parameters():
            n, shape = p.data.size, p.data.shape
            if lead and len(shape) == 1:
                shape = (1, *shape)
            p.data, p.grad = vec[..., offset : offset + n].reshape(*lead, *shape).copy(), None
            offset += n

    def step(self, lr: float, weight_decay: float = 0.0) -> None:
        """One SGD update with coupled weight decay: p <- p - lr * (g + weight_decay * p).

        A step spends the gradients of one backward and sets each to None.
        It refuses a missing or non-finite gradient before any parameter
        moves, and then keeps them all. The update runs the formula's ops
        in its order, in one buffer per parameter.
        """
        params = self.parameters()
        if any(p.grad is None for p in params):
            raise InvalidStateError("step without a gradient: run backward first")
        if not all(np.isfinite(p.grad).all() for p in params):
            raise DivergenceError("non-finite gradient")
        for p in params:
            update = np.multiply(weight_decay, p.data)
            np.add(p.grad, update, out=update)
            np.multiply(lr, update, out=update)
            p.data, p.grad = np.subtract(p.data, update, out=update), None


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

    def forward(self, batch, segments: Segments | None = None) -> Tensor:
        """Logits of a [batch, in] input; with `segments`, of the rows of a stack's clients (see `mlp`)."""
        h = as_tensor(batch)
        if h.data.ndim != 2 or h.data.shape[-1] != self.in_dim:
            raise InvalidInputError(f"expected a [batch, {self.in_dim}] input, got shape {h.data.shape}")
        return mlp(h, self.layers, segments=segments)

    def spawn(self, vec: np.ndarray) -> "Classifier":
        """A same-shape classifier loaded from a flat vector; [C, P] rows give a stack of C."""
        twin = Classifier(self.in_dim, self.num_classes, self.hidden, rng=None)
        twin.load_param_vector(vec)
        return twin


def stack(models: Sequence[Classifier]) -> Classifier:
    """Same-shape classifiers as one frozen stack, for forward passes only.

    `forward` maps a [batch, in] input to [K, batch, classes] logits, and
    slice k equals models[k].forward bit for bit.
    """
    stacked = models[0].spawn(np.stack([m.param_vector() for m in models]))
    for p in stacked.parameters():  # loading dropped every gradient
        p.requires_grad = False
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
        embed = np.zeros((num_classes, embed_dim)) if rng is None else rng.normal(0.0, 1.0, size=(num_classes, embed_dim))
        self.embed = Tensor(embed, requires_grad=True)  # drawn before the trunk
        super().__init__([noise_dim + embed_dim, *hidden, sample_dim], rng)

    def parameters(self) -> list[Tensor]:
        return [self.embed, *super().parameters()]

    def check(self, noise: np.ndarray, labels: np.ndarray) -> None:
        """Refuse noise that is not [batch, noise_dim], or labels that are not one embedding row per noise row."""
        if noise.ndim != 2 or noise.shape[1] != self.noise_dim:
            raise InvalidInputError(f"expected [batch, {self.noise_dim}] noise, got shape {noise.shape}")
        if labels.shape != (noise.shape[0],):
            raise InvalidInputError("one label per noise row required")
        _check_rows(labels, self.embed.data.shape[0])

    def forward(self, noise, labels) -> Tensor:
        z, labels = as_tensor(noise), np.asarray(labels, dtype=np.int64)
        self.check(z.data, labels)
        return mlp(concat(z, embedding_rows(self.embed, labels)), self.layers, tanh=True)

    def trunk(self, noise: np.ndarray, labels: np.ndarray) -> tuple:
        """`forward` off the tape, for inputs that passed `check`: the samples and each layer's input."""
        return trunk_forward(np.concatenate([noise, self.embed.data[labels]], axis=1), self.layers, tanh=True)


def accuracy(model: Classifier, features: np.ndarray, labels: np.ndarray) -> float:
    """Share of argmax predictions equal to the labels."""
    labels = np.asarray(labels)
    if labels.size == 0:
        return float("nan")
    return float(np.mean(np.argmax(model.forward(features).data, axis=1) == labels))
