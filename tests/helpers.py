"""Shared test oracles: finite differences, plain-numpy reference math."""
from __future__ import annotations

import numpy as np

from disue import nn
from disue.clustering import DAMPING, MAX_SWEEPS, STABLE_SWEEPS, ClusterPartition, SimilarityMatrix
from disue.data import Dataset
from disue.errors import DivergenceError, InvalidInputError, InvalidStateError
from disue.orchestrator import ClientShard, FederatedData


def bits(a) -> tuple:
    """An array's dtype, shape and bytes: equal exactly when the arrays are equal bit for bit."""
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


def numeric_gradient(f, vec: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function of a flat vector."""
    grad = np.zeros_like(vec)
    for i in range(vec.size):
        up, down = vec.copy(), vec.copy()
        up[i] += h
        down[i] -= h
        grad[i] = (f(up) - f(down)) / (2.0 * h)
    return grad


def model_gradient(model, loss_fn) -> np.ndarray:
    """Autodiff gradient of loss_fn(model) flattened in parameter order."""
    loss = loss_fn(model)
    nn.backward(loss)
    return np.concatenate([p.grad.ravel() for p in model.parameters()])


def max_rel_error(a: np.ndarray, b: np.ndarray) -> float:
    """Worst-case |a-b| / max(1, |a|, |b|), the gradcheck metric."""
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / denom))


def ref_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def ref_kl(p: np.ndarray, q: np.ndarray) -> float:
    """Row-mean KL with the same clamping contract as the library."""
    p = np.atleast_2d(np.asarray(p, dtype=float))
    q = np.atleast_2d(np.asarray(q, dtype=float))
    q = np.maximum(q, 1e-12)
    terms = np.where(p > 0, p * (np.log(np.maximum(p, 1e-12)) - np.log(q)), 0.0)
    return float(terms.sum(axis=1).mean())


def ref_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    probs = ref_softmax(np.atleast_2d(logits))
    return float(-np.log(probs[np.arange(len(labels)), labels]).mean())


def freeze(module: nn.Module) -> nn.Module:
    """Stop every parameter of module from taking a gradient; returns module."""
    for p in module.parameters():
        p.requires_grad = False
        p.grad = None
    return module


@nn.FLOAT_POLICY  # the simulator's policy: a diverging client reaches the finiteness check
def reference_local_train(data: Dataset, init_params, template, epochs, lr, batch_size, weight_decay, rng):
    """One client's local SGD, step by step: the oracle of the stacked `local_train`.

    Returns (parameters, mean training loss, diverged); a divergent client
    reports a copy of its pre-training parameters.
    """
    if data.n < 1:
        raise InvalidInputError("cannot train on an empty shard")
    model = template.spawn(init_params)
    losses: list[float] = []
    try:
        for _ in range(epochs):
            if batch_size >= data.n:
                batches = [np.arange(data.n)]
            else:
                order = rng.permutation(data.n)
                batches = [order[start : start + batch_size] for start in range(0, data.n, batch_size)]
            for idx in batches:
                loss = nn.cross_entropy(model.forward(data.features[idx]), data.labels[idx])
                if not np.isfinite(loss.item()):
                    raise DivergenceError("non-finite training loss")
                losses.append(loss.item())
                nn.backward(loss)
                model.step(lr, weight_decay)
    except DivergenceError:
        return init_params.copy(), float("nan"), True
    return model.param_vector(), float(np.mean(losses)), False


def reference_cover_empty_clients(pools: list[np.ndarray]) -> None:
    """Give each empty pool one sample from the largest pool, rescanning every pool after each move."""
    while True:
        empty = [c for c, pool in enumerate(pools) if pool.size == 0]
        if not empty:
            return
        sizes = np.array([pool.size for pool in pools])
        donor = int(np.argmax(sizes))
        if sizes[donor] < 2:
            raise InvalidStateError("not enough samples to give every client one")
        target = empty[0]
        pools[target] = pools[donor][-1:]
        pools[donor] = pools[donor][:-1]


def identical_client_data(n_clients: int, per_class: int, num_classes: int = 4) -> FederatedData:
    """Every client holds the same 2D shard: the degenerate IID regime."""
    rng = np.random.default_rng(0)
    feats = []
    labels = []
    for c in range(num_classes):
        center = np.array([np.cos(2 * np.pi * c / num_classes), np.sin(2 * np.pi * c / num_classes)])
        feats.append(center + 0.3 * rng.normal(size=(per_class, 2)))
        labels.append(np.full(per_class, c, dtype=np.int64))
    X = np.concatenate(feats)
    y = np.concatenate(labels)
    clients = []
    for cid in range(n_clients):
        train = Dataset(X.copy(), y.copy(), num_classes)
        holdout = Dataset(X[:8].copy(), y[:8].copy(), num_classes)
        clients.append(ClientShard(cid, train, holdout))
    order = np.random.default_rng(1).permutation(X.shape[0])
    return FederatedData(clients, Dataset(X[order], y[order], num_classes))


def well_separated_classifier(rng: np.random.Generator, in_dim: int, hidden: tuple, classes: int, batch: int):
    """A random model and batch whose ReLU preactivations stay away from 0.

    Finite differencing is only valid away from the kink, so resample until
    every hidden preactivation has magnitude above 1e-3.
    """
    from disue.nn import Classifier

    for _ in range(200):
        model = Classifier(in_dim, classes, hidden=hidden, rng=rng)
        x = rng.standard_normal((batch, in_dim))
        ok = True
        h = x
        for layer in model.layers[:-1]:
            pre = h @ layer.w.data + layer.b.data
            if np.min(np.abs(pre)) < 1e-3:
                ok = False
                break
            h = np.maximum(pre, 0.0)
        if ok:
            return model, x
    raise AssertionError("could not build a kink-free test model")


# ---------------------------------------------------------------------------
# unfused tape primitives: the engine computes these chains as fused nodes,
# and the fused nodes must match them bit for bit


def add(a, b) -> nn.Tensor:
    a, b = nn.as_tensor(a), nn.as_tensor(b)

    def bwd(g):
        if a.needs_grad():
            nn._accumulate(a, nn._unbroadcast(g, a.data.shape))
        if b.needs_grad():
            nn._accumulate(b, nn._unbroadcast(g, b.data.shape))

    return nn._node(a.data + b.data, (a, b), bwd)


def sub(a, b) -> nn.Tensor:
    a, b = nn.as_tensor(a), nn.as_tensor(b)

    def bwd(g):
        if a.needs_grad():
            nn._accumulate(a, nn._unbroadcast(g, a.data.shape))
        if b.needs_grad():
            nn._accumulate(b, -nn._unbroadcast(g, b.data.shape))

    return nn._node(a.data - b.data, (a, b), bwd)


def matmul(a, b) -> nn.Tensor:
    a, b = nn.as_tensor(a), nn.as_tensor(b)
    assert a.data.ndim == 2 and b.data.ndim == 2 and a.data.shape[1] == b.data.shape[0]

    def bwd(g):
        if a.needs_grad():
            nn._accumulate(a, g @ b.data.T)
        if b.needs_grad():
            nn._accumulate(b, a.data.T @ g)

    return nn._node(a.data @ b.data, (a, b), bwd)


def relu(a) -> nn.Tensor:
    a = nn.as_tensor(a)
    mask = a.data > 0

    def bwd(g):
        if a.needs_grad():
            nn._accumulate(a, g * mask)

    return nn._node(np.maximum(a.data, 0.0), (a,), bwd)


def tanh(a) -> nn.Tensor:
    a = nn.as_tensor(a)
    out_data = np.tanh(a.data)

    def bwd(g):
        if a.needs_grad():
            nn._accumulate(a, g * (1.0 - out_data * out_data))

    return nn._node(out_data, (a,), bwd)


def exp(a) -> nn.Tensor:
    a = nn.as_tensor(a)
    out_data = np.exp(a.data)

    def bwd(g):
        if a.needs_grad():
            nn._accumulate(a, g * out_data)

    return nn._node(out_data, (a,), bwd)


def log(a) -> nn.Tensor:
    a = nn.as_tensor(a)

    def bwd(g):
        if a.needs_grad():
            nn._accumulate(a, g / a.data)

    return nn._node(np.log(a.data), (a,), bwd)


def clamp_min(a, low: float) -> nn.Tensor:
    a = nn.as_tensor(a)
    mask = a.data > low

    def bwd(g):
        if a.needs_grad():
            nn._accumulate(a, g * mask)

    return nn._node(np.maximum(a.data, low), (a,), bwd)


def row_sum(a) -> nn.Tensor:
    """Sum over the last axis, one value per row."""
    a = nn.as_tensor(a)

    def bwd(g):
        if a.needs_grad():
            nn._accumulate(a, np.broadcast_to(np.expand_dims(g, -1), a.data.shape))

    return nn._node(a.data.sum(axis=-1), (a,), bwd)


def take_per_row(a, index) -> nn.Tensor:
    """out[i] = a[i, index[i]] for a 2-d tensor."""
    a = nn.as_tensor(a)
    index = np.asarray(index, dtype=np.int64)
    rows = np.arange(a.data.shape[0])

    def bwd(g):
        if a.needs_grad():
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            a.grad[rows, index] += g

    return nn._node(a.data[rows, index], (a,), bwd)


def log_softmax(logits) -> nn.Tensor:
    t = nn.as_tensor(logits)
    shifted = t.data - t.data.max(axis=-1, keepdims=True)
    out_data = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    probs = np.exp(out_data)

    def bwd(g):
        if t.needs_grad():
            nn._accumulate(t, g - probs * g.sum(axis=-1, keepdims=True))

    return nn._node(out_data, (t,), bwd)


def unfused_trunk(x, layers, tanh_out: bool = False) -> nn.Tensor:
    """A Dense/relu chain with one node per matmul, bias add and activation."""
    h = nn.as_tensor(x)
    for layer in layers[:-1]:
        h = relu(add(matmul(h, layer.w), layer.b))
    out = add(matmul(h, layers[-1].w), layers[-1].b)
    return tanh(out) if tanh_out else out


def unfused_kl_rows(p, q) -> nn.Tensor:
    p, q = nn.as_tensor(p), nn.as_tensor(q)
    return row_sum(nn.mul(p, sub(log(clamp_min(p, 1e-12)), log(clamp_min(q, 1e-12)))))


def unfused_cross_entropy(logits, labels) -> nn.Tensor:
    return nn.mul(nn.tsum(take_per_row(log_softmax(logits), labels)), -1.0 / len(labels))


def unfused_log_likelihood(logits, labels, weights) -> nn.Tensor:
    return nn.tsum(nn.mul(take_per_row(log_softmax(logits), labels), weights))


def per_teacher_chain(terms) -> nn.Tensor:
    """Per-teacher totals joined by one add node each, k = 0..K-1."""
    total = terms[0]
    for term in terms[1:]:
        total = add(total, term)
    return total


def unfused_weighted_kl(ps, q, weights) -> nn.Tensor:
    """sum_k tsum(weights[k] * KL rows(ps[k] || q)), one chain per teacher."""
    return per_teacher_chain([nn.tsum(nn.mul(unfused_kl_rows(p, q), w)) for p, w in zip(ps, weights)])


def unfused_stacked_log_likelihood(logits, labels, weights) -> nn.Tensor:
    """The label log-likelihood of each teacher's logits, one chain per teacher."""
    return per_teacher_chain([unfused_log_likelihood(z, labels, w) for z, w in zip(logits, weights)])


def branch(t: nn.Tensor) -> nn.Tensor:
    """A second node with t's value and backward, for a second consumer of t.

    Each branch gets its own gradient and runs the backward on it, so t's
    inputs receive one contribution per branch, in backward order, as if t
    had been computed twice. Every backward in the engine reads only its
    argument, never its own node, which is what makes the sharing sound.
    """
    return nn._node(t.data, t._parents, t._bwd)


def broadcast_pairwise_distances(x) -> nn.Tensor:
    """Pairwise row distances from the [n, n, D] differences, each distance computed twice."""
    t = nn.as_tensor(x)
    diff = t.data[:, None, :] - t.data[None, :, :]
    d = np.sqrt((diff * diff).sum(axis=2))

    def bwd(g):
        if t.needs_grad():
            with np.errstate(divide="ignore", invalid="ignore"):
                w = np.where(d > 0, (g + g.T) / np.where(d > 0, d, 1.0), 0.0)
            nn._accumulate(t, w.sum(axis=1)[:, None] * t.data - w @ t.data)

    return nn._node(d, (t,), bwd)


def unfused_generator_objective(stacked, student, batch, gwf, cfg, zdist):
    """The generator objective as a chain of tape nodes, with its component values.

    One teacher forward is read by the cd softmax and by a branch for cf,
    so the teachers' backward runs twice, and the div term is its own
    distance/mul/tsum/mul/exp chain.
    """
    weights = gwf.alpha[:, batch.labels]
    student_probs = nn.softmax(student.forward(batch.samples.data)).data
    logits = stacked.forward(batch.samples)
    cd = nn.mul(nn.weighted_kl(nn.softmax(logits), student_probs, weights), 1.0 / batch.size)
    cf = nn.mul(nn.log_likelihood(branch(logits), batch.labels, weights), -1.0 / batch.size)
    xdist = broadcast_pairwise_distances(batch.samples)
    div = exp(nn.mul(nn.tsum(nn.mul(xdist, -zdist)), 1.0 / (batch.size * batch.size)))
    signed_cd = cd if cfg.literal_minimax else nn.mul(cd, -1.0)
    objective = add(add(signed_cd, nn.mul(cf, cfg.beta_cf)), nn.mul(div, cfg.beta_div))
    return objective, cd.item(), cf.item(), div.item()


# ---------------------------------------------------------------------------
# affinity propagation with fresh arrays every sweep: the library sweeps
# into preallocated buffers and must match this bit for bit


def reference_affinity_propagation(sim: SimilarityMatrix, preference: float | None = None) -> ClusterPartition:
    n = sim.n
    off_diag = sim.values[~np.eye(n, dtype=bool)]
    pref = float(np.median(off_diag)) if preference is None else float(preference)
    s = sim.values.copy()
    np.fill_diagonal(s, pref)

    r = np.zeros((n, n))
    a = np.zeros((n, n))
    idx = np.arange(n)
    exemplars = np.zeros(n, dtype=bool)
    stable = 0
    it = 0
    for it in range(1, MAX_SWEEPS + 1):
        # responsibilities
        aps = a + s
        first_k = np.argmax(aps, axis=1)
        first = aps[idx, first_k]
        aps[idx, first_k] = -np.inf
        second = aps.max(axis=1)
        r_new = s - first[:, None]
        r_new[idx, first_k] = s[idx, first_k] - second
        r = DAMPING * r + (1.0 - DAMPING) * r_new

        # availabilities
        rp = np.maximum(r, 0.0)
        np.fill_diagonal(rp, r.diagonal())
        col = rp.sum(axis=0)
        a_new = col[None, :] - rp
        diag = a_new.diagonal().copy()
        a_new = np.minimum(a_new, 0.0)
        np.fill_diagonal(a_new, diag)
        a = DAMPING * a + (1.0 - DAMPING) * a_new

        current = (r.diagonal() + a.diagonal()) > 0
        stable = stable + 1 if np.array_equal(current, exemplars) else 0
        exemplars = current
        if stable >= STABLE_SWEEPS:
            break

    exemplar_idx = np.flatnonzero(exemplars)
    fallback = exemplar_idx.size == 0
    converged = stable >= STABLE_SWEEPS and not fallback
    if fallback:
        totals = sim.values.sum(axis=1)
        exemplar_idx = np.array([int(np.argmax(totals))])

    labels = np.argmax(sim.values[:, exemplar_idx], axis=1)
    labels[exemplar_idx] = np.arange(exemplar_idx.size)
    members: list[list[int]] = [[] for _ in range(exemplar_idx.size)]
    for i in range(n):
        members[labels[i]].append(sim.client_ids[i])
    return ClusterPartition(
        members=members,
        exemplars=[sim.client_ids[int(e)] for e in exemplar_idx],
        n_iterations=it,
        converged=converged,
        fallback=fallback,
    )
