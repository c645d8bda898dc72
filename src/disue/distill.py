"""Data-free fusion of cluster models into one universal model.

Each round the server alternates two phases over a conditional generator
and the freshly averaged global model (the student):

  (a) generator phase: synthesize a batch conditioned on sampled labels
      and push it where the cluster teachers disagree with the student,
      while staying class-faithful (cf term) and diverse (div term);
  (b) student phase: regenerate the batch with the frozen generator and
      pull the student toward the per-class-weighted teacher predictions.

Stop gradients follow the alternating structure: the student distribution
is a constant during (a) and the teacher distributions are constants
during (b). Teacher parameters are never updated; generator gradients
reach the teachers only through the synthesized samples.

Within one alternation the noise and labels are fixed, so they are
checked once, and the noise distances for the div term, each sample's
teacher shares and the teachers' softmax on the frozen student-phase
samples are computed once per alternation, not per step.

How the teachers are computed. iga_round stacks the K teachers once per
round into [K, in, out] weights (nn.stack): one np.matmul per layer runs
them all, and the cd and cf totals are sums over [K, Q] per-sample
teacher shares. The generator and student steps run off the tape, each
as one function on numpy arrays that ends in the model's own step. A
generator step's one teacher forward feeds cd's softmax and cf's
log-softmax, and one teacher backward takes both logit gradients as [2,
K, Q, classes]. The steps replay the numpy ops of the one-op-per-node
chain they replace, through the kernels of nn's own nodes and its trunk
kernel, so every output byte is unchanged. That fixes the order of every
sum over teachers: the K totals are added one at a time, and the
samples' gradient gets cd_0 .. cd_{K-1}, then cf_0 .. cf_{K-1}, then
div. Summing over the teacher axis at once, or the two gradients before
the backward, would move bits.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import nn
from .aggregation import GlsDistribution, GwfWeights, sample_labels
from .config import DistillConfig
from .errors import DivergenceError, InvalidInputError
from .nn import Classifier, Generator, Tensor


@dataclass
class PseudoBatch:
    """One synthesized batch: the noise and labels that produced the samples."""

    noise: np.ndarray  # [Q, noise_dim]
    labels: np.ndarray  # [Q] int64
    samples: Tensor  # [Q, sample_dim]; on the tape when generated by a live generator

    @property
    def size(self) -> int:
        return int(self.labels.shape[0])


@dataclass
class IgaRecord:
    """Loss bookkeeping for one optimization step inside iga_round."""

    phase: str  # "gen" or "student"
    inner_iter: int
    loss_cd: float
    loss_cf: float = float("nan")
    loss_div: float = float("nan")
    objective: float = float("nan")  # generator objective, gen phase only


@dataclass
class IgaResult:
    trace: list[IgaRecord] = field(default_factory=list)
    diverged: bool = False

    def mean_losses(self) -> tuple[float, float, float]:
        """Mean (cd, cf, div) over the round, cd from student steps."""
        cd = [rec.loss_cd for rec in self.trace if rec.phase == "student"]
        cf = [rec.loss_cf for rec in self.trace if rec.phase == "gen"]
        dv = [rec.loss_div for rec in self.trace if rec.phase == "gen"]
        to_mean = lambda xs: float(np.mean(xs)) if xs else float("nan")
        return to_mean(cd), to_mean(cf), to_mean(dv)


def _draw_labels_and_noise(
    gls: GlsDistribution, count: int, noise_dim: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Labels first, then noise: the draw order is part of the seed stream."""
    labels = sample_labels(gls, count, rng)
    noise = rng.standard_normal((count, noise_dim))
    return labels, noise


def loss_cd(teacher_probs: np.ndarray, student: Classifier, batch: PseudoBatch, gwf: GwfWeights) -> Tensor:
    """Cluster-distillation loss, student side live, teacher side constant.

    For every sample, the KL from each teacher's softmax to the student's is
    weighted by that teacher's share of the sample's conditioning class.
    `teacher_probs` is the stacked teachers' softmax on batch.samples,
    [K, Q, classes].
    """
    student_probs = nn.softmax(student.forward(batch.samples.data))  # samples constant for the student update
    return nn.mul(nn.weighted_kl(teacher_probs, student_probs, gwf.alpha[:, batch.labels]), 1.0 / batch.size)


def loss_cf(teacher_logits: Tensor, batch: PseudoBatch, gwf: GwfWeights) -> Tensor:
    """Class-fidelity loss: weighted teacher cross-entropy on the synthesized batch.

    `teacher_logits` is the stacked teachers' forward on batch.samples,
    [K, Q, classes] and live through the samples, so gradients reach the
    generator while teacher parameters stay frozen. The total is one node
    on nn's label kernels, which the generator step's objective shares.
    """
    logits = nn.as_tensor(teacher_logits)
    log_probs, index = nn._label_log_probs(logits, batch.labels, stacked=True)
    weights = gwf.alpha[:, batch.labels]
    if weights.shape != log_probs.shape[:-1]:
        raise InvalidInputError(f"loss_cf expects gwf weights of shape {log_probs.shape[:-1]}, got {weights.shape}")
    value, ll_bwd = nn.label_terms(log_probs, index, weights)
    return nn.mul(nn._node(value, (logits,), lambda g: nn._accumulate(logits, ll_bwd(g), owned=True)), -1.0 / batch.size)


def _diversity(x: np.ndarray, zdist: np.ndarray):
    """exp(mean of -||x_i - x_j|| * zdist) over [Q, D] samples x, and its backward to x, as the distance chain computes them."""
    xdist, neg_zdist, scale = nn.distances(x), -zdist, 1.0 / zdist.size
    value = np.exp(float((xdist * neg_zdist).sum()) * scale)

    def bwd(g):
        g_sum = (g * value + 0.0) * scale + 0.0
        return nn.distances_grad(x, xdist, np.add(np.multiply(g_sum, neg_zdist), 0.0))

    return value, bwd


def loss_div(batch: PseudoBatch) -> Tensor:
    """Diversity loss exp(mean of -||x_i - x_j|| * ||z_i - z_j||); 1 when samples collapse.

    One node on the samples; the generator step computes the same term off the tape.
    """
    value, div_bwd = _diversity(batch.samples.data, nn.distances(batch.noise))
    return nn._node(value, (batch.samples,), lambda g: nn._accumulate(batch.samples, div_bwd(g), owned=True))


def _gathered(parts) -> np.ndarray:
    """The parts of one gradient added one at a time, as `nn._accumulate` gathers them."""
    total = np.add(parts[0], 0.0)
    for part in parts[1:]:
        total += part
    return total


def _set_grads(module: nn.Module, grads) -> None:
    """Store `nn.trunk_backward`'s gradients as a backward would: each plus 0.0."""
    for layer, (g_w, g_b) in zip(module.layers, grads):
        layer.w.grad, layer.b.grad = np.add(g_w, 0.0, out=g_w), np.add(g_b, 0.0)


def _generator_step(generator, stacked, student, noise, labels, zdist, weights, cfg, trace, inner) -> None:
    """One generator step off the tape: forward, objective, its gradient to every generator parameter, step, record.

    The generator ascends cd, except in the flipped composition, where it
    descends all three terms together. The scalar chain runs in Python
    floats, which round as the 0-d arrays of the tape's chain do. The
    student and the teachers are constants: only the generator steps.
    """
    q = labels.size
    samples, gen_hs = generator.trunk(noise, labels)
    student_probs = nn.SoftmaxRows(nn.trunk_forward(samples, student.layers)[0], "softmax").probs()
    logits, teacher_hs = nn.trunk_forward(samples, stacked.layers)
    rows = nn.SoftmaxRows(logits, "softmax")
    probs, log_probs = rows.probs(), rows.log_probs()
    kl, kl_bwd = nn.kl_terms(probs, student_probs, weights)
    ll, ll_bwd = nn.label_terms(log_probs, (..., np.arange(q), labels), weights)
    div, div_bwd = _diversity(samples, zdist)
    cd, cf = float(kl) * (1.0 / q), float(ll) * (-1.0 / q)
    signed_cd = cd if cfg.literal_minimax else cd * -1.0
    objective = float(signed_cd + cf * cfg.beta_cf + div * cfg.beta_div)
    if not np.isfinite(objective):
        raise DivergenceError("non-finite generator objective")
    # the objective's gradient 1.0, passed on by each add node as g + 0.0
    g_cd = 1.0 if cfg.literal_minimax else -1.0
    g_probs = _gathered(kl_bwd(g_cd * (1.0 / q) + 0.0, True, False)[0])
    g_logits = np.stack([nn.softmax_grad(probs, g_probs), ll_bwd((cfg.beta_cf + 0.0) * (-1.0 / q) + 0.0)])
    _, g_in = nn.trunk_backward(np.add(g_logits, 0.0, out=g_logits), teacher_hs, logits, stacked.layers, params=False)
    g_samples = _gathered(g_in.reshape(-1, *samples.shape))  # cd_0 .. cd_{K-1}, then cf_0 .. cf_{K-1}
    g_samples += div_bwd(cfg.beta_div + 0.0)  # then div
    grads, g_x = nn.trunk_backward(g_samples, gen_hs, samples, generator.layers, tanh=True)
    generator.embed.grad = np.zeros_like(generator.embed.data)
    np.add.at(generator.embed.grad, labels, g_x[:, generator.noise_dim :])  # the embedding rows beside the noise
    _set_grads(generator, grads)
    generator.step(cfg.gen_lr)
    trace.append(IgaRecord("gen", inner, cd, cf, float(div), objective))


def _student_step(student, samples, teacher_probs, weights, lr, trace, inner) -> None:
    """One student step off the tape: loss_cd's value, its record, its gradient to the student, then the step.

    At cd's exact minimum the true logit gradient is zero, so the step is
    skipped instead of applying float residue; the record is kept.
    """
    logits, hs = nn.trunk_forward(samples, student.layers)
    probs = nn.SoftmaxRows(logits, "softmax").probs()
    kl, kl_bwd = nn.kl_terms(teacher_probs, probs, weights)
    cd = float(kl) * (1.0 / samples.shape[0])
    if not np.isfinite(cd):
        raise DivergenceError("non-finite distillation loss")
    trace.append(IgaRecord("student", inner, cd))
    if cd == 0.0:
        return
    g_logits = nn.softmax_grad(probs, _gathered(kl_bwd(1.0 / samples.shape[0], False, True)[1]))
    grads, _ = nn.trunk_backward(np.add(g_logits, 0.0, out=g_logits), hs, logits, student.layers, to_input=False)
    _set_grads(student, grads)
    student.step(lr)


@nn.FLOAT_POLICY
def iga_round(
    teachers: Sequence[Classifier],
    student: Classifier,
    generator: Generator,
    gls: GlsDistribution,
    gwf: GwfWeights,
    cfg: DistillConfig,
    rng: np.random.Generator,
) -> IgaResult:
    """One full inter-group aggregation pass: alternate generator and student updates.

    The student and the generator are updated in place. On divergence
    (non-finite loss or gradient) the pass stops and the result is flagged;
    both models are then left mid-update, and a caller that built them for
    this pass drops them.
    """
    if not teachers or gwf.alpha.shape[0] != len(teachers):
        raise InvalidInputError(f"iga_round needs a teacher and a gwf row per teacher, got {len(teachers)} and {gwf.alpha.shape[0]}")
    stacked = nn.stack(teachers)
    trace: list[IgaRecord] = []
    try:
        for inner in range(cfg.inner_iters):
            labels, noise = _draw_labels_and_noise(gls, cfg.pseudo_batch, generator.noise_dim, rng)
            generator.check(noise, labels)  # fixed for the alternation, so checked once
            zdist, weights = nn.distances(noise), gwf.alpha[:, labels]
            for _ in range(cfg.gen_steps):
                _generator_step(generator, stacked, student, noise, labels, zdist, weights, cfg, trace, inner)
            fixed = generator.trunk(noise, labels)[0]
            fixed_probs = nn.SoftmaxRows(nn.trunk_forward(fixed, stacked.layers)[0], "softmax").probs()
            for _ in range(cfg.student_steps):
                _student_step(student, fixed, fixed_probs, weights, cfg.student_lr, trace, inner)
    except DivergenceError:
        return IgaResult(trace, diverged=True)
    return IgaResult(trace)
