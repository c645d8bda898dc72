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

Within one alternation the noise and labels are fixed, so the noise
distances for the div term and the teachers' softmax on the frozen
student-phase samples are computed once per alternation, not per step.

How the teachers are computed. iga_round stacks the K teachers once per
round into [K, in, out] weights (nn.stack): one np.matmul per layer runs
them all, and the cd and cf totals are sums over [K, Q] per-sample
teacher shares. A generator step's objective is one tape node on the
samples: one teacher forward feeds cd's softmax and cf's log-softmax,
and one teacher backward takes both logit gradients as [2, K, Q,
classes]. The node replays the numpy ops of the one-op-per-node chain it
replaces, through the kernels of nn's own nodes, so every output byte is
unchanged. That fixes the order of every sum over teachers: the K
totals are added one at a time, and the samples' gradient gets cd_0 ..
cd_{K-1}, then cf_0 .. cf_{K-1}, then div. Summing over the teacher axis
at once, or the two gradients before the backward, would move bits.
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
    samples: Tensor  # [Q, sample_dim]; graph-attached when generated under grad

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


def teacher_softmax(stacked: Classifier, samples: np.ndarray) -> np.ndarray:
    """[K, Q, classes]: the stacked teachers' class probabilities on a constant batch."""
    with nn.no_grad():
        return nn.softmax(stacked.forward(samples)).data


def loss_cd(teacher_probs: np.ndarray, student: Classifier, batch: PseudoBatch, gwf: GwfWeights) -> Tensor:
    """Cluster-distillation loss, student side live, teacher side constant.

    For every sample, the KL from each teacher's softmax to the student's is
    weighted by that teacher's share of the sample's conditioning class.
    `teacher_probs` is teacher_softmax of the stacked teachers on
    batch.samples, [K, Q, classes].
    """
    student_probs = nn.softmax(student.forward(batch.samples.data))  # samples constant for the student update
    return nn.mul(nn.weighted_kl(teacher_probs, student_probs, gwf.alpha[:, batch.labels]), 1.0 / batch.size)


def loss_cf(teacher_logits: Tensor, batch: PseudoBatch, gwf: GwfWeights) -> Tensor:
    """Class-fidelity loss: weighted teacher cross-entropy on the synthesized batch.

    `teacher_logits` is the stacked teachers' forward on batch.samples,
    [K, Q, classes] and live through the samples, so gradients reach the
    generator while teacher parameters stay frozen.
    """
    return nn.mul(nn.log_likelihood(teacher_logits, batch.labels, gwf.alpha[:, batch.labels]), -1.0 / batch.size)


def _diversity(xdist: np.ndarray, zdist: np.ndarray):
    """exp(mean of -xdist * zdist), and its backward to xdist, as the mul/tsum/mul/exp chain computes them."""
    neg_zdist, scale = -zdist, 1.0 / zdist.size
    value = np.exp(float((xdist * neg_zdist).sum()) * scale)

    def bwd(g):
        g_sum = (g * value + 0.0) * scale + 0.0
        return np.add(np.multiply(g_sum, neg_zdist), 0.0)

    return value, bwd


def loss_div(batch: PseudoBatch) -> Tensor:
    """Diversity loss exp(mean of -||x_i - x_j|| * ||z_i - z_j||); 1 when samples collapse.

    The generator step computes the same term inside its objective node.
    """
    xdist = nn.pairwise_distances(batch.samples)
    value, div_bwd = _diversity(xdist.data, nn.distances(batch.noise))
    return nn._node(value, (xdist,), lambda g: nn._accumulate(xdist, div_bwd(g), owned=True))


def _generator_objective(
    stacked: Classifier, student: Classifier, batch: PseudoBatch, gwf: GwfWeights, cfg: DistillConfig, zdist: np.ndarray
) -> tuple[Tensor, float, float, float]:
    """The scalar the generator minimizes, as one tape node on the samples, plus the component values.

    The generator ascends cd, except in the flipped composition, where it
    descends all three terms together. The scalar chain runs in Python
    floats, which round as the 0-d arrays of the unfused chain do.
    """
    samples, labels, q = batch.samples, batch.labels, batch.size
    weights = gwf.alpha[:, labels]
    with nn.no_grad():
        student_probs = nn.softmax(student.forward(samples.data)).data  # constant for the generator
    logits = stacked.forward(samples)  # not on the tape: the node runs its backward once
    rows = nn.SoftmaxRows(logits.data, "softmax")
    probs, log_probs = rows.probs(), rows.log_probs()
    kl, kl_bwd = nn.kl_terms(probs, student_probs, weights)
    ll, ll_bwd = nn.label_terms(log_probs, (..., np.arange(q), labels), weights)
    xdist = nn.distances(samples.data)
    div, div_bwd = _diversity(xdist, zdist)
    cd, cf = float(kl) * (1.0 / q), float(ll) * (-1.0 / q)
    signed_cd = cd if cfg.literal_minimax else cd * -1.0
    objective = signed_cd + cf * cfg.beta_cf + div * cfg.beta_div

    def bwd(g):
        g = float(g) + 0.0  # what each add node passes on
        g_cd = g if cfg.literal_minimax else g * -1.0 + 0.0
        (p_grad, p_rest), _ = kl_bwd(g_cd * (1.0 / q) + 0.0, True, False)
        p_grad = np.add(p_grad, 0.0, out=p_grad) + p_rest  # as `_accumulate` gathers the probs' gradient
        g_logits = np.stack([nn.softmax_grad(probs, p_grad), ll_bwd((g * cfg.beta_cf + 0.0) * (-1.0 / q) + 0.0)])
        logits._bwd(np.add(g_logits, 0.0, out=g_logits))  # cd_0 .. cd_{K-1}, then cf_0 .. cf_{K-1}, into the samples
        g_xdist = div_bwd(g * cfg.beta_div + 0.0)
        nn._accumulate(samples, nn.distances_grad(samples.data, xdist, g_xdist), owned=True)  # then div

    return nn._node(objective, (samples,), bwd), cd, cf, float(div)


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
    if not teachers:
        raise InvalidInputError("iga_round needs at least one teacher")
    stacked = nn.stack(teachers)
    trace: list[IgaRecord] = []
    try:
        for inner in range(cfg.inner_iters):
            labels, noise = _draw_labels_and_noise(gls, cfg.pseudo_batch, generator.noise_dim, rng)
            zdist = nn.distances(noise)
            for _ in range(cfg.gen_steps):
                batch = PseudoBatch(noise, labels, generator.forward(noise, labels))
                objective, cd_val, cf_val, div_val = _generator_objective(stacked, student, batch, gwf, cfg, zdist)
                if not np.isfinite(objective.item()):
                    raise DivergenceError("non-finite generator objective")
                nn.backward(objective)
                generator.step(cfg.gen_lr)
                trace.append(IgaRecord("gen", inner, cd_val, cf_val, div_val, objective.item()))
            with nn.no_grad():
                frozen_samples = generator.forward(noise, labels)
            fixed = PseudoBatch(noise, labels, frozen_samples)
            fixed_probs = teacher_softmax(stacked, frozen_samples.data)
            for _ in range(cfg.student_steps):
                cd = loss_cd(fixed_probs, student, fixed, gwf)
                if not np.isfinite(cd.item()):
                    raise DivergenceError("non-finite distillation loss")
                trace.append(IgaRecord("student", inner, cd.item()))
                if cd.item() == 0.0:
                    # KL at its exact minimum: the true logit gradient is zero,
                    # so skip the step instead of applying float residue
                    continue
                nn.backward(cd)
                student.step(cfg.student_lr)
    except DivergenceError:
        return IgaResult(trace, diverged=True)
    return IgaResult(trace)
