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

How a generator step is computed. The K teachers are stacked once per
round into [K, in, out] weights (nn.stack), so one np.matmul per layer
runs them all, and every network trunk is a single fused tape node
(nn.mlp). The cd and cf terms read one teacher forward of the samples
through two tape nodes, the forward and its nn.branch, each with its own
backward. The fused nodes replay the numpy ops of the one-op-per-node
chains they replace, so every output byte is unchanged; that also
requires the unfused tape's order of contributions to the samples' gradient:
cd_0 .. cd_{K-1}, then cf_0 .. cf_{K-1}, then div, each added to the sum
in turn. Summing the K teacher gradients at once, or the two branches
before their backward, would change the bits. Against one tape node per
op, this took the `fusion-20` benchmark workload (roundbench/) from 16.5
to 22.5 rounds/s, a median round from 59.1 to 44.1 ms, in 10 alternating
pairs on 2 vCPUs with numpy 2.4.6 and single-threaded OpenBLAS.
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


def _teacher_sample_weights(gwf: GwfWeights, labels: np.ndarray) -> np.ndarray:
    """weights[k, i] = alpha[k, labels[i]]."""
    return gwf.alpha[:, labels]


def _weighted_kl(teacher_probs: Sequence, student_probs, weights: np.ndarray, count: int) -> Tensor:
    """Mean over the batch of sum_k w[k,i] * KL(teacher_k_i || student_i).

    Either side may be a live tensor or a constant; the caller decides the
    stop-gradient placement by what it passes in.
    """
    total = None
    for k, probs in enumerate(teacher_probs):
        contrib = nn.tsum(nn.mul(nn.kl_rows(probs, student_probs), weights[k]))
        total = contrib if total is None else nn.add(total, contrib)
    return nn.mul(total, 1.0 / count)


def teacher_softmax(teachers: Sequence[Classifier] | Classifier, samples: np.ndarray) -> np.ndarray:
    """[K, Q, classes]: each teacher's class probabilities on a constant batch.

    `teachers` is a list of classifiers or their nn.stack.
    """
    stacked = teachers if isinstance(teachers, Classifier) else nn.stack(teachers)
    with nn.no_grad():
        return nn.softmax(stacked.forward(samples)).data


def loss_cd(
    teachers: Sequence[Classifier],
    student: Classifier,
    batch: PseudoBatch,
    gwf: GwfWeights,
    teacher_probs: Sequence[np.ndarray] | None = None,
) -> Tensor:
    """Cluster-distillation loss, student side live, teacher side constant.

    For every sample, the KL from each teacher's softmax to the student's is
    weighted by that teacher's share of the sample's conditioning class.
    `teacher_probs`, when given, must be teacher_softmax(teachers,
    batch.samples.data); callers that reuse one batch pass it to skip the
    teacher forwards.
    """
    if len(teachers) != gwf.num_clusters:
        raise InvalidInputError("one weight row per teacher required")
    x = batch.samples.data  # constant for the student update
    if teacher_probs is None:
        teacher_probs = teacher_softmax(teachers, x)
    student_probs = nn.softmax(student.forward(x))
    weights = _teacher_sample_weights(gwf, batch.labels)
    return _weighted_kl(teacher_probs, student_probs, weights, batch.size)


def loss_cf(
    teachers: Sequence[Classifier],
    batch: PseudoBatch,
    gwf: GwfWeights,
    teacher_logits: Tensor | None = None,
) -> Tensor:
    """Class-fidelity loss: weighted teacher cross-entropy on the synthesized batch.

    Gradients flow into the generator through the samples; teacher
    parameters stay frozen. `teacher_logits`, when given, must be the
    stacked teachers' forward on batch.samples, [K, Q, classes] and live
    through the samples; the generator step passes a branch of the forward
    it shares with the cd term.
    """
    if len(teachers) != gwf.num_clusters:
        raise InvalidInputError("one weight row per teacher required")
    if teacher_logits is None:
        teacher_logits = nn.stack(teachers).forward(batch.samples)
    weights = _teacher_sample_weights(gwf, batch.labels)
    total = None
    for k, logits in enumerate(nn.unstack(teacher_logits)):
        contrib = nn.log_likelihood(logits, batch.labels, weights[k])
        total = contrib if total is None else nn.add(total, contrib)
    return nn.mul(total, -1.0 / batch.size)


def noise_distances(noise: np.ndarray) -> np.ndarray:
    """[Q, Q] Euclidean distances between the noise rows."""
    zdiff = noise[:, None, :] - noise[None, :, :]
    np.multiply(zdiff, zdiff, out=zdiff)  # in place: a second [Q, Q, noise_dim] buffer costs more than the square
    return np.sqrt(zdiff.sum(axis=2))


def loss_div(batch: PseudoBatch, zdist: np.ndarray | None = None) -> Tensor:
    """Diversity loss exp(mean of -||x_i - x_j|| * ||z_i - z_j||); 1 when samples collapse.

    `zdist`, when given, must be noise_distances(batch.noise); callers that
    reuse one noise draw pass it to skip the [Q, Q, noise_dim] pass.
    """
    q = batch.size
    if zdist is None:
        zdist = noise_distances(batch.noise)
    xdist = nn.pairwise_distances(batch.samples)
    exponent = nn.mul(nn.tsum(nn.mul(xdist, -zdist)), 1.0 / (q * q))
    return nn.exp(exponent)


def _generator_objective(
    teachers: Sequence[Classifier],
    stacked: Classifier,
    student: Classifier,
    batch: PseudoBatch,
    gwf: GwfWeights,
    cfg: DistillConfig,
    zdist: np.ndarray,
) -> tuple[Tensor, float, float, float]:
    """The scalar the generator minimizes, plus the component values."""
    weights = _teacher_sample_weights(gwf, batch.labels)
    with nn.no_grad():
        student_probs = nn.softmax(student.forward(batch.samples.data)).data  # constant for the generator
    # one teacher forward, live through the samples, read by two branches:
    # merging their backwards would change the order of the sums
    logits = stacked.forward(batch.samples)
    cd = _weighted_kl(nn.unstack(nn.softmax(logits)), student_probs, weights, batch.size)
    cf = loss_cf(teachers, batch, gwf, nn.branch(logits))
    div = loss_div(batch, zdist)
    if cfg.literal_minimax:
        # the flipped composition: generator descends all three terms together
        objective = nn.add(nn.add(cd, nn.mul(cf, cfg.beta_cf)), nn.mul(div, cfg.beta_div))
    else:
        objective = nn.add(nn.add(nn.neg(cd), nn.mul(cf, cfg.beta_cf)), nn.mul(div, cfg.beta_div))
    return objective, cd.item(), cf.item(), div.item()


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
            zdist = noise_distances(noise)
            for _ in range(cfg.gen_steps):
                batch = PseudoBatch(noise, labels, generator.forward(noise, labels))
                objective, cd_val, cf_val, div_val = _generator_objective(teachers, stacked, student, batch, gwf, cfg, zdist)
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
                cd = loss_cd(teachers, student, fixed, gwf, fixed_probs)
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
