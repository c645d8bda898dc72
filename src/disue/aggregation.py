"""Sample-weighted model averaging and label statistics.

Weighted means run over flat parameter vectors. Cluster models are
averaged into the plain global model with weights equal to cluster sample
counts, so stacking the two stages reproduces a direct sample-weighted
average over clients; skipping the distillation stage therefore reverts
the pipeline to plain federated averaging.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import LabelHistogram
from .errors import InvalidInputError, InvalidStateError


@dataclass(frozen=True)
class GlsDistribution:
    """Class-sampling distribution proportional to pooled per-class counts."""

    probs: np.ndarray  # [num_classes], sums to 1

    @property
    def num_classes(self) -> int:
        return int(self.probs.shape[0])


@dataclass(frozen=True)
class GwfWeights:
    """Per-class teacher weights: alpha[k, y] = cluster k's share of class y."""

    alpha: np.ndarray  # [K, num_classes], columns sum to 1 or are all zero


def _weighted_mean(entries: Sequence[tuple[np.ndarray, int]], what: str) -> np.ndarray:
    if len(entries) == 0:
        raise InvalidStateError(f"cannot aggregate an empty {what}")
    vecs = [np.asarray(v, dtype=np.float64) for v, _ in entries]
    counts = np.array([n for _, n in entries], dtype=np.float64)
    if any(v.shape != vecs[0].shape for v in vecs):
        raise InvalidInputError("parameter vectors of different length cannot be averaged")
    if np.any(counts <= 0):
        raise InvalidInputError("sample counts must be positive")
    if len(vecs) == 1:
        # bitwise-exact passthrough; a float mean of one vector is not
        return vecs[0].copy()
    return (counts[:, None] * np.stack(vecs)).sum(axis=0) / counts.sum()


def intra_group_aggregate(members: Sequence[tuple[np.ndarray, int]]) -> np.ndarray:
    """Sample-weighted mean of one cluster's client parameters."""
    return _weighted_mean(members, "cluster")


def global_average(cluster_models: Sequence[tuple[np.ndarray, int]]) -> np.ndarray:
    """Cluster models averaged by cluster sample counts into the global model."""
    return _weighted_mean(cluster_models, "cluster list")


def compute_gls(hist: LabelHistogram) -> GlsDistribution:
    """Pooled label distribution across clusters: p(y) proportional to total count of y."""
    totals = hist.class_totals.astype(np.float64)
    pooled = totals.sum()
    if pooled <= 0:
        raise InvalidStateError("cannot build a label distribution from an all-zero histogram")
    return GlsDistribution(probs=totals / pooled)


def uniform_gls(num_classes: int) -> GlsDistribution:
    """Ablation stand-in: every class equally likely."""
    if num_classes < 1:
        raise InvalidInputError("need at least one class")
    return GlsDistribution(probs=np.full(num_classes, 1.0 / num_classes))


def compute_gwf(hist: LabelHistogram) -> GwfWeights:
    """Column-normalized histogram; classes nobody holds get all-zero columns."""
    counts = hist.counts.astype(np.float64)
    totals = counts.sum(axis=0)
    safe = np.where(totals > 0, totals, 1.0)
    alpha = counts / safe[None, :]
    return GwfWeights(alpha=alpha)


def uniform_gwf(num_clusters: int, num_classes: int) -> GwfWeights:
    """Ablation stand-in: every teacher weighted 1/K for every class."""
    if num_clusters < 1 or num_classes < 1:
        raise InvalidInputError("need at least one cluster and one class")
    return GwfWeights(alpha=np.full((num_clusters, num_classes), 1.0 / num_clusters))


def sample_labels(gls: GlsDistribution, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw `count` class labels from the pooled distribution."""
    if count < 1:
        raise InvalidInputError("need a positive sample count")
    return rng.choice(gls.num_classes, size=count, p=gls.probs).astype(np.int64)
