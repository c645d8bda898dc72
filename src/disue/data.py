"""Synthetic data generation and non-IID federation of it.

The task family is a Gaussian blob per class: class means sit on a circle
(or a scaled simplex when the feature dimension allows) and the blobs
overlap enough that the problem is not linearly trivial. Clients receive
label-skewed shards through a Dirichlet allocation per class.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InvalidInputError, InvalidStateError


@dataclass
class Dataset:
    """A fully materialized labelled dataset: the whole task or one client's shard of it."""

    features: np.ndarray  # [n, feature_dim] float64
    labels: np.ndarray  # [n] int64
    num_classes: int

    @property
    def n(self) -> int:
        return int(self.labels.shape[0])

    @property
    def feature_dim(self) -> int:
        return int(self.features.shape[1])

    def subset(self, index: np.ndarray) -> "Dataset":
        """The rows at `index`, copied."""
        return Dataset(self.features[index].copy(), self.labels[index].copy(), self.num_classes)


@dataclass
class LabelHistogram:
    """Per-cluster class counts: counts[k, y] = samples of class y in cluster k."""

    counts: np.ndarray  # [K, num_classes] int64

    @property
    def class_totals(self) -> np.ndarray:
        return self.counts.sum(axis=0)


def class_centers(num_classes: int, feature_dim: int, radius: float) -> np.ndarray:
    """Class means on a circle, or a scaled simplex when dimensions allow.

    The circle lives in the first two coordinates; the simplex uses centered
    one-hot vertices rescaled to `radius`. Either way pairwise separations
    are equal, so no class pair is privileged.
    """
    if feature_dim >= num_classes:
        verts = np.eye(num_classes) - 1.0 / num_classes
        verts = verts / np.linalg.norm(verts[0]) * radius
        centers = np.zeros((num_classes, feature_dim))
        centers[:, :num_classes] = verts
        return centers
    angles = 2.0 * np.pi * np.arange(num_classes) / num_classes
    centers = np.zeros((num_classes, feature_dim))
    centers[:, 0] = radius * np.cos(angles)
    centers[:, 1] = radius * np.sin(angles)
    return centers


def make_synthetic_dataset(
    num_classes: int,
    samples_per_class: int,
    feature_dim: int,
    seed,
    class_std: float = 0.5,
    radius: float = 1.0,
) -> Dataset:
    """Deterministic Gaussian-blob dataset, shuffled once.

    Default std is calibrated so a linear decision rule lands around 80%
    accuracy with 4 classes: separable, but with real class overlap.
    """
    if num_classes < 2:
        raise InvalidInputError("need at least 2 classes")
    if feature_dim < 2:
        raise InvalidInputError("need at least 2 feature dimensions")
    if samples_per_class < 1:
        raise InvalidInputError("need at least 1 sample per class")
    if class_std <= 0 or radius <= 0:
        raise InvalidInputError("class_std and radius must be positive")
    rng = np.random.default_rng(seed)
    means = class_centers(num_classes, feature_dim, radius)
    features = np.concatenate(
        [means[y] + class_std * rng.standard_normal((samples_per_class, feature_dim)) for y in range(num_classes)]
    )
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), samples_per_class)
    order = rng.permutation(labels.shape[0])
    return Dataset(features[order], labels[order], num_classes)


def _largest_remainder_counts(proportions: np.ndarray, total: int) -> np.ndarray:
    """Integer allocation of `total` following `proportions` as closely as possible."""
    quotas = proportions * total
    base = np.floor(quotas).astype(np.int64)
    short = total - int(base.sum())
    # stable order: largest fractional remainder first, index breaks ties
    remainders = quotas - base
    order = np.lexsort((np.arange(len(base)), -remainders))
    base[order[:short]] += 1
    return base


def dirichlet_partition(dataset: Dataset, num_clients: int, epsilon: float, seed) -> list[Dataset]:
    """Split a dataset across clients with per-class Dirichlet(epsilon) skew.

    Every sample is assigned exactly once and every client ends up with at
    least one sample (deficits are covered from the largest client).
    Smaller epsilon means harsher label skew.
    """
    if num_clients < 1:
        raise InvalidInputError("need at least 1 client")
    if epsilon <= 0:
        raise InvalidInputError("epsilon must be positive")
    if num_clients > dataset.n:
        raise ConfigError(f"cannot give {num_clients} clients at least one of {dataset.n} samples")
    rng = np.random.default_rng(seed)
    assigned: list[list[np.ndarray]] = [[] for _ in range(num_clients)]
    for y in range(dataset.num_classes):
        idx = np.flatnonzero(dataset.labels == y)
        if idx.size == 0:
            continue
        idx = rng.permutation(idx)
        shares = rng.dirichlet(np.full(num_clients, epsilon))
        counts = _largest_remainder_counts(shares, idx.size)
        offsets = np.concatenate([[0], np.cumsum(counts)])
        for c in range(num_clients):
            assigned[c].append(idx[offsets[c] : offsets[c + 1]])
    pools = [np.concatenate(parts) if parts else np.empty(0, dtype=np.int64) for parts in assigned]
    _cover_empty_clients(pools)
    return [dataset.subset(np.sort(pool)) for pool in pools]


def _cover_empty_clients(pools: list[np.ndarray]) -> None:
    """Move single samples from the largest pools into empty ones, in place."""
    sizes = np.array([pool.size for pool in pools])
    for target in np.flatnonzero(sizes == 0):  # a donor keeps at least one, so no pool empties on the way
        donor = int(np.argmax(sizes))
        if sizes[donor] < 2:
            raise InvalidStateError("not enough samples to give every client one")
        pools[target] = pools[donor][-1:]
        pools[donor] = pools[donor][:-1]
        sizes[donor] -= 1
        sizes[target] = 1


def split_dataset(dataset: Dataset, fraction: float, seed) -> tuple[Dataset, Dataset]:
    """Stratified split into (rest, held_out) with `fraction` held out per class."""
    if not 0.0 <= fraction < 1.0:
        raise InvalidInputError("fraction must be in [0, 1)")
    rng = np.random.default_rng(seed)
    held: list[np.ndarray] = []
    kept: list[np.ndarray] = []
    for y in range(dataset.num_classes):
        idx = rng.permutation(np.flatnonzero(dataset.labels == y))
        cut = int(round(fraction * idx.size))
        held.append(idx[:cut])
        kept.append(idx[cut:])
    return dataset.subset(np.sort(np.concatenate(kept))), dataset.subset(np.sort(np.concatenate(held)))


def split_client_holdout(client: Dataset, fraction: float, seed) -> tuple[Dataset, Dataset]:
    """Split one client's shard into (train, holdout), keeping >= 1 train sample."""
    if not 0.0 <= fraction < 1.0:
        raise InvalidInputError("fraction must be in [0, 1)")
    rng = np.random.default_rng(seed)
    order = rng.permutation(client.n)
    cut = min(int(fraction * client.n), client.n - 1)
    return client.subset(np.sort(order[cut:])), client.subset(np.sort(order[:cut]))


def label_counts(labels: np.ndarray, num_classes: int) -> np.ndarray:
    return np.bincount(np.asarray(labels, dtype=np.int64), minlength=num_classes).astype(np.int64)
