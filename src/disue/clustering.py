"""Client grouping by masked-parameter similarity.

The grouping algorithm is affinity propagation with damped responsibility
and availability messages:

    r(i,k) <- s(i,k) - max_{k' != k} [a(i,k') + s(i,k')]
    a(i,k) <- min(0, r(k,k) + sum_{i' not in {i,k}} max(0, r(i',k)))   (i != k)
    a(k,k) <- sum_{i' != k} max(0, r(i',k))

Both message sets are damped at DAMPING = 0.5. Exemplars are the points
with r(k,k) + a(k,k) > 0. Message passing stops once the exemplar set,
empty or not, has been stable for STABLE_SWEEPS = 15 consecutive sweeps,
or after MAX_SWEEPS = 200 sweeps; a stable empty set ends in the
single-cluster fallback. These are the standard settings of Frey and
Dueck (Science 2007), and no caller changes them. The preference
(diagonal) defaults to the median off-diagonal similarity, and the
number of clusters is whatever emerges; it is never chosen up front.
The median is np.median's, bit for bit: partition the off-diagonal copy
at its two middle values and its last (nan if that is nan), then np.mean
of the two middle values, without the numpy.ma import np.median makes.
Each sweep runs in place, in one work buffer beside the two message sets,
with the ufuncs of the plain expressions in their order: no bit moves.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .secure import MaskedParams, check_pairing

DAMPING = 0.5
MAX_SWEEPS = 200
STABLE_SWEEPS = 15


@dataclass
class SimilarityMatrix:
    """Pairwise cosine similarities between clients, by masked uploads.

    `client_ids[i]` names the client behind row/column i. The diagonal is
    left at 0 and is reserved for the clustering preference.
    """

    values: np.ndarray  # [n, n] float64, symmetric, diag 0
    client_ids: list[int]

    @property
    def n(self) -> int:
        return int(self.values.shape[0])


@dataclass
class ClusterPartition:
    """A hard partition of clients into exemplar-led clusters.

    Clusters are ordered by ascending exemplar position; `members` holds
    client ids. `fallback` marks the degenerate single-cluster rescue used
    when no exemplar emerges.
    """

    members: list[list[int]]
    exemplars: list[int]  # client ids, one per cluster
    n_iterations: int = 0
    converged: bool = False
    fallback: bool = False

    @property
    def num_clusters(self) -> int:
        return len(self.members)


def build_similarity_matrix(masked: list[MaskedParams] | np.ndarray, client_ids: list[int] | None = None) -> SimilarityMatrix:
    """All pairwise similarities of one round's masked uploads: a list, or their rows (only read) named by `client_ids`."""
    if len(masked) < 2:
        raise InvalidInputError("similarity needs at least 2 clients; smaller rounds are a degenerate single cluster")
    if client_ids is None:
        check_pairing(masked)
        client_ids = [m.client_id for m in masked]
        masked = np.stack([m.masked_vector for m in masked])
    elif len(client_ids) != len(masked):
        raise InvalidInputError(f"similarity got {len(masked)} rows but {len(client_ids)} client ids")
    values = masked @ masked.T
    values += values.T  # exact symmetry, float dot is order-sensitive
    values /= 2.0
    np.fill_diagonal(values, 0.0)
    return SimilarityMatrix(values=values, client_ids=list(client_ids))


def _median(values: np.ndarray) -> float:
    """np.median of an even count of values, bit for bit, partitioning them in place; np.median imports numpy.ma."""
    h = values.size // 2
    values.partition([h - 1, h, values.size - 1])
    return float("nan") if np.isnan(values[-1]) else float(np.mean(values[h - 1 : h + 1]))


def affinity_propagation(sim: SimilarityMatrix, preference: float | None = None) -> ClusterPartition:
    """Cluster clients by message passing on the similarity matrix.

    preference=None uses the median off-diagonal similarity. Ties in the
    final assignment go to the lower exemplar index.
    """
    n = sim.n
    if sim.values.shape != (n, n) or n < 2:
        raise InvalidInputError("affinity_propagation needs a square matrix over >= 2 clients")
    pref = _median(sim.values[~np.eye(n, dtype=bool)]) if preference is None else float(preference)
    s = sim.values.copy()
    np.fill_diagonal(s, pref)

    r = np.zeros((n, n))
    a = np.zeros((n, n))
    w = np.empty((n, n))  # a + s, then r_new, then max(r, 0), then a_new: each spent before the next overwrites it
    idx = np.arange(n)
    exemplars = np.zeros(n, dtype=bool)
    stable = 0
    it = 0
    for it in range(1, MAX_SWEEPS + 1):
        # responsibilities
        aps = np.add(a, s, out=w)
        first_k = np.argmax(aps, axis=1)
        first = aps[idx, first_k]
        aps[idx, first_k] = -np.inf
        second = aps.max(axis=1)
        r_new = np.subtract(s, first[:, None], out=w)
        r_new[idx, first_k] = s[idx, first_k] - second
        np.add(np.multiply(DAMPING, r, out=r), np.multiply(1.0 - DAMPING, r_new, out=r_new), out=r)

        # availabilities
        rp = np.maximum(r, 0.0, out=w)
        np.fill_diagonal(rp, r.diagonal())
        col = rp.sum(axis=0)
        a_new = np.subtract(col[None, :], rp, out=w)
        diag = a_new.diagonal().copy()
        np.minimum(a_new, 0.0, out=a_new)
        np.fill_diagonal(a_new, diag)
        np.add(np.multiply(DAMPING, a, out=a), np.multiply(1.0 - DAMPING, a_new, out=a_new), out=a)

        current = (r.diagonal() + a.diagonal()) > 0
        stable = stable + 1 if np.array_equal(current, exemplars) else 0
        exemplars = current
        if stable >= STABLE_SWEEPS:
            break

    exemplar_idx = np.flatnonzero(exemplars)
    fallback = exemplar_idx.size == 0
    converged = stable >= STABLE_SWEEPS and not fallback
    if fallback:
        # no exemplar emerged; rescue with a single cluster led by the most
        # central client (highest total similarity), lower index on ties
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


def singleton_partition(client_ids: list[int]) -> ClusterPartition:
    """The degenerate one-cluster partition used when clustering cannot run."""
    if not client_ids:
        raise InvalidInputError("cannot build a partition of no clients")
    ids = list(client_ids)
    return ClusterPartition(
        members=[ids],
        exemplars=[ids[0]],
        converged=True,
    )
