"""Similarity-preserving parameter masking.

Clients never upload raw parameters for clustering. Each round they apply
a shared, round-salted orthogonal transform: unit-normalize, flip signs by
a seed-derived +-1 diagonal, then permute coordinates. Orthogonality keeps
every pairwise inner product (hence cosine) intact while the coordinates
themselves are scrambled.

This models the confidentiality property of the encrypted-similarity
protocol, not its cryptography: anyone holding the shared seed can invert
the mask. The honest threat model is documented in the README.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import InvalidInputError, PairingError


@dataclass(frozen=True)
class SecParams:
    """Shared masking secret; all clients of a run hold the same seed."""

    shared_seed: int


@dataclass(frozen=True)
class MaskedParams:
    """One client's masked, unit-norm parameter vector for one round."""

    client_id: int
    masked_vector: np.ndarray
    epoch_tag: int  # round index the mask was derived for


@lru_cache(maxsize=1)
def _mask_streams(sec: SecParams, round_index: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    # one deterministic stream per (seed, round), whatever dim, so vectors of the
    # wrong length cannot silently pair up later; the cache holds the last round's
    # draw alone, handed to every upload of that round, so the arrays are read-only
    rng = np.random.default_rng([int(sec.shared_seed), int(round_index)])
    signs = (rng.integers(0, 2, size=dim) * 2 - 1).astype(np.float64)
    perm = rng.permutation(dim)
    signs.flags.writeable = perm.flags.writeable = False
    return signs, perm


def ssc_encrypt(params: np.ndarray, sec: SecParams, round_index: int, client_id: int) -> MaskedParams:
    """Mask one parameter vector for similarity comparison this round."""
    vec = np.asarray(params, dtype=np.float64)
    if vec.ndim != 1 or vec.size == 0:
        raise InvalidInputError("ssc_encrypt expects a non-empty flat vector")
    if not np.all(np.isfinite(vec)):
        raise InvalidInputError("ssc_encrypt expects finite parameters")
    norm = np.linalg.norm(vec)
    if norm == 0.0:
        raise InvalidInputError("cannot mask an all-zero parameter vector")
    signs, perm = _mask_streams(sec, round_index, vec.size)
    masked = (signs * (vec / norm))[perm]
    return MaskedParams(client_id=int(client_id), masked_vector=masked, epoch_tag=int(round_index))


def check_pairing(masked: Sequence[MaskedParams]) -> None:
    """Masked uploads pair up only within one round and one dimension."""
    tags = {m.epoch_tag for m in masked}
    if len(tags) != 1:
        raise PairingError(f"masked uploads span rounds {sorted(tags)}")
    if len({m.masked_vector.shape for m in masked}) != 1:
        raise PairingError("masked uploads of different dimension")


def ssc_compute(a: MaskedParams, b: MaskedParams) -> float:
    """Cosine similarity of the underlying parameters, from masked uploads only."""
    check_pairing((a, b))
    return float(a.masked_vector @ b.masked_vector)
