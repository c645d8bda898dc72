"""Masking layer: the server must recover cosine similarity and nothing else."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disue.errors import InvalidInputError, PairingError
from disue.secure import MaskedParams, SecParams, _mask_streams, ssc_compute, ssc_encrypt


def _cosine(a, b):
    return float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))


def test_mask_actually_changes_coordinates():
    sec = SecParams(shared_seed=7)
    vec = np.arange(1.0, 33.0)
    enc = ssc_encrypt(vec, sec, round_index=0, client_id=0)
    unit = vec / np.linalg.norm(vec)
    assert enc.masked_vector.shape == vec.shape
    assert not np.allclose(enc.masked_vector, unit)
    # norm preserved: sign flips and permutations are orthogonal
    assert abs(np.linalg.norm(enc.masked_vector) - 1.0) < 1e-12


def test_masked_inner_product_equals_cosine():
    sec = SecParams(shared_seed=11)
    rng = np.random.default_rng(0)
    for rnd in range(3):
        for _ in range(100):
            a = rng.normal(size=50)
            b = rng.normal(size=50)
            got = ssc_compute(
                ssc_encrypt(a, sec, rnd, client_id=1),
                ssc_encrypt(b, sec, rnd, client_id=2),
            )
            assert abs(got - _cosine(a, b)) < 1e-9


@given(st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_masking_preserves_cosine_property(seed):
    rng = np.random.default_rng(seed)
    sec = SecParams(shared_seed=int(rng.integers(0, 2**31)))
    dim = int(rng.integers(2, 200))
    rnd = int(rng.integers(0, 50))
    a = rng.normal(size=dim)
    b = rng.normal(size=dim)
    got = ssc_compute(ssc_encrypt(a, sec, rnd, 0), ssc_encrypt(b, sec, rnd, 1))
    assert abs(got - _cosine(a, b)) < 1e-9


def test_same_round_same_mask_different_round_different_mask():
    sec = SecParams(shared_seed=3)
    vec = np.arange(1.0, 17.0)
    e0 = ssc_encrypt(vec, sec, 0, 0)
    e0b = ssc_encrypt(vec, sec, 0, 9)
    e1 = ssc_encrypt(vec, sec, 1, 0)
    assert np.array_equal(e0.masked_vector, e0b.masked_vector)
    assert not np.array_equal(e0.masked_vector, e1.masked_vector)
    assert e0.epoch_tag != e1.epoch_tag


def test_round_tag_mismatch_is_rejected():
    sec = SecParams(shared_seed=3)
    vec = np.ones(8)
    a = ssc_encrypt(vec, sec, 0, 0)
    b = ssc_encrypt(vec, sec, 1, 1)
    with pytest.raises(PairingError):
        ssc_compute(a, b)


def test_dimension_mismatch_is_rejected():
    a = MaskedParams(0, np.ones(4), epoch_tag="t")
    b = MaskedParams(1, np.ones(5), epoch_tag="t")
    with pytest.raises(PairingError):
        ssc_compute(a, b)


def test_degenerate_inputs_are_rejected():
    sec = SecParams(shared_seed=0)
    with pytest.raises(InvalidInputError):
        ssc_encrypt(np.zeros(4), sec, 0, 0)
    with pytest.raises(InvalidInputError):
        ssc_encrypt(np.array([1.0, np.nan]), sec, 0, 0)
    with pytest.raises(InvalidInputError):
        ssc_encrypt(np.ones((2, 2)), sec, 0, 0)


def test_encryption_is_deterministic():
    vec = np.arange(1.0, 9.0)
    a = ssc_encrypt(vec, SecParams(5), 2, 0).masked_vector
    b = ssc_encrypt(vec, SecParams(5), 2, 0).masked_vector
    assert np.array_equal(a, b)


def _fresh_mask(vec, seed, rnd):
    """The mask drawn from scratch for one upload, with no shared state."""
    rng = np.random.default_rng([seed, rnd])
    signs = (rng.integers(0, 2, size=vec.size) * 2 - 1).astype(np.float64)
    perm = rng.permutation(vec.size)
    return (signs * (vec / np.linalg.norm(vec)))[perm]


def test_one_mask_per_round_gives_the_same_bytes_cold_and_warm():
    rng = np.random.default_rng(4)
    vectors = [rng.normal(size=300) for _ in range(5)]
    _mask_streams.cache_clear()
    cold = [ssc_encrypt(v, SecParams(9), 2, cid).masked_vector for cid, v in enumerate(vectors)]
    assert _mask_streams.cache_info().misses == 1  # drawn once, shared by every upload
    warm = [ssc_encrypt(v, SecParams(9), 2, cid).masked_vector for cid, v in enumerate(vectors)]
    for v, c, w in zip(vectors, cold, warm):
        assert c.tobytes() == w.tobytes() == _fresh_mask(v, 9, 2).tobytes()


def test_the_mask_cache_holds_the_last_round_alone():
    rng = np.random.default_rng(5)
    _mask_streams.cache_clear()
    for rnd in (0, 1):
        for cid in range(3):
            ssc_encrypt(rng.normal(size=40), SecParams(9), rnd, cid)
    assert _mask_streams.cache_info().misses == 2
    assert _mask_streams.cache_info().currsize == 1


def test_the_shared_mask_is_read_only():
    signs, perm = _mask_streams(SecParams(9), 2, 16)
    with pytest.raises(ValueError):
        signs[0] = -signs[0]
    with pytest.raises(ValueError):
        perm[:2] = perm[1::-1]


@pytest.mark.parametrize("seed, rnd, dim", [(9, 3, 64), (10, 2, 64), (9, 2, 65)])
def test_another_round_seed_or_dimension_gets_its_own_mask(seed, rnd, dim):
    vec = np.arange(1.0, dim + 1.0)
    base = ssc_encrypt(vec[:64], SecParams(9), 2, 0).masked_vector  # warms the cache
    other = ssc_encrypt(vec, SecParams(seed), rnd, 0).masked_vector
    assert other.tobytes() == _fresh_mask(vec, seed, rnd).tobytes()
    assert other.tobytes() != base.tobytes()
