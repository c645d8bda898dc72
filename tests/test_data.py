"""Dataset generation and partitioning: coverage, skew, determinism."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disue.data import (
    Dataset,
    _cover_empty_clients,
    class_centers,
    dirichlet_partition,
    label_counts,
    make_synthetic_dataset,
    split_client_holdout,
    split_dataset,
)
from disue.errors import ConfigError, InvalidInputError, InvalidStateError
from helpers import reference_cover_empty_clients


def nearest_centroid_accuracy(ds, means) -> float:
    dists = np.linalg.norm(ds.features[:, None, :] - means[None, :, :], axis=2)
    return float(np.mean(np.argmin(dists, axis=1) == ds.labels))


def test_dataset_shapes_and_balance():
    ds = make_synthetic_dataset(4, 100, 2, seed=0)
    assert ds.features.shape == (400, 2)
    assert np.array_equal(np.bincount(ds.labels), [100] * 4)
    assert ds.features.dtype == np.float64


def test_dataset_is_deterministic_per_seed():
    a = make_synthetic_dataset(4, 50, 2, seed=3)
    b = make_synthetic_dataset(4, 50, 2, seed=3)
    c = make_synthetic_dataset(4, 50, 2, seed=4)
    assert np.array_equal(a.features, b.features) and np.array_equal(a.labels, b.labels)
    assert not np.array_equal(a.features, c.features)


def test_default_overlap_keeps_linear_rule_between_70_and_90():
    # nearest true centroid is the best linear rule for equal spherical blobs
    ds = make_synthetic_dataset(4, 1000, 2, seed=0)
    acc = nearest_centroid_accuracy(ds, class_centers(4, 2, radius=1.0))
    assert 0.70 <= acc <= 0.90


def test_wide_separation_makes_nearest_centroid_strong():
    # centroid separation 4 std: adjacent-pair confusion is about 2 Phi(-2)
    ds = make_synthetic_dataset(4, 1000, 2, seed=1, class_std=0.25, radius=np.sqrt(2.0) / 2.0)
    means = class_centers(4, 2, radius=np.sqrt(2.0) / 2.0)
    sep = np.linalg.norm(means[0] - means[1])
    assert abs(sep - 4 * 0.25) < 1e-12
    assert nearest_centroid_accuracy(ds, means) >= 0.95


def test_high_dim_uses_simplex_centers():
    means = class_centers(3, 8, radius=2.0)
    norms = np.linalg.norm(means, axis=1)
    assert np.allclose(norms, 2.0)
    gaps = [np.linalg.norm(means[i] - means[j]) for i in range(3) for j in range(i + 1, 3)]
    assert np.allclose(gaps, gaps[0])


def test_dataset_rejects_bad_arguments():
    for kwargs in (
        dict(num_classes=1, samples_per_class=5, feature_dim=2),
        dict(num_classes=3, samples_per_class=0, feature_dim=2),
        dict(num_classes=3, samples_per_class=5, feature_dim=1),
        dict(num_classes=3, samples_per_class=5, feature_dim=2, class_std=0.0),
    ):
        with pytest.raises(InvalidInputError):
            make_synthetic_dataset(seed=0, **kwargs)


# ---------------------------------------------------------------------------
# partitioning


@given(st.integers(2, 12), st.sampled_from([0.01, 0.1, 1.0, 100.0]), st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_partition_covers_dataset_exactly_once(num_clients, epsilon, seed):
    ds = make_synthetic_dataset(3, 30, 2, seed=seed)
    parts = dirichlet_partition(ds, num_clients, epsilon, seed=seed)
    assert len(parts) == num_clients
    assert all(p.n >= 1 for p in parts)
    total = sum(p.n for p in parts)
    assert total == ds.n
    # matching multiset of (rounded feature, label) rows proves disjoint cover
    seen = np.concatenate([np.c_[p.features, p.labels] for p in parts])
    want = np.c_[ds.features, ds.labels]
    assert np.array_equal(np.sort(seen.view([("", seen.dtype)] * seen.shape[1]).ravel(), order=None).view(seen.dtype).reshape(-1, seen.shape[1]), np.sort(want.view([("", want.dtype)] * want.shape[1]).ravel(), order=None).view(want.dtype).reshape(-1, want.shape[1]))


def test_partition_is_deterministic():
    ds = make_synthetic_dataset(4, 50, 2, seed=0)
    a = dirichlet_partition(ds, 10, 0.05, seed=5)
    b = dirichlet_partition(ds, 10, 0.05, seed=5)
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.features, pb.features)
        assert np.array_equal(pa.labels, pb.labels)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda ds: dirichlet_partition(ds, 0, 0.5, seed=0), "need at least 1 client"),
        (lambda ds: dirichlet_partition(ds, 2, 0.0, seed=0), "epsilon must be positive"),
        (lambda ds: split_dataset(ds, 1.0, seed=0), r"fraction must be in \[0, 1\)"),
        (lambda ds: split_client_holdout(ds, -0.5, seed=0), r"fraction must be in \[0, 1\)"),
    ],
    ids=["no clients", "zero epsilon", "split everything", "negative holdout"],
)
def test_a_split_rejects_arguments_outside_its_range(call, message):
    with pytest.raises(InvalidInputError, match=message):
        call(make_synthetic_dataset(2, 4, 2, seed=0))


def _covered(cover, pools):
    """The pools after `cover`, and its error message, if it raised one."""
    pools = list(pools)
    try:
        cover(pools)
    except InvalidStateError as exc:
        return pools, str(exc)
    return pools, None


def test_covering_empty_clients_matches_the_rescanning_loop():
    rng = np.random.default_rng(11)
    outcomes = set()
    for case in range(1000):
        num_pools = int(rng.integers(1, 40))
        sizes = rng.integers(0, int(rng.integers(1, 6)), size=num_pools) * (rng.random(num_pools) < rng.random())
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        pools = [np.arange(offsets[c], offsets[c + 1]) for c in range(num_pools)]
        got, got_error = _covered(_cover_empty_clients, pools)
        want, want_error = _covered(reference_cover_empty_clients, pools)
        assert got_error == want_error, case
        assert [p.tolist() for p in got] == [p.tolist() for p in want], case
        outcomes.add(got_error)
    assert outcomes == {None, "not enough samples to give every client one"}


def test_covering_empty_clients_refuses_too_few_samples():
    pools = [np.array([0, 1]), np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)]
    with pytest.raises(InvalidStateError, match="not enough samples to give every client one"):
        _cover_empty_clients(pools)
    assert [p.tolist() for p in pools] == [[0], [1], []]  # the first move landed, as in the rescanning loop


def test_partition_rejects_more_clients_than_samples():
    ds = make_synthetic_dataset(2, 3, 2, seed=0)
    with pytest.raises(ConfigError):
        dirichlet_partition(ds, 7, 0.5, seed=0)


def test_huge_epsilon_approaches_iid_proportions():
    ds = make_synthetic_dataset(4, 500, 2, seed=0)
    parts = dirichlet_partition(ds, 10, 1e6, seed=1)
    global_props = np.bincount(ds.labels, minlength=4) / ds.n
    for p in parts:
        props = label_counts(p.labels, 4) / p.n
        assert np.max(np.abs(props - global_props)) < 0.05


def _mean_label_entropy(parts, num_classes):
    entropies = []
    for p in parts:
        props = label_counts(p.labels, num_classes) / p.n
        nz = props[props > 0]
        entropies.append(float(-(nz * np.log(nz)).sum()))
    return float(np.mean(entropies))


def test_small_epsilon_halves_label_entropy():
    skewed, iid = [], []
    for seed in range(5):
        ds = make_synthetic_dataset(4, 250, 2, seed=seed)
        skewed.append(_mean_label_entropy(dirichlet_partition(ds, 20, 0.01, seed=seed), 4))
        iid.append(_mean_label_entropy(dirichlet_partition(ds, 20, 1e6, seed=seed), 4))
    assert np.mean(skewed) < 0.5 * np.mean(iid)


# ---------------------------------------------------------------------------
# splits and round trips


def test_stratified_split_fractions():
    ds = make_synthetic_dataset(4, 100, 2, seed=0)
    rest, held = split_dataset(ds, 0.2, seed=1)
    assert held.n == 80 and rest.n == 320
    assert np.array_equal(np.bincount(held.labels), [20] * 4)


def test_client_holdout_keeps_at_least_one_train_sample():
    tiny = Dataset(np.zeros((1, 2)), np.zeros(1, dtype=np.int64), 4)
    train, hold = split_client_holdout(tiny, 0.9, seed=0)
    assert train.n == 1 and hold.n == 0

