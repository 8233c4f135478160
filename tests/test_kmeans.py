import itertools
import math

import numpy as np
import pytest

from pmtc.kmeans import kmeans_relaxed


def exhaustive_kmeans_objective(z: np.ndarray, r: int) -> float:
    """Brute-force optimum of the k-means objective over all assignments."""
    p = z.shape[0]
    assigns = np.array(list(itertools.product(range(r), repeat=p)), dtype=np.int8)
    total = float(np.sum(z * z))
    best = np.inf
    for a in range(r):
        mask = assigns == a
        counts = mask.sum(axis=1)
        sums = mask.astype(float) @ z
        with np.errstate(invalid="ignore", divide="ignore"):
            gain = np.where(counts > 0, np.einsum("ij,ij->i", sums, sums) / counts, 0.0)
        if a == 0:
            gains = gain
        else:
            gains = gains + gain
    best = total - gains.max()
    return float(best)


def test_zero_variance_clusters_exact():
    base = np.array([[0.0, 0.0], [5.0, 5.0], [-3.0, 4.0]])
    z = np.repeat(base, 4, axis=0)
    res = kmeans_relaxed(z, 3, seed=0)
    assert res.objective == 0.0
    labels = res.membership.labels
    for a in range(3):
        assert len(set(labels[4 * a : 4 * a + 4])) == 1
    assert len(set(labels[::4])) == 3


def test_line_case_matches_brute_force():
    z = np.array([[0.0], [0.1], [0.2], [10.0], [10.1], [10.2]])
    res = kmeans_relaxed(z, 2, seed=1)
    assert set(res.membership.labels[:3]) != set(res.membership.labels[3:])
    # within-cluster squared deviations: 2 * sum((x - mean)^2) = 0.02 + 0.02
    assert abs(res.objective - 0.04) < 1e-12
    assert abs(exhaustive_kmeans_objective(z, 2) - 0.04) < 1e-12


def test_objective_recomputable_from_fields():
    rng = np.random.default_rng(2)
    z = rng.standard_normal((30, 3))
    res = kmeans_relaxed(z, 4, seed=3)
    labels = res.membership.labels
    centroids = np.array([z[labels == a].mean(axis=0) for a in range(4)])
    recomputed = float(np.sum((z - centroids[labels]) ** 2))
    assert abs(recomputed - res.objective) < 1e-10


def test_relaxation_contract_small_instances():
    rng = np.random.default_rng(4)
    for trial in range(20):
        p = int(rng.integers(6, 13))
        r = int(rng.integers(2, 4))
        z = rng.standard_normal((p, 2))
        res = kmeans_relaxed(z, r, seed=trial)
        opt = exhaustive_kmeans_objective(z, r)
        assert res.objective <= (1 + math.log(r)) * opt + 1e-9


def test_deterministic_given_seed():
    rng = np.random.default_rng(5)
    z = rng.standard_normal((40, 3))
    a = kmeans_relaxed(z, 3, seed=11)
    b = kmeans_relaxed(z, 3, seed=11)
    assert np.array_equal(a.membership.labels, b.membership.labels)
    assert a.objective == b.objective


def test_orthogonal_invariance():
    rng = np.random.default_rng(6)
    centers = 6 * rng.standard_normal((3, 4))
    z = centers[rng.integers(0, 3, 60)] + 0.2 * rng.standard_normal((60, 4))
    q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    a = kmeans_relaxed(z, 3, seed=7)
    b = kmeans_relaxed(z @ q, 3, seed=7)
    assert abs(a.objective - b.objective) < 1e-8
    # identical partition up to relabeling
    pairs = set(zip(a.membership.labels.tolist(), b.membership.labels.tolist()))
    assert len(pairs) == 3


def test_kmeans_input_validation():
    with pytest.raises(ValueError):
        kmeans_relaxed(np.zeros((3, 2)), 4)
    with pytest.raises(ValueError):
        kmeans_relaxed(np.array([[np.inf, 0.0]]), 1)

