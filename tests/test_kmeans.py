import math

import numpy as np
import pytest

from pmtc import kmeans
from pmtc.kmeans import _repair_empty, kmeans_relaxed
from pmtc.membership import Membership


def _sq_distances(z: np.ndarray, c: np.ndarray) -> np.ndarray:
    """p x r matrix of squared euclidean distances from rows of z to rows of c."""
    d2 = np.empty((z.shape[0], c.shape[0]))
    diff = np.empty_like(z)
    for a in range(c.shape[0]):
        np.subtract(z, c[a], out=diff)
        d2[:, a] = np.einsum("ij,ij->i", diff, diff)
    return d2


def _lloyd(z: np.ndarray, centers: np.ndarray, r: int):
    labels = None
    for _ in range(kmeans._MAX_SWEEPS):
        d2 = _sq_distances(z, centers)
        new_labels = np.argmin(d2, axis=1)
        new_labels = _repair_empty(new_labels, d2, r)
        for a in range(r):
            centers[a] = z[new_labels == a].mean(axis=0)
        if labels is not None and np.array_equal(labels, new_labels):
            break
        labels = new_labels
    obj = float(np.sum((z - centers[labels]) ** 2))
    return labels, obj


def serial_kmeans(z: np.ndarray, r: int, seed: int = 0):
    """The restarts one after another, each with its own Lloyd loop: the
    oracle that the batched sweeps of :func:`kmeans_relaxed` must match."""
    z = np.asarray(z, dtype=float)
    best = None
    for child in np.random.SeedSequence(seed).spawn(kmeans._RESTARTS):
        rng = np.random.default_rng(child)
        centers = kmeans._plusplus_seed(z, r, rng)
        labels, obj = _lloyd(z, centers, r)
        if best is None or obj < best[1]:
            best = (labels, obj)
    return kmeans.KmeansResult(Membership(best[0], r), best[1])


def _assert_matches_serial(z, r, seed):
    got, want = kmeans_relaxed(z, r, seed=seed), serial_kmeans(z, r, seed=seed)
    assert np.array_equal(got.membership.labels, want.membership.labels)
    assert got.objective == want.objective


@pytest.mark.parametrize("r", range(1, 9))
def test_batched_restarts_match_serial_loop(r):
    rng = np.random.default_rng(100 + r)
    for dim in sorted({1, r, r + 3}):
        for p in sorted({r, 3 * r + 7, 300}):
            for spread in (3.0, 0.0):  # clustered rows, then pure noise
                centers = spread * rng.standard_normal((r, dim))
                z = centers[rng.integers(0, r, p)] + rng.standard_normal((p, dim))
                _assert_matches_serial(z, r, seed=p + dim)


@pytest.mark.parametrize("r", [2, 4, 7])
def test_batched_restarts_match_serial_loop_on_ties(r):
    rng = np.random.default_rng(200 + r)
    for dim in (1, 2, r + 3):
        tied = np.round(rng.standard_normal((90, dim)), 1)  # many equal coordinates
        _assert_matches_serial(tied, r, seed=r)
        dup = np.repeat(rng.standard_normal((15, dim)), 6, axis=0)  # duplicated rows
        _assert_matches_serial(dup[rng.permutation(90)], r, seed=r + 1)


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
def test_distances_keep_their_bits_in_every_layout_and_batch(layout):
    # a row's squares are summed in an order that depends on the layout of
    # the differences; Lloyd refinement passes the last mode's unfolding as
    # a Fortran-ordered view (figA1's third mode)
    rng = np.random.default_rng(7)
    for p, dim, r in ((60, 5, 5), (40, 300, 3), (30, 1, 2)):
        z = rng.standard_normal((p, 2 * dim))
        z = {"C": np.ascontiguousarray(z[:, :dim]), "F": np.asfortranarray(z[:, :dim]),
             "strided": z[:, ::2]}[layout]
        c = rng.standard_normal((4, r, dim))
        batched = kmeans._sq_distances(z, c)
        for k in range(4):
            assert np.array_equal(kmeans._sq_distances(z, c[k]), _sq_distances(z, c[k]))
            assert np.array_equal(batched[k], _sq_distances(z, c[k]))
        _assert_matches_serial(z, r, seed=p)


def test_batched_restarts_match_serial_loop_through_empty_repair(monkeypatch):
    repairs = []  # sizes of the labels handed to _repair_empty with a cluster left empty

    def counting_repair(labels, d2, r):
        if np.bincount(labels, minlength=r).min() == 0:
            repairs.append(labels.size)
        return _repair_empty(labels, d2, r)

    monkeypatch.setattr(kmeans, "_repair_empty", counting_repair)
    # three distinct points for five clusters: the seeding repeats centers
    z = np.repeat(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 4.0]]), [4, 3, 5], axis=0)
    for seed in range(4):
        _assert_matches_serial(z, 5, seed)
    assert repairs


@pytest.mark.parametrize("max_sweeps", [1, 2, 3])
def test_batched_restarts_match_serial_loop_at_the_sweep_cap(monkeypatch, max_sweeps):
    monkeypatch.setattr(kmeans, "_MAX_SWEEPS", max_sweeps)
    rng = np.random.default_rng(300 + max_sweeps)
    for r, dim in ((3, 1), (5, 5), (6, 9)):
        z = rng.standard_normal((200, dim))  # no structure: restarts need many sweeps
        _assert_matches_serial(z, r, seed=r)


def exhaustive_kmeans_objective(z: np.ndarray, r: int) -> float:
    """Brute-force optimum of the k-means objective over all assignments.

    Relabeling the clusters leaves the objective as it is, so point 0 stays
    in cluster 0 and the other points run over the base-r digits of
    0 .. r^(p-1) - 1.
    """
    p = z.shape[0]
    codes = np.arange(r ** (p - 1))[:, None]
    assigns = np.zeros((codes.size, p), dtype=np.int8)
    assigns[:, 1:] = codes // r ** np.arange(p - 1) % r
    gains = np.zeros(codes.size)
    for a in range(r):
        mask = assigns == a
        counts = mask.sum(axis=1)
        sums = mask.astype(float) @ z
        with np.errstate(invalid="ignore", divide="ignore"):
            gains += np.where(counts > 0, np.einsum("ij,ij->i", sums, sums) / counts, 0.0)
    return float(np.sum(z * z) - gains.max())


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

