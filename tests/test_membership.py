import numpy as np
import pytest

from pmtc.membership import EmptyClusterError, Membership


def test_one_hot_small():
    m = Membership(np.array([0, 1, 0]), 2)
    assert np.array_equal(m.one_hot(), [[1, 0], [0, 1], [1, 0]])


def test_one_hot_single_cluster():
    m = Membership(np.zeros(3, dtype=int), 1)
    assert np.array_equal(m.one_hot(), np.ones((3, 1)))


def test_one_hot_counting_oracle():
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 4, size=20)
    m = Membership(labels, 4)
    oh = m.one_hot()
    assert np.array_equal(oh.T @ oh, np.diag(m.cluster_sizes.astype(float)))
    assert np.array_equal(oh.sum(axis=1), np.ones(20))


def test_projector_identity_case():
    m = Membership(np.array([0, 1]), 2)
    assert np.array_equal(m.projector(), np.eye(2))


def test_projector_averaging():
    m = Membership(np.array([0, 0]), 1)
    assert np.array_equal(m.projector(), [[0.5], [0.5]])


def test_projector_groupby_mean_oracle():
    rng = np.random.default_rng(1)
    labels = np.array(list(range(3)) * 5)
    m = Membership(labels, 3)
    x = rng.standard_normal(15)
    means = m.projector().T @ x
    for a in range(3):
        assert abs(means[a] - x[labels == a].mean()) < 1e-12


def test_projector_left_inverse_identity():
    rng = np.random.default_rng(2)
    labels = np.concatenate([np.arange(4), rng.integers(0, 4, 16)])
    m = Membership(labels, 4)
    assert np.allclose(m.one_hot().T @ m.projector(), np.eye(4), atol=1e-12)


def test_normalized_basis_and_scale():
    m = Membership(np.array([0, 0, 1, 1]), 2)
    lam = m.scale()
    w = m.normalized_basis()
    assert np.allclose(lam, np.diag([np.sqrt(2), np.sqrt(2)]))
    assert np.allclose(w.T @ w, np.eye(2), atol=1e-12)
    assert np.max(np.abs(w @ lam - m.one_hot())) == 0.0


def test_normalized_basis_single_cluster():
    m = Membership(np.zeros(4, dtype=int), 1)
    assert np.allclose(m.normalized_basis(), 0.5 * np.ones((4, 1)))


def test_empty_cluster_errors():
    m = Membership(np.array([0, 0, 2]), 3)
    for op in (m.projector, m.normalized_basis, m.scale):
        with pytest.raises(EmptyClusterError) as err:
            op()
        assert "EmptyCluster(2)" in str(err.value)
    m.one_hot()  # one-hot is fine with empty clusters


def test_label_validation():
    with pytest.raises(ValueError):
        Membership(np.array([0, 3]), 2)
    with pytest.raises(ValueError):
        Membership(np.array([-1, 0]), 2)
    with pytest.raises(ValueError):
        Membership(np.array([]), 1)
