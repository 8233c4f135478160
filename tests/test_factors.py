import numpy as np
import pytest

from pmtc.factors import estimate_latent, estimate_observed, per_asset_loadings
from pmtc.membership import EmptyClusterError, Membership
from pmtc.simulate import SimDesign, gen_pmtc
from pmtc.tensor import lsvd, subspace_distance


def _panel(rng, p=24, r=3, m=2, t=30, noise=0.0, labels=None):
    labels = rng.integers(0, r, p) if labels is None else labels
    member = Membership(labels, r)
    b = rng.standard_normal((r, m))
    f = rng.standard_normal((m, t))
    y = b[member.labels] @ f + noise * rng.standard_normal((p, t))
    return y, member, b, f


def test_latent_noiseless_spans():
    rng = np.random.default_rng(0)
    y, member, b, f = _panel(rng)
    est = estimate_latent(y, member, 2)
    assert est.loadings.shape == (3, 2)
    assert est.factors.shape == (2, 30)
    # recovered basis spans the loading column space ...
    assert subspace_distance(est.loadings, lsvd(b, 2)) < 1e-8
    # ... and the per-asset expansions agree with the true expanded loadings
    assert subspace_distance(
        lsvd(member.one_hot() @ est.loadings, 2), lsvd(member.one_hot() @ b, 2)
    ) < 1e-8


def test_latent_zero_panel_signals_degeneracy():
    member = Membership(np.array([0, 1, 0, 1]), 2)
    with pytest.raises(ValueError):
        estimate_latent(np.zeros((4, 6)), member, 1)


def test_latent_factor_count_validation():
    rng = np.random.default_rng(1)
    y, member, _, _ = _panel(rng)
    with pytest.raises(ValueError):
        estimate_latent(y, member, 4)


def test_latent_membership_length_must_match_panel_rows():
    rng = np.random.default_rng(1)
    y, member, _, _ = _panel(rng)
    with pytest.raises(ValueError, match="membership length does not match panel rows"):
        estimate_latent(y[:-1], member, 2)


def test_latent_requires_nonempty_clusters():
    rng = np.random.default_rng(2)
    member = Membership(np.zeros(6, dtype=int), 2)
    with pytest.raises(EmptyClusterError):
        estimate_latent(rng.standard_normal((6, 10)), member, 1)


def test_observed_noiseless_identity():
    rng = np.random.default_rng(3)
    y, member, b, f = _panel(rng)
    for demean in (False, True):
        est = estimate_observed(y, member, f, demean=demean)
        assert np.allclose(est.loadings, b, atol=1e-8)


def test_observed_identity_factors_give_period_means():
    rng = np.random.default_rng(4)
    t = 3
    member = Membership(np.array([0, 0, 1, 1, 1]), 2)
    y = rng.standard_normal((5, t))
    est = estimate_observed(y, member, np.eye(t), demean=False)
    for a in range(2):
        assert np.allclose(est.loadings[a], y[member.labels == a].mean(axis=0), atol=1e-12)


def test_observed_demean_invariance_to_time_constant():
    rng = np.random.default_rng(6)
    y, member, b, f = _panel(rng, noise=0.3)
    shifted = y + rng.standard_normal((y.shape[0], 1))
    a = estimate_observed(y, member, f, demean=True)
    c = estimate_observed(shifted, member, f, demean=True)
    assert np.allclose(a.loadings, c.loadings, atol=1e-10)


def test_observed_singular_factor_matrix():
    rng = np.random.default_rng(7)
    y, member, _, _ = _panel(rng)
    bad = np.ones((2, 30))
    with pytest.raises(np.linalg.LinAlgError):
        estimate_observed(y, member, bad, demean=False)


def test_observed_shape_validation():
    rng = np.random.default_rng(8)
    y, member, _, f = _panel(rng)
    with pytest.raises(ValueError):
        estimate_observed(y, member, f[:, :10])


def test_observed_membership_length_must_match_panel_rows():
    rng = np.random.default_rng(8)
    y, member, _, f = _panel(rng)
    with pytest.raises(ValueError, match="membership length does not match panel rows"):
        estimate_observed(y[:2], member, f)


def test_per_asset_loadings_gather():
    rng = np.random.default_rng(9)
    member = Membership(np.array([1, 0, 1, 2]), 3)
    b = rng.standard_normal((3, 2))
    rows = per_asset_loadings(b, member)
    for j in range(4):
        assert np.array_equal(rows[j], b[member.labels[j]])


def test_per_asset_loadings_block_constant():
    member = Membership(np.array([0, 0, 1, 1]), 2)
    b = np.array([[1.0, 2.0], [3.0, 4.0]])
    rows = per_asset_loadings(b, member)
    assert np.array_equal(rows[0], rows[1])
    assert np.array_equal(rows[2], rows[3])
    one = per_asset_loadings(np.array([[5.0]]), Membership(np.zeros(3, dtype=int), 1))
    assert np.all(one == 5.0)


def test_error_shrinks_with_more_periods():
    # doubling the sample length shrinks the loading error by about sqrt(2)
    rng = np.random.default_rng(10)
    errs = {30: [], 60: []}
    for t, reps in ((30, 60), (60, 60)):
        for _ in range(reps):
            y, member, b, f = _panel(rng, p=30, t=t, noise=1.0)
            est = estimate_observed(y, member, f, demean=True)
            errs[t].append(np.linalg.norm(est.loadings - b))
    ratio = np.mean(errs[60]) / np.mean(errs[30])
    assert 0.55 < ratio < 0.87


def test_grouping_advantage_over_per_asset_regression():
    # grouped loadings have a smaller worst-row error than asset-by-asset
    # least squares, on average
    rng = np.random.default_rng(11)
    wins = 0
    for trial in range(40):
        d = SimDesign(dims=(40, 30), T=24, ranks=(3, 2), m1=2, mu_b=(1.0,),
                      gamma_y=0.3, seed=100 + trial)
        data, truth = gen_pmtc(d)
        member = truth.memberships[0]
        grouped = estimate_observed(data.y, member, truth.f, demean=True)
        g_rows = per_asset_loadings(grouped.loadings, member)
        fd = truth.f - truth.f.mean(axis=1, keepdims=True)
        yd = data.y - data.y.mean(axis=1, keepdims=True)
        ungrouped = np.linalg.solve(fd @ fd.T, fd @ yd.T).T
        true_rows = per_asset_loadings(truth.b, member)
        g_err = np.max(np.linalg.norm(g_rows - true_rows, axis=1))
        u_err = np.max(np.linalg.norm(ungrouped - true_rows, axis=1))
        wins += g_err < u_err
    assert wins >= 36
