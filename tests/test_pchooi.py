import numpy as np
import pytest

from pmtc.pchooi import coupled_block, hooi, pchooi, tensor_informative
from pmtc.simulate import LowRankDesign, SimDesign, gen_coupled_lowrank, gen_pmtc
from pmtc.tensor import lsvd, multi_mode_product, subspace_distance


def _noiseless_coupled(seed=0, p1=12, p2=10, t=8, m=(3, 2)):
    rng = np.random.default_rng(seed)
    u1 = lsvd(rng.standard_normal((p1, m[0])), m[0])
    u2 = lsvd(rng.standard_normal((p2, m[1])), m[1])
    core = rng.standard_normal(m + (t,))
    x = multi_mode_product(core, {0: u1, 1: u2})
    f_y = rng.standard_normal((m[0], t))
    y = u1 @ f_y
    return x, y, [u1, u2]


def test_noiseless_exact_recovery():
    x, y, us = _noiseless_coupled()
    res = pchooi(x, y, (3, 2))
    assert res.converged and res.iterations_used <= 3
    for u_hat, u in zip(res.bases, us):
        assert subspace_distance(u_hat, u) < 1e-8
    assert np.allclose(res.x_hat, x, atol=1e-10)
    assert np.allclose(res.y_hat, y, atol=1e-10)


def test_full_rank_is_identity_projection():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((4, 5, 6))
    y = rng.standard_normal((4, 6))
    res = pchooi(x, y, (4, 5))
    assert np.allclose(res.x_hat, x, atol=1e-10)
    assert np.allclose(res.y_hat, y, atol=1e-10)


def test_outputs_recomputable_from_bases():
    data, truth = gen_coupled_lowrank(LowRankDesign(dims=(15, 12), T=10, ranks=(3, 3), seed=2))
    res = pchooi(data.x, data.y, (3, 3))
    projected = multi_mode_product(
        data.x, {i: u @ u.T for i, u in enumerate(res.bases)}
    )
    assert np.allclose(projected, res.x_hat, atol=1e-10)
    assert np.allclose(res.bases[0] @ (res.bases[0].T @ data.y), res.y_hat, atol=1e-10)


def test_denoised_outputs_computed_on_first_access_and_cached():
    x, y, _ = _noiseless_coupled(seed=12)
    res = pchooi(np.asfortranarray(x), y, (3, 2))
    assert "x_hat" not in vars(res) and "y_hat" not in vars(res)
    assert res.x_hat is res.x_hat and res.y_hat is res.y_hat
    assert res.x.flags.c_contiguous


def test_stop_rule_reported_consistently():
    data, _ = gen_coupled_lowrank(LowRankDesign(dims=(20, 18), T=12, ranks=(3, 3), seed=3))
    res = pchooi(data.x, data.y, (3, 3), max_iter=50, tol=1e-6)
    assert res.converged
    assert 1 <= res.iterations_used <= 50


def test_rotation_invariance_of_projectors():
    x, y, us = _noiseless_coupled(seed=4)
    rng = np.random.default_rng(5)
    q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    # rotating the true basis leaves the fitted projector unchanged
    res = pchooi(x, y, (3, 2))
    assert subspace_distance(res.bases[0], us[0] @ q) < 1e-8


def test_hooi_matches_pchooi_without_panel():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((10, 9, 8))
    a = hooi(x, (2, 2))
    b = pchooi(x, None, (2, 2))
    for ua, ub in zip(a.bases, b.bases):
        assert np.array_equal(ua, ub)
    assert a.y_hat is None


def test_omega_zero_reduces_to_panel_svd():
    data, _ = gen_coupled_lowrank(LowRankDesign(dims=(20, 15), T=12, ranks=(3, 2), seed=7))
    res = pchooi(data.x, data.y, (3, 2), omega=0.0)
    assert subspace_distance(res.bases[0], lsvd(data.y, 3)) < 1e-8


def test_coupled_block_at_zero_weight_is_the_panel():
    rng = np.random.default_rng(3)
    z, y = rng.standard_normal((6, 20)), rng.standard_normal((6, 4))
    assert coupled_block(z, y, 0.0) is y
    assert coupled_block(z, None, 0.0) is z
    assert np.array_equal(coupled_block(z, y, 1.0), np.concatenate([z, y], axis=1))


def test_large_omega_approaches_hooi():
    data, _ = gen_coupled_lowrank(LowRankDesign(dims=(20, 15), T=12, ranks=(3, 2), seed=8))
    res = pchooi(data.x, data.y, (3, 2), omega=1e8)
    base = hooi(data.x, (3, 2))
    assert subspace_distance(res.bases[0], base.bases[0]) < 1e-3


def test_shape_validation():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((5, 6, 7))
    with pytest.raises(ValueError):
        pchooi(x, rng.standard_normal((4, 7)), (2, 2))
    with pytest.raises(ValueError):
        pchooi(x, rng.standard_normal((5, 6)), (2, 2))
    with pytest.raises(ValueError):
        pchooi(x, None, (6, 2))
    with pytest.raises(ValueError):
        pchooi(x, rng.standard_normal((5, 7)), (2, 2), omega=-1.0)


def test_coupling_dominates_at_zero_panel_noise():
    # with a noiseless panel, the coupled mode-1 estimate is at least as good
    # as plain orthogonal iteration on the tensor, on average
    gaps = []
    for seed in range(50):
        d = LowRankDesign(dims=(30, 30), T=20, ranks=(3, 3), sigma_x=1.0, sigma_y=0.0,
                          c_x=1.0, c_y=1.0, seed=seed)
        data, truth = gen_coupled_lowrank(d)
        u_c = pchooi(data.x, data.y, d.ranks).bases[0]
        u_h = hooi(data.x, d.ranks).bases[0]
        gaps.append(
            subspace_distance(u_h, truth.bases[0]) - subspace_distance(u_c, truth.bases[0])
        )
    assert np.mean(gaps) >= 0.0


def test_tensor_informative_extremes():
    rng = np.random.default_rng(10)
    # pure noise: closed
    assert not tensor_informative(rng.standard_normal((40, 40, 20)), (3, 3))
    # noiseless block structure: open
    d = SimDesign(dims=(40, 40), T=20, ranks=(3, 3), m1=2, mu_b=(1.0,),
                  sigma_x=0.0, sigma_y=0.0, seed=11)
    data, _ = gen_pmtc(d)
    assert tensor_informative(data.x, d.ranks)
