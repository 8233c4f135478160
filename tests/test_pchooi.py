import numpy as np
import pytest

import importlib

from pmtc import tensor
from pmtc.pchooi import coupled_block, pchooi, tensor_informative
from pmtc.simulate import LowRankDesign, SimDesign, gen_coupled_lowrank, gen_pmtc
from pmtc.tensor import (
    lsvd,
    matricize,
    multi_mode_product,
    slab_grams,
    subspace_distance,
    top_eigvecs,
    unfolding_gram,
)

pchooi_module = importlib.import_module("pmtc.pchooi")  # the package exports a function of this name


def _noiseless_coupled(seed=0, p1=12, p2=10, t=8, m=(3, 2)):
    rng = np.random.default_rng(seed)
    u1 = lsvd(rng.standard_normal((p1, m[0])), m[0])
    u2 = lsvd(rng.standard_normal((p2, m[1])), m[1])
    core = rng.standard_normal(m + (t,))
    x = multi_mode_product(core, {0: u1, 1: u2})
    f_y = rng.standard_normal((m[0], t))
    y = u1 @ f_y
    return x, y, [u1, u2]


def _assert_projections_keep(x, y, bases):
    """x ×_i U_i U_i' == x and U_1 U_1' y == y."""
    x_hat = multi_mode_product(x, {i: u @ u.T for i, u in enumerate(bases)})
    assert np.allclose(x_hat, x, atol=1e-10)
    assert np.allclose(bases[0] @ (bases[0].T @ y), y, atol=1e-10)


def test_noiseless_exact_recovery():
    x, y, us = _noiseless_coupled()
    res = pchooi(x, y, (3, 2))
    assert res.converged and res.iterations_used <= 3
    for u_hat, u in zip(res.bases, us):
        assert subspace_distance(u_hat, u) < 1e-8
    _assert_projections_keep(x, y, res.bases)


def test_full_rank_is_identity_projection():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((4, 5, 6))
    y = rng.standard_normal((4, 6))
    _assert_projections_keep(x, y, pchooi(x, y, (4, 5)).bases)


def test_stop_rule_reported_consistently():
    data, _ = gen_coupled_lowrank(LowRankDesign(dims=(20, 18), T=12, ranks=(3, 3), seed=3))
    res = pchooi(data.x, data.y, (3, 3))
    assert res.converged
    assert 1 <= res.iterations_used <= 50


def test_rotation_invariance_of_projectors():
    x, y, us = _noiseless_coupled(seed=4)
    rng = np.random.default_rng(5)
    q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    # rotating the true basis leaves the fitted projector unchanged
    res = pchooi(x, y, (3, 2))
    assert subspace_distance(res.bases[0], us[0] @ q) < 1e-8


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
    base = pchooi(data.x, None, (3, 2))
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
        u_h = pchooi(data.x, None, d.ranks).bases[0]
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


def test_tensor_informative_on_a_tall_unfolding():
    # many assets, few characteristics x months: the mode-1 unfolding is
    # 1000 x 240, so 760 of its 1000 singular values are zero
    rng = np.random.default_rng(0)
    x = rng.standard_normal((1000, 4, 60))
    b = np.linalg.qr(rng.standard_normal((4, 2)))[0]
    x += np.einsum("jk,ik,tk->ijt", b, rng.standard_normal((1000, 2)),
                   rng.standard_normal((60, 2)))
    assert tensor_informative(x, (2, 2))
    assert not tensor_informative(x, (12, 2))  # the 12th lies inside the noise bulk
    a = matricize(x, 0)
    for m in (2, 12):  # the edge of a tall matrix is its transpose's
        assert tensor_informative(a, (m,)) == tensor_informative(a.T, (m,))


def small_draw(gamma_x=0.1):
    """The 60 x 50 x 30 coupled draw whose six-method labels are pinned
    (gamma_x=-0.5 puts the tensor below its noise edge)."""
    design = SimDesign(dims=(60, 50), T=30, gamma_x=gamma_x, seed=1)
    data, _ = gen_pmtc(design)
    return data.x, data.y, design.ranks


def record_products(monkeypatch) -> list[tuple[int, tuple[int, ...]]]:
    """Record (mode, input shape) of every mode product from here on."""
    calls = []
    original = tensor.mode_product

    def counted(x, mode, u):
        calls.append((mode, np.shape(x)))
        return original(x, mode, u)

    monkeypatch.setattr(tensor, "mode_product", counted)
    return calls


@pytest.mark.parametrize("omega", [None, 0.0, 1.0])  # None: HOOI, the tensor alone
def test_shared_grams_change_no_bits(monkeypatch, omega):
    x, y, ranks = small_draw()
    y, omega = (None, 1.0) if omega is None else (y, omega)
    grams = {mode: unfolding_gram(x, mode) for mode in range(len(ranks))}
    given = dict(grams)
    assert tensor_informative(x, ranks, grams)  # reads every mode's Gram
    own = pchooi(x, y, ranks, omega=omega)
    starts, original = [], pchooi_module.top_eigvecs

    def spied(g, rank):
        starts.append((g, original(g, rank)))
        return starts[-1][1]

    monkeypatch.setattr(pchooi_module, "top_eigvecs", spied)
    for shared_grams in (grams, {1: grams[1]}):  # every Gram given, or only mode 2's
        shared = pchooi(x, y, ranks, omega=omega, grams=shared_grams)
        assert own.iterations_used == shared.iterations_used
        for a, b in zip(own.bases, shared.bases):
            assert np.array_equal(a, b)
    assert grams.keys() == given.keys()  # read, never written
    assert all(grams[mode] is given[mode] for mode in grams)
    # mode 2 starts from the top eigenvectors of its kept Gram, which span
    # its unfolding's top left singular subspace; at omega=0 mode 2 is the
    # first mode updated and needs no start, and mode 1 is lsvd(y)
    if omega == 0.0:
        assert not any(g is grams[1] for g, _ in starts)
        assert np.array_equal(own.bases[0], lsvd(y, ranks[0]))
    else:
        start = [u for g, u in starts if g is grams[1]]
        assert len(start) == 2  # once per call, with the Gram given either way
        assert np.array_equal(start[0], top_eigvecs(grams[1], ranks[1]))
        assert subspace_distance(start[0], lsvd(matricize(x, 1), ranks[1])) < 1e-10
    assert not any(g is grams[0] for g, _ in starts)  # mode 1's Gram is never read
    # the kept projection is the one PMTSC would otherwise recompute
    again = matricize(multi_mode_product(x, {0: own.bases[0].T}), 1)
    assert np.array_equal(own.last_unfolding, again)


def single_mode_draw(seed=5):
    """A p1 x T tensor (one clustered mode and the time mode) with its panel."""
    design = SimDesign(dims=(40,), T=25, ranks=(3,), m1=2, mu_b=(1.0,), gamma_x=0.1, seed=seed)
    data, _ = gen_pmtc(design)
    return data.x, data.y, design.ranks


@pytest.mark.parametrize("omega", [None, 0.0, 0.5, 1.0])  # None: HOOI, the tensor alone
def test_single_clustered_mode(omega):
    x, y, ranks = single_mode_draw()
    if omega is None:
        res = pchooi(x, None, ranks)
        expect = lsvd(x, ranks[0])
    else:
        res = pchooi(x, y, ranks, omega=omega)
        expect = (lsvd(y, ranks[0]) if omega == 0.0
                  else top_eigvecs(omega * (x @ x.T) + y @ y.T, ranks[0]))
    # the mode-1 block is the whole unfolding, so one update is the answer
    assert res.converged and res.iterations_used <= 2
    assert np.array_equal(res.bases[0], expect)
    assert res.last_unfolding is None


def test_grams_of_another_shape_rejected():
    x, y, ranks = small_draw()
    fewer_rows = {0: unfolding_gram(x[:-1], 0)}  # a Gram pchooi's start never reads
    fewer_columns = slab_grams(x[:, :-1], (1,))
    for grams in (fewer_rows, fewer_columns, {3: np.eye(2)}):
        with pytest.raises(ValueError):
            pchooi(x, y, ranks, grams=grams)
        with pytest.raises(ValueError):
            tensor_informative(x, ranks, grams)


@pytest.mark.parametrize("gamma_x, given, formed", [
    (-0.5, False, [1]),  # mode 2 fails the test, so mode 1's Gram is never formed
    (-0.5, True, []),
    (0.1, False, [1, 0]),  # mode 1's Gram is formed only once mode 2 has passed
    (0.1, True, [0]),
])
def test_tensor_informative_forms_mode_1s_gram_last(monkeypatch, gamma_x, given, formed):
    x, _, ranks = small_draw(gamma_x)
    grams = {1: unfolding_gram(x, 1)} if given else None
    got, original = [], pchooi_module.unfolding_gram

    def counted(x, mode):
        got.append(mode)
        return original(x, mode)

    monkeypatch.setattr(pchooi_module, "unfolding_gram", counted)
    assert tensor_informative(x, ranks, grams) == (gamma_x > 0)
    assert got == formed


def test_zero_weight_iterations_skip_the_mode1_projection(monkeypatch):
    x, y, ranks = small_draw()
    calls = record_products(monkeypatch)
    pchooi(x, y, ranks, omega=0.0)
    # only mode 2's update projects (along mode 1), once; mode 1's basis is
    # lsvd(y)
    assert calls == [(0, x.shape)]
    calls.clear()
    res = pchooi(x, y, ranks, omega=1.0)
    assert sorted(calls) == sorted([(0, x.shape), (1, x.shape)] * res.iterations_used)


def _objective(x, y, bases):
    """The omega=1 objective ||x ×_i U_i'||^2 + ||U_1' y||^2 (the first term
    alone without a panel)."""
    core = multi_mode_product(x, {i: u.T for i, u in enumerate(bases)})
    value = float(np.sum(core**2))
    return value if y is None else value + float(np.sum((bases[0].T @ y) ** 2))


def _capped(monkeypatch, max_iter, tol=0.0):
    """Make ``pchooi`` run at most ``max_iter`` sweeps and stop at ``tol``."""
    monkeypatch.setattr(pchooi_module, "_MAX_ITER", max_iter)
    monkeypatch.setattr(pchooi_module, "_TOL", tol)


@pytest.mark.parametrize("coupled", [False, True])  # HOOI, and omega=1
def test_objective_never_decreases_with_more_iterations(monkeypatch, coupled):
    x, y, ranks = small_draw(-0.5)
    y = y if coupled else None
    values = []
    for k in range(1, 12):
        _capped(monkeypatch, k)
        values.append(_objective(x, y, pchooi(x, y, ranks).bases))
    for before, after in zip(values, values[1:]):
        assert after >= before * (1 - 1e-12)


@pytest.mark.parametrize("coupled", [False, True])
def test_flat_objective_stops_before_the_cap(monkeypatch, coupled):
    x, y, ranks = small_draw(-0.5)
    y = y if coupled else None
    res = pchooi(x, y, ranks)
    assert res.converged and 2 <= res.iterations_used < 50
    _capped(monkeypatch, 50)
    capped = pchooi(x, y, ranks)
    assert not capped.converged and capped.iterations_used == 50


@pytest.mark.parametrize("gamma_x", [-0.5, 0.1])
def test_zero_weight_stops_after_one_iteration(monkeypatch, gamma_x):
    # U_1 = lsvd(y) is fixed, so mode 2's update reads only a fixed basis
    # and a second iteration would repeat it bit for bit
    x, y, ranks = small_draw(gamma_x)
    res = pchooi(x, y, ranks, omega=0.0)
    assert res.converged and res.iterations_used == 1
    _capped(monkeypatch, 2)
    capped = pchooi(x, y, ranks, omega=0.0)
    assert capped.iterations_used == 1
    # the second iteration, by hand, from the bases the first one returned
    block = matricize(multi_mode_product(x, {0: res.bases[0].T}), 1)
    second = [res.bases[0], lsvd(block, ranks[1])]
    for a, b, c in zip(res.bases, capped.bases, second):
        assert a.tobytes() == b.tobytes() == c.tobytes()
    assert res.last_unfolding.tobytes() == block.tobytes()


def test_one_clustered_mode_stops_after_one_iteration():
    # the one update reads no other basis, so a second iteration repeats it
    rng = np.random.default_rng(11)
    x, y = rng.standard_normal((12, 9)), rng.standard_normal((12, 9))
    for panel, omega in ((None, 1.0), (y, 1.0), (y, 0.0)):
        res = pchooi(x, panel, (3,), omega=omega)
        assert res.converged and res.iterations_used == 1
    assert pchooi(x, None, (3,)).bases[0].tobytes() == lsvd(x, 3).tobytes()
