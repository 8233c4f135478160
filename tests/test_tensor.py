import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from pmtc.tensor import (
    UnfoldingGrams,
    lsvd,
    matricize,
    mode_product,
    multi_mode_product,
    subspace_distance,
)


def test_index_map_order3_explicit():
    # A[i,j,k] = i + 2(j-1) + 4(k-1) in 1-based terms
    a = np.empty((2, 2, 2))
    for i in range(2):
        for j in range(2):
            for k in range(2):
                a[i, j, k] = (i + 1) + 2 * j + 4 * k
    m1 = matricize(a, 0)
    assert m1.shape == (2, 4)
    assert list(m1[0]) == [1, 3, 5, 7]
    assert list(m1[1]) == [2, 4, 6, 8]


@pytest.mark.parametrize("dims", [(3, 4, 5), (2, 3, 4)])
def test_index_map_exhaustive_all_modes(dims):
    rng = np.random.default_rng(0)
    a = rng.standard_normal(dims)
    n1, n2, n3 = dims
    m1, m2, m3 = matricize(a, 0), matricize(a, 1), matricize(a, 2)
    for i in range(n1):
        for j in range(n2):
            for k in range(n3):
                assert m1[i, j + n2 * k] == a[i, j, k]
                assert m2[j, k + n3 * i] == a[i, j, k]
                assert m3[k, i + n1 * j] == a[i, j, k]


def test_matricize_order1():
    v = np.array([1.0, 2.0, 5.0])
    m = matricize(v, 0)
    assert m.shape == (3, 1)
    assert np.array_equal(m.ravel(), v)


def test_matricize_mode_out_of_range():
    with pytest.raises(ValueError):
        matricize(np.zeros((2, 2)), 2)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_mode_product_unfolding_identity_property(dims, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(tuple(dims))
    for mode in range(a.ndim):
        u = rng.standard_normal((3, a.shape[mode]))
        out = mode_product(a, mode, u)
        assert np.allclose(matricize(out, mode), u @ matricize(a, mode), rtol=0, atol=1e-12)


def test_mode_product_identity():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((3, 4, 5))
    for mode in range(3):
        assert np.allclose(mode_product(a, mode, np.eye(a.shape[mode])), a, atol=1e-15)


def test_mode_product_hand_summation():
    # all-ones 2x2x2 contracted with [[1,1]] on any mode gives all-twos
    a = np.ones((2, 2, 2))
    out = mode_product(a, 0, np.array([[1.0, 1.0]]))
    assert out.shape == (1, 2, 2)
    assert np.array_equal(out, 2 * np.ones((1, 2, 2)))


def test_mode_products_commute():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 4, 5))
    u = rng.standard_normal((2, 3))
    v = rng.standard_normal((6, 4))
    lhs = mode_product(mode_product(a, 0, u), 1, v)
    rhs = mode_product(mode_product(a, 1, v), 0, u)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_mode_product_unfolding_identity():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((3, 4, 5))
    for mode in range(3):
        u = rng.standard_normal((2, a.shape[mode]))
        out = mode_product(a, mode, u)
        assert np.allclose(matricize(out, mode), u @ matricize(a, mode), atol=1e-12)


def test_mode_product_other_mode_kronecker_structure():
    # contracting mode j != k acts on mat_k by a column reindexing mixture:
    # verify against an exhaustive elementwise oracle
    rng = np.random.default_rng(5)
    a = rng.standard_normal((2, 3, 4))
    u = rng.standard_normal((5, 3))
    out = mode_product(a, 1, u)
    for i in range(2):
        for j in range(5):
            for k in range(4):
                expect = sum(a[i, t, k] * u[j, t] for t in range(3))
                assert abs(out[i, j, k] - expect) < 1e-12


def test_mode_product_shape_mismatch():
    with pytest.raises(ValueError):
        mode_product(np.zeros((2, 3)), 0, np.zeros((4, 3)))


def test_lsvd_diagonal():
    u = lsvd(np.diag([3.0, 2.0, 1.0]), 2)
    target = np.eye(3)[:, :2]
    assert subspace_distance(u, target) < 1e-12


def test_lsvd_identity_projector():
    u = lsvd(np.eye(3), 2)
    p = u @ u.T
    # projector onto some 2-dim subspace; idempotent with trace 2
    assert np.allclose(p @ p, p, atol=1e-12)
    assert abs(np.trace(p) - 2.0) < 1e-12


def test_lsvd_best_rank_r_approx():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((10, 6))
    for r in (1, 3, 6):
        u = lsvd(a, r)
        uf, s, vt = np.linalg.svd(a, full_matrices=False)
        best = uf[:, :r] @ np.diag(s[:r]) @ vt[:r]
        assert np.linalg.norm(u @ (u.T @ a) - best) < 1e-10


def test_lsvd_sign_convention_deterministic():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((8, 5))
    u = lsvd(a, 3)
    for j in range(3):
        assert u[np.argmax(np.abs(u[:, j])), j] > 0
    assert np.array_equal(u, lsvd(a.copy(), 3))


def _gapped_matrix(rng, m, n, spectrum):
    # well-separated singular values so subspace comparisons are stable
    q1 = np.linalg.qr(rng.standard_normal((m, m)))[0][:, : len(spectrum)]
    q2 = np.linalg.qr(rng.standard_normal((n, n)))[0][:, : len(spectrum)]
    return q1 @ np.diag(spectrum) @ q2.T


def test_lsvd_scale_invariant_projector():
    rng = np.random.default_rng(8)
    a = _gapped_matrix(rng, 9, 5, [5.0, 4.0, 3.0, 2.0, 1.0])
    u1 = lsvd(a, 3)
    u2 = lsvd(2.5 * a, 3)
    assert subspace_distance(u1, u2) < 1e-10


def test_lsvd_wide_matrix_matches_direct_svd():
    rng = np.random.default_rng(9)
    a = _gapped_matrix(rng, 10, 200, [8.0, 6.0, 4.0, 3.0, 1.0]) + 0.01 * rng.standard_normal((10, 200))
    u = lsvd(a, 4)
    uf, _, _ = np.linalg.svd(a, full_matrices=False)
    assert subspace_distance(u, uf[:, :4]) < 1e-9


def test_lsvd_errors():
    with pytest.raises(ValueError):
        lsvd(np.zeros((3, 3)), 4)
    with pytest.raises(ValueError):
        lsvd(np.array([[np.nan, 0.0], [0.0, 1.0]]), 1)


def test_subspace_distance_basics():
    e = np.eye(2)
    assert subspace_distance(e[:, :1], e[:, :1]) == 0.0
    assert abs(subspace_distance(e[:, :1], e[:, 1:]) - 1.0) < 1e-12
    v = np.array([[1.0], [1.0]]) / np.sqrt(2)
    assert abs(subspace_distance(e[:, :1], v) - np.sqrt(2) / 2) < 1e-12


def test_subspace_distance_symmetric_and_triangle():
    rng = np.random.default_rng(10)
    for _ in range(25):
        us = [np.linalg.qr(rng.standard_normal((7, 3)))[0] for _ in range(3)]
        d01 = subspace_distance(us[0], us[1])
        assert abs(d01 - subspace_distance(us[1], us[0])) < 1e-12
        assert d01 <= subspace_distance(us[0], us[2]) + subspace_distance(us[2], us[1]) + 1e-12


def test_subspace_distance_shape_mismatch():
    with pytest.raises(ValueError):
        subspace_distance(np.eye(3)[:, :1], np.eye(3)[:, :2])


def _layouts(a):
    """The same tensor as C-ordered, F-ordered and non-contiguous arrays."""
    padded = np.zeros(tuple(2 * n for n in a.shape))
    sliced = padded[tuple(slice(None, None, 2) for _ in a.shape)]
    sliced[...] = a
    return {"C": np.ascontiguousarray(a), "F": np.asfortranarray(a), "sliced": sliced}


@pytest.mark.parametrize("dims", [(4, 5), (3, 4, 5), (2, 3, 4, 3)])
@pytest.mark.parametrize("layout", ["C", "F", "sliced"])
def test_mode_product_matches_unfolding_oracle_any_layout(dims, layout):
    rng = np.random.default_rng(11)
    x = _layouts(rng.standard_normal(dims))[layout]
    for mode in range(len(dims)):
        u = rng.standard_normal((2, dims[mode]))
        out = mode_product(x, mode, u)
        assert out.flags.c_contiguous
        assert out.shape == dims[:mode] + (2,) + dims[mode + 1:]
        assert np.allclose(matricize(out, mode), u @ matricize(x, mode), rtol=0, atol=1e-12)


def test_multi_mode_product_chain_stays_c_contiguous():
    rng = np.random.default_rng(12)
    x = np.asfortranarray(rng.standard_normal((6, 5, 4)))
    u, v = rng.standard_normal((2, 6)), rng.standard_normal((3, 5))
    out = multi_mode_product(x, {0: u, 1: v})
    assert out.shape == (2, 3, 4) and out.flags.c_contiguous
    assert np.allclose(out, np.einsum("ia,jb,abk->ijk", u, v, x), rtol=0, atol=1e-12)


def test_lsvd_gram_path_between_square_and_four_times_wide():
    rng = np.random.default_rng(13)
    a = _gapped_matrix(rng, 40, 120, [9.0, 7.0, 5.0, 3.0, 1.0]) + 1e-3 * rng.standard_normal((40, 120))
    u = lsvd(a, 4)
    uf, _, _ = np.linalg.svd(a, full_matrices=False)
    assert np.allclose(u @ u.T, uf[:, :4] @ uf[:, :4].T, rtol=0, atol=1e-9)


def test_lsvd_path_follows_shape(monkeypatch):
    rng = np.random.default_rng(14)
    wide, tall = rng.standard_normal((5, 6)), rng.standard_normal((6, 5))

    def forbidden(*args, **kwargs):
        raise AssertionError("wrong lsvd path")

    with monkeypatch.context() as m:
        # the wide path solves only the top eigenpairs, with scipy's eigh
        m.setattr(np.linalg, "svd", forbidden)
        m.setattr(np.linalg, "eigh", forbidden)
        lsvd(wide, 2)
        full = lsvd(wide, 5)  # rank == rows: every eigenpair
    with monkeypatch.context() as m:
        m.setattr(np.linalg, "eigh", forbidden)
        m.setattr(scipy.linalg, "eigh", forbidden)
        lsvd(tall, 2)
        lsvd(tall[:5], 2)  # square
    uf, _, _ = np.linalg.svd(wide, full_matrices=False)  # descending singular values
    assert np.allclose(np.abs(full.T @ uf), np.eye(5), rtol=0, atol=1e-9)


@pytest.mark.parametrize("dims", [(7, 5), (6, 5, 4), (5, 4, 3, 6)])
def test_unfolding_grams_equal_the_gram_of_each_unfolding(dims):
    x = np.random.default_rng(15).standard_normal(dims)
    grams = UnfoldingGrams(x)
    for mode in range(x.ndim):
        a = matricize(x, mode)
        ref = a @ a.T
        assert np.linalg.norm(grams[mode] - ref) <= 1e-13 * np.linalg.norm(ref)


def test_unfolding_grams_hold_no_copy_of_the_tensor():
    x = np.random.default_rng(16).standard_normal((100, 100, 60))
    tracemalloc.start()
    try:
        grams = UnfoldingGrams(x)
        for mode in range(x.ndim):
            grams[mode]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * x.nbytes
