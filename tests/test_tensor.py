import math
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from pmtc import tensor
from pmtc.simulate import BlockDesign, gen_tensor_block
from pmtc.tensor import (
    lsvd,
    matricize,
    mode_product,
    multi_mode_product,
    slab_grams,
    subspace_distance,
    top_eigvecs,
    unfolding_gram,
)


def test_index_map_order3_explicit():
    # A[i,j,k] = i + 2(j-1) + 4(k-1) in 1-based terms; the columns of mat1
    # run over (j, k) with k fastest
    a = np.empty((2, 2, 2))
    for i in range(2):
        for j in range(2):
            for k in range(2):
                a[i, j, k] = (i + 1) + 2 * j + 4 * k
    m1 = matricize(a, 0)
    assert m1.shape == (2, 4)
    assert list(m1[0]) == [1, 5, 3, 7]
    assert list(m1[1]) == [2, 6, 4, 8]


@pytest.mark.parametrize("dims", [(3, 4, 5), (2, 3, 4)])
def test_index_map_exhaustive_all_modes(dims):
    rng = np.random.default_rng(0)
    a = rng.standard_normal(dims)
    n1, n2, n3 = dims
    m1, m2, m3 = matricize(a, 0), matricize(a, 1), matricize(a, 2)
    for i in range(n1):
        for j in range(n2):
            for k in range(n3):
                assert m1[i, j * n3 + k] == a[i, j, k]
                assert m2[j, i * n3 + k] == a[i, j, k]
                assert m3[k, i * n2 + j] == a[i, j, k]


def test_index_map_order4_is_c_order_over_the_other_modes():
    dims = (2, 3, 4, 5)
    a = np.random.default_rng(1).standard_normal(dims)
    for mode in range(4):
        rest = tuple(n for m, n in enumerate(dims) if m != mode)
        m = matricize(a, mode)
        assert m.shape == (dims[mode], np.prod(rest))
        for idx in np.ndindex(*dims):
            col = np.ravel_multi_index(idx[:mode] + idx[mode + 1:], rest)
            assert m[idx[mode], col] == a[idx]


@pytest.mark.parametrize("dims", [(4, 5), (3, 4, 5), (2, 3, 4, 3)])
def test_first_and_last_unfoldings_are_views(dims):
    x = np.random.default_rng(2).standard_normal(dims)
    assert np.shares_memory(matricize(x, 0), x)
    last = matricize(x, x.ndim - 1)
    assert np.shares_memory(last, x) and last.flags.f_contiguous


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


def _gram(rng, m, kind, scale):
    """A symmetric m x m Gram: a generic one, one whose top eigenvalue is
    repeated, or one of rank m // 2."""
    if kind == "repeated":
        q = np.linalg.qr(rng.standard_normal((m, m)))[0]
        g = (q * np.r_[4.0, 4.0, rng.uniform(0.0, 2.0, m - 2)]) @ q.T
        return scale * (g + g.T) / 2
    a = rng.standard_normal((m, m // 2 if kind == "deficient" else m + 9))
    return scale * (a @ a.T)


def _eigh_top(g, rank):
    """scipy.linalg.eigh's top-rank eigenvectors, largest first, with lsvd's signs."""
    m = len(g)
    return tensor._fix_signs(scipy.linalg.eigh(g, subset_by_index=[m - rank, m - 1])[1][:, ::-1].copy())


# from m = 37 up dsytrd's reduction may run blocked, which the workspace size
# decides: the default one changes the bits there
@pytest.mark.parametrize("m, scale", [(5, 0.01), (37, 1.0), (120, 100.0), (200, 1.0)])
@pytest.mark.parametrize("rank", [1, 2, 5])
@pytest.mark.parametrize("kind", ["generic", "repeated", "deficient"])
def test_top_eigvecs_is_scipy_eigh_bit_for_bit(m, scale, rank, kind):
    g = _gram(np.random.default_rng([m, rank, len(kind)]), m, kind, scale)
    assert np.array_equal(top_eigvecs(g, rank), _eigh_top(g, rank))


# in a fresh interpreter, whichever of scipy.linalg and pmtc loads LAPACK first
_EIGH_PROBE = """
import sys
import numpy as np
{}
from test_tensor import _eigh_top, _gram
from pmtc.tensor import top_eigvecs

assert "_flapack" not in sys.modules and "pmtc._flapack" in sys.modules
for m, rank in ((5, 2), (200, 5)):
    g = _gram(np.random.default_rng(m), m, "generic", 1.0)
    assert np.array_equal(top_eigvecs(g, rank), _eigh_top(g, rank))
"""


@pytest.mark.parametrize("imports", ["import scipy.linalg\nimport pmtc", "import pmtc\nimport scipy.linalg"],
                         ids=["scipy-first", "pmtc-first"])
def test_top_eigvecs_is_scipy_eigh_whichever_is_imported_first(imports):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([os.path.dirname(__file__), *sys.path])}
    run = subprocess.run([sys.executable, "-c", _EIGH_PROBE.format(imports)], capture_output=True,
                         text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr


def test_top_eigvecs_errors():
    g = np.eye(3)
    for rank in (0, 4):
        with pytest.raises(ValueError, match="rank"):
            top_eigvecs(g, rank)
    for bad in (np.nan, np.inf, -np.inf):
        g[0, 2] = bad  # the upper triangle, which dsyevr never reads: checked all the same
        with pytest.raises(ValueError, match="infs or NaNs"):
            top_eigvecs(g, 1)


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
        # the wide path solves only the top eigenpairs, with LAPACK's dsyevr
        m.setattr(np.linalg, "svd", forbidden)
        m.setattr(np.linalg, "eigh", forbidden)
        lsvd(wide, 2)
        full = lsvd(wide, 5)  # rank == rows: every eigenpair
    with monkeypatch.context() as m:
        m.setattr(np.linalg, "eigh", forbidden)
        m.setattr(tensor._flapack, "dsyevr", forbidden)
        lsvd(tall, 2)
        lsvd(tall[:5], 2)  # square
    uf, _, _ = np.linalg.svd(wide, full_matrices=False)  # descending singular values
    assert np.allclose(np.abs(full.T @ uf), np.eye(5), rtol=0, atol=1e-9)


@pytest.mark.parametrize("dims", [(7, 5), (6, 5, 4), (5, 4, 3, 6)])
def test_unfolding_grams_equal_the_gram_of_each_unfolding(dims):
    x = np.random.default_rng(15).standard_normal(dims)
    streamed = slab_grams(x, range(1, x.ndim))  # every mode but the first, in one pass
    for mode in range(x.ndim):
        a = matricize(x, mode)
        ref = a @ a.T
        g = unfolding_gram(x, mode)
        assert np.linalg.norm(g - ref) <= 1e-13 * np.linalg.norm(ref)
        # the same sums whatever the layout, and whichever modes a pass forms
        assert np.array_equal(unfolding_gram(np.asfortranarray(x), mode), g)
        if mode:
            assert np.array_equal(streamed[mode], g)
    for mode in (-1, x.ndim):
        with pytest.raises(ValueError):
            unfolding_gram(x, mode)


def test_unfolding_grams_hold_no_copy_of_the_tensor():
    x = np.random.default_rng(16).standard_normal((100, 100, 60))
    tracemalloc.start()
    try:
        for mode in range(x.ndim):
            unfolding_gram(x, mode)
        slab_grams(x, range(1, x.ndim))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * x.nbytes


def _unsplit(x, mode, u, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(tensor, "_SPLIT_SIZE", math.inf)
        return mode_product(x, mode, u)


@pytest.mark.parametrize("shape", [(201, 199, 121), (128, 128, 64), (64, 64, 16, 16)])
@pytest.mark.parametrize("rank", [2, 5, 16])
def test_split_products_equal_unsplit_ones_bit_for_bit(kernel_pool, monkeypatch, shape, rank):
    # mode 0 splits the one GEMM's columns, the last mode its rows and any
    # other mode the batch of GEMMs
    rng = np.random.default_rng(rank)
    x = rng.standard_normal(shape)
    for mode in range(len(shape)):
        u = rng.standard_normal((rank, shape[mode]))
        split = mode_product(x, mode, u)
        assert len(kernel_pool.halves) == mode + 1
        assert np.array_equal(split, _unsplit(x, mode, u, monkeypatch))
        assert split.flags.c_contiguous
    first, last = kernel_pool.halves[0], kernel_pool.halves[-1]
    assert first[1] % 64 == 0 and last[0] % 64 == 0  # the columns and rows cut


def test_block_tensor_projections_split_bit_for_bit(kernel_pool, monkeypatch):
    # a 3-mode block tensor with no time mode, contracted with its membership
    # projections as PMTSC and Lloyd do
    design = BlockDesign(dims=(103, 101, 105), ranks=(3, 4, 5), core_scale=0.5, seed=2)
    x, truth = gen_tensor_block(design)
    for mode, member in enumerate(truth.memberships):
        u = member.one_hot().T / np.sqrt(member.one_hot().sum(axis=0))[:, None]
        assert np.array_equal(mode_product(x, mode, u), _unsplit(x, mode, u, monkeypatch))
    assert len(kernel_pool.halves) == 3


@pytest.mark.parametrize("shape, rank, cores, halves", [
    ((128, 128, 64), 5, 2, 3),  # 2**20 entries: every mode splits
    ((127, 128, 64), 5, 2, 0),  # one slab fewer: none does
    ((128, 128, 64), 5, 1, 0),  # one usable core: none does
    ((128, 128, 64), 1, 2, 1),  # r = 1: only the batch splits; the others would be GEMVs
    ((1100, 1000), 3, 2, 2),
    ((1100, 1000), 2, 2, 0),  # halves of under 2**20 multiply-adds would be small GEMMs
])
def test_only_full_size_products_on_two_cores_reach_the_kernel_thread(
        kernel_pool, monkeypatch, shape, rank, cores, halves):
    monkeypatch.setattr(tensor, "usable_cores", lambda: cores)
    rng = np.random.default_rng(3)
    x = rng.standard_normal(shape)
    for mode in range(len(shape)):
        u = rng.standard_normal((rank, shape[mode]))
        assert np.array_equal(mode_product(x, mode, u), _unsplit(x, mode, u, monkeypatch))
    assert len(kernel_pool.halves) == halves


@pytest.mark.parametrize("blas_threads, split_modes", [
    (None, [1]),  # OpenBLAS's default threads spread the one GEMM themselves
    ("2", [1]),
    ("1", [0, 1, 2]),
])
def test_a_threaded_blas_keeps_the_one_gemm_whole(kernel_pool, monkeypatch, blas_threads,
                                                  split_modes):
    if blas_threads is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas_threads)
    rng = np.random.default_rng(6)
    x = rng.standard_normal((128, 128, 64))  # 2**20 entries
    split = []
    for mode in range(x.ndim):
        u = rng.standard_normal((5, x.shape[mode]))
        before = len(kernel_pool.halves)
        assert np.array_equal(mode_product(x, mode, u), _unsplit(x, mode, u, monkeypatch))
        if len(kernel_pool.halves) > before:
            split.append(mode)
    assert split == split_modes


@pytest.mark.parametrize("cores, halves", [(2, 0), (3, 1)])
def test_no_product_splits_while_fitting_threads_fill_the_cores(kernel_pool, monkeypatch,
                                                                cores, halves):
    monkeypatch.setattr(tensor, "usable_cores", lambda: cores)
    x, u = np.ones((128, 128, 64)), np.ones((5, 128))
    entered, leave = threading.Event(), threading.Event()

    def fit_elsewhere():
        with tensor.sharing_cores():
            entered.set()
            leave.wait(timeout=60)

    other = threading.Thread(target=fit_elsewhere)
    other.start()
    try:
        assert entered.wait(timeout=60)
        with tensor.sharing_cores():
            assert np.array_equal(mode_product(x, 1, u), np.full((128, 5, 64), 128.0))
            assert len(kernel_pool.halves) == halves  # two fitting threads leave a core idle of 3
    finally:
        leave.set()
        other.join(timeout=60)
    with tensor.sharing_cores():  # the other thread is done: this one fits alone
        mode_product(x, 1, u)
    assert len(kernel_pool.halves) == halves + 1
    assert tensor._fitting == set()


def _product_in_a_child(seed):
    rng = np.random.default_rng(seed)
    x, u = rng.standard_normal((128, 128, 64)), rng.standard_normal((5, 128))
    return mode_product(x, 0, u), [t.name for t in threading.enumerate()]


def test_a_pool_worker_keeps_its_products_whole(monkeypatch):
    # the workers fill the cores between them, so a worker never starts a
    # kernel thread, also when its parent has one
    monkeypatch.setattr(tensor, "usable_cores", lambda: 2)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")  # else mode 0 never splits
    rng = np.random.default_rng(4)
    x, u = rng.standard_normal((128, 128, 64)), rng.standard_normal((5, 128))
    want = mode_product(x, 0, u)
    assert any(t.name.startswith("pmtc-kernel") for t in threading.enumerate())
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as pool:
        got, names = pool.submit(_product_in_a_child, 4).result(timeout=60)
    assert np.array_equal(got, want)
    assert not any(name.startswith("pmtc-kernel") for name in names)


def test_a_forked_process_splits_on_its_own_kernel_thread(monkeypatch):
    # A process forked outside multiprocessing is no pool worker.  Had it
    # handed its half to the parent's kernel thread, which it does not have,
    # it would wait for ever; the alarm ends it instead.
    monkeypatch.setattr(tensor, "usable_cores", lambda: 2)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")  # else mode 0 never splits
    rng = np.random.default_rng(4)
    x, u = rng.standard_normal((128, 128, 64)), rng.standard_normal((5, 128))
    want = mode_product(x, 0, u)
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child
        try:
            signal.alarm(60)
            got, names = _product_in_a_child(4)
            ok = np.array_equal(got, want) and "pmtc-kernel" in " ".join(names)
            os.write(write, b"1" if ok else b"0")
        finally:
            os._exit(0)
    os.close(write)
    with os.fdopen(read, "rb") as reply:
        assert reply.read() == b"1"
    assert os.waitpid(pid, 0)[1] == 0


def test_threads_splitting_at_once_share_the_kernel_thread(kernel_pool, monkeypatch):
    # more splitting threads than cores, switching often: every half is still
    # computed once, into its own product, and no thread waits for ever
    rng = np.random.default_rng(5)
    x = rng.standard_normal((128, 128, 64))
    jobs = [(mode, rng.standard_normal((3 + t, x.shape[mode]))) for t in range(4) for mode in range(3)]
    want = [_unsplit(x, mode, u, monkeypatch) for mode, u in jobs]
    got = [None] * len(jobs)

    def work(t):
        for _ in range(5):
            for j in range(3 * t, 3 * t + 3):
                got[j] = mode_product(x, *jobs[j])

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert len(kernel_pool.halves) == 5 * len(jobs)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
