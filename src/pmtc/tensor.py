"""Dense tensor algebra: mode products, unfolding, truncated SVD, subspace distance.

Dense tensors are plain numpy float arrays; ``shape`` plays the role of the
dimension vector.  The one layout is C order (last index fastest): the
algorithms normalise their inputs once with ``np.ascontiguousarray``, and
:func:`mode_product` keeps it.  A mode-k product is a single (batched) GEMM
on the free reshape of ``x`` to ``(prod(shape[:k]), p_k, prod(shape[k+1:]))``
and returns a C-contiguous result, so chains of products never copy the
full tensor.

Those products are bound by memory bandwidth, so one on ``_SPLIT_SIZE``
entries or more is split in two: the calling thread computes one half and
the process's one kernel thread (``pmtc-kernel``, idle between products)
the other.  The cut falls where no bit changes: between the batch's GEMMs
for a middle mode, else between the one GEMM's columns (mode 0) or rows
(last mode), at a multiple of 64.  Importing this module sets each bundled
OpenBLAS it calls to one thread for the whole process, so the BLAS neither
spreads that GEMM itself nor contends with a pool's workers.
No product splits in a process that multiprocessing started (a pool's worker,
whose siblings fill the cores), nor while the threads inside
:func:`sharing_cores` fill them.

The hot path never holds a second full-size tensor: products only shrink
it, and :func:`unfolding_gram` forms a mode's Gram matrix slab by slab.
:func:`matricize` is the only code that fixes an unfolding's column order,
and that order is C order too: the mode-k columns run over the other modes
in increasing order, the last fastest.  For an order-3 tensor A (0-based)

    mat1(A)[i, j*n3 + k] == mat2(A)[j, i*n3 + k] == mat3(A)[k, i*n2 + j] == A[i, j, k].

On a C-contiguous tensor the mode-1 unfolding is a free view and the last
mode's a free transposed (Fortran-ordered) view; any other is a copy, so
it is taken only of small projected tensors and single slabs.

The one LAPACK routine, ``dsyevr`` (:func:`top_eigvecs`), is called through
``ctypes`` in numpy's bundled OpenBLAS (Linux numpy-2 wheels): one OpenBLAS and
no SciPy module per process.  Where numpy bundles none, import loads SciPy's
extension ``scipy/linalg/_flapack`` alone instead, as ``pmtc._flapack`` (all of
``scipy.linalg`` would cost about 0.2 s and 20 MB), and pins SciPy's OpenBLAS.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import math
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from importlib import machinery, util

import numpy as np

__all__ = [
    "matricize",
    "mode_product",
    "lsvd",
    "top_eigvecs",
    "unfolding_gram",
    "slab_grams",
    "subspace_distance",
]


_SPLIT_SIZE = 1 << 20  # entries of x; set from the size sweep that CHANGES.md records
_SMALL_GEMM = 1 << 20  # multiply-adds; OpenBLAS computes a GEMM of at most 100**3 its own way
_fitting: set[int] = set()  # the threads inside sharing_cores()
_kernel_pools: dict[int, ThreadPoolExecutor] = {}  # by process id: a forked child makes its own


# numpy's bundled OpenBLAS (Linux numpy-2 wheels), whose names end in 64_; its LAPACK has dsyevr
_OPENBLAS = [(ctypes.CDLL(path), "64_") for path in
             glob.glob(f"{glob.escape(os.path.dirname(np.__file__))}.libs/libscipy_openblas64_*.so")]
_dsyevr = getattr(_OPENBLAS[0][0], "scipy_dsyevr_64_", None) if _OPENBLAS else None
if _dsyevr is not None:  # (jobz, range, uplo, n, a, lda, vl, vu, il, iu, abstol, m, w, z, ldz, isuppz,
    # work, lwork, iwork, liwork, info), then the three strings' hidden lengths
    _i, _d = ctypes.POINTER(ctypes.c_int64), ctypes.POINTER(ctypes.c_double)
    _f, _j = (np.ctypeslib.ndpointer(dtype, flags="F") for dtype in (np.float64, np.int64))
    _dsyevr.argtypes = [ctypes.c_char_p] * 3 + [_i, _f, _i, _d, _d, _i, _i, _d, _i, _f, _f, _i, _j, _f, _i,
                                                _j, _i, _i] + [ctypes.c_size_t] * 3
    _dsyevr.restype = None
else:  # no such library: SciPy's LAPACK extension, loaded alone (module docstring)
    import scipy

    _LINALG_DIR = os.path.join(os.path.dirname(scipy.__file__), "linalg")
    _spec = machinery.FileFinder(_LINALG_DIR, (machinery.ExtensionFileLoader, machinery.EXTENSION_SUFFIXES)
                                 ).find_spec("pmtc._flapack")
    if _spec is None:
        raise ImportError(f"SciPy's LAPACK extension _flapack is not in {_LINALG_DIR}")
    _flapack = sys.modules[_spec.name] = util.module_from_spec(_spec)
    _spec.loader.exec_module(_flapack)
    _OPENBLAS += [(ctypes.CDLL(path), "") for path in
                  glob.glob(f"{glob.escape(os.path.dirname(scipy.__file__))}.libs/libscipy_openblas-*.so")]
for _lib, _suffix in _OPENBLAS:  # void scipy_openblas_set_num_threads(int); any other BLAS is left as it is
    ctypes.CFUNCTYPE(None, ctypes.c_int)((f"scipy_openblas_set_num_threads{_suffix}", _lib))(1)


def usable_cores() -> int:
    """The number of cores this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def blas_threads() -> int | None:
    """The most threads a bundled OpenBLAS runs: 1, or None where numpy and SciPy bundle none."""
    return max((ctypes.CFUNCTYPE(ctypes.c_int)((f"scipy_openblas_get_num_threads{suffix}", lib))()
                for lib, suffix in _OPENBLAS), default=None)


def blas_build() -> str | None:
    """The build string of numpy's bundled OpenBLAS, which runs every kernel; None where there is none."""
    return next((ctypes.CFUNCTYPE(ctypes.c_char_p)(("scipy_openblas_get_config64_", lib))().decode()
                 for lib, suffix in _OPENBLAS if suffix), None)


@contextlib.contextmanager
def sharing_cores():
    """Mark the calling thread as fitting; no product splits while such threads fill the cores."""
    _fitting.add(threading.get_ident())
    try:
        yield
    finally:
        _fitting.discard(threading.get_ident())


def _check_mode(ndim: int, mode: int) -> None:
    if not 0 <= mode < ndim:
        raise ValueError(f"mode {mode} out of range for order-{ndim} tensor")


def matricize(x: np.ndarray, mode: int) -> np.ndarray:
    """Mode-``mode`` unfolding of ``x`` (0-based mode index).

    Returns a ``x.shape[mode] x prod(other dims)`` matrix whose columns run
    over the other modes in C order (see the module docstring); a view of a
    C-contiguous ``x`` for the first and last modes, else a copy.
    """
    x = np.asarray(x)
    _check_mode(x.ndim, mode)
    return np.moveaxis(x, mode, 0).reshape(x.shape[mode], -1)


def mode_product(x: np.ndarray, mode: int, u: np.ndarray) -> np.ndarray:
    """k-mode product ``x x_mode u``: contracts ``x`` along ``mode`` with ``u``.

    ``u`` must have shape (r, x.shape[mode]); the result replaces that
    dimension with r and is C-contiguous.  Satisfies
    matricize(result, mode) == u @ matricize(x, mode).  A C-contiguous ``x``
    is not copied; any other layout is copied once into C order.  A product
    on a full-size tensor may run on two threads, bit for bit (see the
    module docstring).
    """
    x = np.ascontiguousarray(x)
    u = np.asarray(u)
    _check_mode(x.ndim, mode)
    if u.ndim != 2 or u.shape[1] != x.shape[mode]:
        raise ValueError(
            f"matrix of shape {u.shape} cannot contract mode {mode} of size {x.shape[mode]}"
        )
    lead, p, trail = math.prod(x.shape[:mode]), x.shape[mode], math.prod(x.shape[mode + 1 :])
    out = np.empty(x.shape[:mode] + u.shape[:1] + x.shape[mode + 1 :], np.result_type(u, x))
    if lead != 1 and trail != 1:  # one GEMM per batch entry; split the batch
        b, c = x.reshape(lead, p, trail), out.reshape(lead, len(u), trail)
        part, half = lambda s: (u, b[s], c[s]), lead // 2
    elif trail == 1:
        # The batch would be matrix-vector products, which round differently
        # from u @ matricize(x, mode); one GEMM from the right matches it (bit
        # for bit with OpenBLAS).  Split its rows.
        a, c = x.reshape(lead, p), out.reshape(lead, len(u))
        part, half = lambda s: (a[s], u.T, c[s]), lead // 128 * 64
    else:  # mode 0, one GEMM; split its columns
        b, c = x.reshape(p, trail), out.reshape(len(u), trail)
        part, half = lambda s: (u, b[:, s], c[:, s]), trail // 128 * 64
    # Cut at a multiple of 64, OpenBLAS tiles each half of one GEMM as in the whole,
    # unless r == 1 (GEMV) or a half is a small GEMM.
    if (lead == 1 or trail == 1) and (len(u) == 1 or u.size * half < _SMALL_GEMM):
        half = 0
    mp = sys.modules.get("multiprocessing")  # every pool worker has it loaded
    if (x.size >= _SPLIT_SIZE and half > 0 and (mp is None or mp.parent_process() is None)
            and max(len(_fitting), 1) < usable_cores()):
        pool = _kernel_pools.get(os.getpid()) or _kernel_pools.setdefault(
            os.getpid(), ThreadPoolExecutor(1, thread_name_prefix="pmtc-kernel"))
        first = pool.submit(np.matmul, *part(slice(half)))
        np.matmul(*part(slice(half, None)))
        first.result()
    else:
        np.matmul(*part(slice(None)))
    return out


def multi_mode_product(x: np.ndarray, mats: dict[int, np.ndarray]) -> np.ndarray:
    """Apply several mode products ``{mode: matrix}``.

    Shrinking contractions are applied first so intermediate tensors stay
    small.
    """
    order = sorted(mats, key=lambda k: mats[k].shape[0] - mats[k].shape[1])
    out = x
    for mode in order:
        out = mode_product(out, mode, mats[mode])
    return out


def lsvd(a: np.ndarray, rank: int) -> np.ndarray:
    """Orthonormal basis of the top-``rank`` left singular subspace of ``a``.

    A wide matrix (more columns than rows) takes :func:`top_eigvecs` of its
    rows x rows Gram matrix ``a @ a.T``; a square or tall one takes the thin
    SVD.  The sign of each column is fixed so its largest-magnitude entry is
    positive (ties broken by lowest row index), making results deterministic.
    When singular values are repeated at the rank boundary the returned
    subspace is one valid choice; compare projectors, not raw bases.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError("lsvd expects a matrix")
    if not np.all(np.isfinite(a)):
        raise ValueError("lsvd requires finite entries")
    if not 1 <= rank <= min(a.shape):
        raise ValueError(f"rank {rank} invalid for matrix of shape {a.shape}")
    m, n = a.shape
    if n > m:
        return top_eigvecs(a @ a.T, rank)
    u, _, _ = np.linalg.svd(a, full_matrices=False)
    return _fix_signs(u[:, :rank].copy())


def top_eigvecs(g: np.ndarray, rank: int) -> np.ndarray:
    """Top-``rank`` eigenvectors of the symmetric matrix ``g``, largest first.

    Only those eigenpairs are solved for: ``dsyevr`` (module docstring) gets
    the arguments ``scipy.linalg.eigh(g, subset_by_index=[m - rank, m - 1])``
    gives it, workspace sizes too (the default ones change the bits), so the
    two agree bit for bit (SciPy's OpenBLAS on one thread too).  Non-finite
    entries, a non-square ``g`` and a rank outside 1..m raise ``ValueError``.
    Signs follow :func:`lsvd`'s rule, so for a Gram ``g = a @ a.T`` of a wide
    ``a`` the result is ``lsvd(a, rank)`` bit for bit.
    """
    g = np.asarray_chkfinite(g)
    m = g.shape[0]
    if g.shape != (m, m) or not 1 <= rank <= m:
        raise ValueError(f"top_eigvecs needs a square matrix and a rank in 1..m, not {g.shape}, rank {rank}")
    if _dsyevr is not None:
        vecs, info = _numpy_dsyevr(g, rank)
    else:
        lwork, liwork, _ = _flapack.dsyevr_lwork(n=m, lower=1)
        _, vecs, _, _, info = _flapack.dsyevr(g, compute_v=1, range="I", lower=1, il=m - rank + 1, iu=m,
                                              lwork=int(lwork), liwork=liwork)
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK dsyevr failed with info {info}")
    return _fix_signs(vecs[:, ::-1].copy())


def _numpy_dsyevr(g: np.ndarray, rank: int) -> tuple[np.ndarray, int]:
    """``_flapack.dsyevr``'s call on numpy's OpenBLAS: the top eigenvectors, smallest first, and info."""
    m, i64 = len(g), ctypes.c_int64
    (lwork, liwork), n, info, zero = _dsyevr_workspace(m), i64(m), i64(), ctypes.c_double()
    a, w, vecs = np.array(g, float, order="F"), np.empty(m), np.empty((m, rank), order="F")
    _dsyevr(b"V", b"I", b"L", n, a, n, zero, zero, i64(m - rank + 1), n, zero, i64(), w, vecs, n,
            np.empty(2 * m, np.int64), np.empty(lwork), i64(lwork), np.empty(liwork, np.int64), i64(liwork),
            info, 1, 1, 1)
    return vecs, info.value


@functools.lru_cache
def _dsyevr_workspace(m: int) -> tuple[int, int]:
    """``dsyevr``'s optimal lwork and liwork at order ``m``, which depend on ``m`` alone, from a
    workspace query (lwork = liwork = -1); a query touches no array but ``work`` and ``iwork``."""
    i64, zero, n, query = ctypes.c_int64, ctypes.c_double(), ctypes.c_int64(m), ctypes.c_int64(-1)
    work, iwork = np.zeros(1), np.zeros(1, np.int64)  # a failed query leaves 0: the solve then fails
    _dsyevr(b"V", b"I", b"L", n, work, n, zero, zero, i64(1), n, zero, i64(), work, work, n, iwork, work, query,
            iwork, query, i64(), 1, 1, 1)
    return int(work[0]), int(iwork[0])


def _fix_signs(u: np.ndarray) -> np.ndarray:
    """Flip each column of ``u`` in place so its largest-magnitude entry is positive."""
    for j in range(u.shape[1]):
        i = int(np.argmax(np.abs(u[:, j])))
        if u[i, j] < 0:
            u[:, j] = -u[:, j]
    return u


def slab_grams(slabs, modes) -> dict[int, np.ndarray]:
    """The mode-k unfolding Gram, for each mode k >= 1 in ``modes``, of a
    tensor given one mode-1 slab at a time.

    Each is the sum over the slabs, in the order given, of the Gram of the
    slab's mode-(k-1) unfolding (for order 3, G_2 = sum_i x[i] x[i]').
    ``slabs`` is any iterable of the slabs ``x[0], x[1], ...``: the tensor
    itself, or slabs handed over while the tensor is drawn.  Either way the
    sums are the same bit for bit, and the extra memory is one slab's
    unfolding.
    """
    sums: dict[int, np.ndarray] = {}
    for slab in slabs:
        if not sums:
            sums = {k: np.zeros((slab.shape[k - 1],) * 2) for k in modes}
        for k in modes:
            a = matricize(slab, k - 1)
            sums[k] += a @ a.T
    return sums


def unfolding_gram(x: np.ndarray, mode: int) -> np.ndarray:
    """The Gram ``a @ a.T`` of the mode-``mode`` unfolding ``a`` of ``x``, formed
    without a copy of the tensor: mode 0 is one GEMM on its free unfolding
    view, any other mode the :func:`slab_grams` sum over mode-1 slabs."""
    x = np.ascontiguousarray(x, dtype=float)
    _check_mode(x.ndim, mode)
    if mode == 0:
        a = matricize(x, 0)
        return a @ a.T
    return slab_grams(x, (mode,))[mode]


def subspace_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Spectral-norm distance between the column spaces of two orthonormal bases.

    Equals ``||V V' - U U'||_2``, the sine of the largest principal angle;
    symmetric, in [0, 1], and 0 iff the spans coincide.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise ValueError(f"basis shapes differ: {u.shape} vs {v.shape}")
    # largest singular value of (I - U U') V: numerically stable near zero,
    # unlike sqrt(1 - smin(U'V)^2)
    s = np.linalg.svd(v - u @ (u.T @ v), compute_uv=False)
    return float(min(1.0, s[0])) if s.size else 0.0
