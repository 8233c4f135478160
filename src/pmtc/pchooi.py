"""Coupled low-rank subspace estimation for a tensor/panel pair.

Given a characteristics tensor ``x`` with p1 x ... x pd clustered modes (and
an optional trailing time mode) plus an outcome panel ``y`` sharing mode 1,
the iteration alternates truncated SVD updates of the per-mode bases.  The
mode-1 step operates on the column concatenation of the projected tensor
unfolding and ``y``, which is where the coupling enters; the remaining modes
follow the standard orthogonal-iteration update.  With ``y=None`` this
reduces to plain HOOI on the tensor.

Each update maximises the coupled objective
omega ||x ×_i U_i'||^2 + ||U_1' y||^2 over one basis with the others held,
so the objective never decreases, and the iteration stops once one sweep
raises it by no more than a small share of its value.  Zhang & Xia (*Tensor
SVD: statistical and computational limits*, IEEE Trans. Inf. Theory 2018)
show why iterating further buys nothing: above the computational threshold
HOOI from a spectral start converges in O(log) iterations, and below it more
iterations do not improve the estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .tensor import UnfoldingGrams, lsvd, matricize, multi_mode_product

__all__ = ["PchooiResult", "pchooi", "hooi", "coupled_block"]


@dataclass(frozen=True)
class PchooiResult:
    """Fitted bases and stopping record.

    ``last_unfolding`` is the last mode's projected unfolding
    matricize(x ×_{j<d} U_j', d) from the last iteration, which used the
    final bases of every other mode (None when ``max_iter`` was 0 or ``x``
    has a single clustered mode); PMTSC clusters that mode on it without
    projecting the full tensor again.
    """

    bases: list[np.ndarray]
    iterations_used: int
    converged: bool
    last_unfolding: np.ndarray | None = field(repr=False, compare=False)


def _check_inputs(x: np.ndarray, y: np.ndarray | None, ranks) -> int:
    d = len(ranks)
    if x.ndim not in (d, d + 1):
        raise ValueError(f"tensor order {x.ndim} incompatible with {d} ranks")
    for i, m in enumerate(ranks):
        if not 1 <= m <= x.shape[i]:
            raise ValueError(f"rank {m} exceeds mode-{i + 1} dimension {x.shape[i]}")
    if y is not None:
        if x.ndim != d + 1:
            raise ValueError("a coupled panel requires an uncompressed trailing time mode")
        if y.shape != (x.shape[0], x.shape[-1]):
            raise ValueError(
                f"panel shape {y.shape} does not match tensor modes ({x.shape[0]}, {x.shape[-1]})"
            )
    return d


def coupled_block(z: np.ndarray, y: np.ndarray | None, omega: float) -> np.ndarray:
    """The coupled mode-1 matrix [sqrt(omega) z, y].

    Without a panel it is ``z`` alone; at ``omega=0`` the tensor block carries
    no weight, so it is the panel ``y`` alone (the same left singular subspace
    and the same row distances as [0, y], without forming the zeros).
    """
    if y is None:
        return z
    if omega == 0.0:
        return y
    if omega != 1.0:
        z = math.sqrt(omega) * z
    return np.concatenate([z, y], axis=1)


def pchooi(
    x: np.ndarray,
    y: np.ndarray | None,
    ranks,
    max_iter: int = 50,
    tol: float = 3e-3,
    omega: float = 1.0,
    grams: UnfoldingGrams | None = None,
) -> PchooiResult:
    """Estimate per-mode orthonormal bases for the clustered modes of ``x``.

    ``ranks`` gives the target subspace dimension of each clustered mode (any
    trailing time mode is never compressed).  ``omega`` down/up-weights the
    tensor block of the coupled mode-1 matrix (the tensor unfolding is scaled
    by sqrt(omega) before concatenation with ``y``); omega=0 recovers
    SVD-on-y, large omega approaches HOOI-on-x.

    ``x`` is brought into C order once here, so every mode product of the
    iteration runs on the free reshape of the full tensor.  Each basis update
    is :func:`~pmtc.tensor.lsvd` of a wide block (projected unfolding, plus
    ``y`` on mode 1), i.e. the top eigenvectors of its Gram matrix.  The
    start takes the top eigenvectors of each mode's unfolding Gram from
    ``grams`` (:class:`~pmtc.tensor.UnfoldingGrams` of ``x``, built here when
    not given; pass one to share the Grams with other calls on the same
    tensor), except the coupled mode-1 start, the lsvd of [sqrt(omega) x_(1), y].
    At omega=0 the mode-1 block is ``y`` alone, so its basis never changes and
    the iterations neither project for it nor recompute it.

    Iterations stop once one raises the objective
    omega ||x ×_i U_i'||^2 + ||U_1' y||^2 by no more than ``tol`` times its
    value, checked from the second iteration on (see the module docstring
    for why this is safe).  For HOOI, and at omega=0 where U_1 is fixed, the
    objective is ||x ×_i U_i'||^2.  The tensor term is ||U_d' z||^2 for the
    projected unfolding z that the last mode's update has just formed, an
    r x n product rather than a pass over ``x``.  ``converged`` is False
    when ``max_iter`` stopped the iterations instead.  Returns the bases and
    the stopping record.
    """
    x = np.ascontiguousarray(x, dtype=float)
    y = None if y is None else np.asarray(y, dtype=float)
    if omega < 0:
        raise ValueError("omega must be nonnegative")
    d = _check_inputs(x, y, ranks)
    grams = UnfoldingGrams.of(x, grams)

    # Mode 1 takes the free C-order reshape; its column order differs from
    # matricize(., 0), which leaves the left singular subspace unchanged.
    p1 = x.shape[0]
    if y is None:
        bases = [grams.lsvd(0, ranks[0])]
    else:
        bases = [lsvd(coupled_block(x.reshape(p1, -1), y, omega), ranks[0])]
    bases += [grams.lsvd(i, ranks[i]) for i in range(1, d)]

    fixed_mode1 = y is not None and omega == 0.0
    iterations = 0
    converged = max_iter == 0
    last = None
    value = 0.0
    for _ in range(max_iter):
        iterations += 1
        prev_value = value
        block = None  # projected unfolding of the mode updated last
        if not fixed_mode1:
            others = {j: bases[j].T for j in range(1, d)}
            block = multi_mode_product(x, others).reshape(p1, -1)
            bases[0] = lsvd(coupled_block(block, y, omega), ranks[0])
        for i in range(1, d):
            others = {j: bases[j].T for j in range(d) if j != i}
            block = last = matricize(multi_mode_product(x, others), i)
            bases[i] = lsvd(last, ranks[i])
        value = 0.0 if block is None else float(np.sum((bases[-1].T @ block) ** 2))
        if not fixed_mode1 and y is not None:
            value = omega * value + float(np.sum((bases[0].T @ y) ** 2))
        if iterations > 1 and value - prev_value <= tol * value:
            converged = True
            break
    return PchooiResult(bases, iterations, converged, last)


def hooi(x: np.ndarray, ranks, grams: UnfoldingGrams | None = None) -> PchooiResult:
    """Plain higher-order orthogonal iteration on the tensor alone (``grams``
    as in :func:`pchooi`)."""
    return pchooi(x, None, ranks, grams=grams)


def tensor_informative(x: np.ndarray, ranks, grams: UnfoldingGrams | None = None) -> bool:
    """Whether every clustered mode's unfolding clears the spectral noise edge.

    Checks that the rank-m_i-th singular value of each mode unfolding exceeds
    the i.i.d.-noise bulk edge sigma (sqrt(p_i) + sqrt(cols)), with sigma
    estimated from the median singular value of the (very wide) unfolding,
    which is robust to the low-rank signal.  Below the edge the tensor is
    spectrally indistinguishable from noise, the regime where a
    noise-dominated block should not enter a coupled objective; use the test
    to pick the coupling weight (1 if informative, else 0).  The singular
    values come from the unfolding Grams in ``grams``
    (:class:`~pmtc.tensor.UnfoldingGrams` of ``x``, built here when not
    given), which a later PCHOOI or HOOI start on ``x`` can reuse.
    """
    x = np.ascontiguousarray(x, dtype=float)
    grams = UnfoldingGrams.of(x, grams)
    for i, m in enumerate(ranks):
        p = x.shape[i]
        cols = x.size // p
        eigs = np.linalg.eigvalsh(grams[i])
        s = np.sqrt(np.maximum(eigs[::-1], 0.0))
        sigma = float(np.median(s)) / math.sqrt(cols)
        if s[m - 1] <= sigma * (math.sqrt(p) + math.sqrt(cols)):
            return False
    return True
