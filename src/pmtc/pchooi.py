"""Coupled low-rank subspace estimation for a tensor/panel pair.

Given a characteristics tensor ``x`` with p1 x ... x pd clustered modes (and
an optional trailing time mode) plus an outcome panel ``y`` sharing mode 1,
the iteration alternates truncated SVD updates of the per-mode bases.  The
mode-1 step takes the top eigenvectors of the coupled Gram omega z z' + y y'
of the projected tensor unfolding z and ``y``, which is where the coupling
enters; the other modes follow the standard orthogonal-iteration update.
With ``y=None`` this reduces to plain HOOI on the tensor.

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

from .tensor import UnfoldingGrams, lsvd, matricize, multi_mode_product, top_eigvecs

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
    tensor block of the coupled mode-1 Gram omega z z' + y y'; omega=0
    recovers SVD-on-y, large omega approaches HOOI-on-x.

    ``x`` is brought into C order once here (a copy only for another
    layout); every mode product runs on its free reshape, and no other
    full-size array is formed.  The start takes the top eigenvectors of each
    mode's unfolding Gram from ``grams`` (:class:`~pmtc.tensor.UnfoldingGrams`
    of ``x``, built here when not given; pass one to share the Grams with
    other calls on the same tensor), with omega G_1 + y y' for the coupled
    mode 1.  An iteration updates each basis by :func:`~pmtc.tensor.lsvd` of
    a projected unfolding z, the coupled mode 1 by the top eigenvectors of
    omega z z' + y y' (y y' is formed once per call).  At omega=0 the mode-1
    basis is lsvd(y) and never changes, so the iterations skip it.

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

    fixed_mode1 = y is not None and omega == 0.0
    yy = None if y is None or fixed_mode1 else y @ y.T
    if fixed_mode1:
        bases = [lsvd(y, ranks[0])]
    else:
        bases = [top_eigvecs(grams[0] if yy is None else omega * grams[0] + yy, ranks[0])]
    bases += [top_eigvecs(grams[i], ranks[i]) for i in range(1, d)]

    iterations = 0
    converged = max_iter == 0
    last = None
    value = 0.0
    for _ in range(max_iter):
        iterations += 1
        prev_value = value
        block = last = None  # projected unfolding of the mode updated last
        if not fixed_mode1:
            others = {j: bases[j].T for j in range(1, d)}
            block = multi_mode_product(x, others).reshape(x.shape[0], -1)
            g = None if yy is None else omega * (block @ block.T) + yy
            bases[0] = lsvd(block, ranks[0]) if g is None else top_eigvecs(g, ranks[0])
        for i in range(1, d):
            others = {j: bases[j].T for j in range(d) if j != i}
            block = last = matricize(multi_mode_product(x, others), i)
            bases[i] = lsvd(last, ranks[i])
        value = 0.0 if block is None else float(np.sum((bases[-1].T @ block) ** 2))
        if yy is not None:
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
    estimated as the median of the min(p_i, cols) leading singular values
    over sqrt(max(p_i, cols)), which is robust to the low-rank signal (a tall
    unfolding's other singular values are zero).  Below the edge the tensor is
    spectrally indistinguishable from noise, the regime where a
    noise-dominated block should not enter a coupled objective; use the test
    to pick the coupling weight (1 if informative, else 0).  The singular
    values come from the unfolding Grams in ``grams``
    (:class:`~pmtc.tensor.UnfoldingGrams` of ``x``, built here when not
    given), which a later PCHOOI or HOOI start on ``x`` can reuse.
    """
    grams = UnfoldingGrams.of(x, grams)
    for i, m in enumerate(ranks):
        p = grams.x.shape[i]
        cols = grams.x.size // p
        eigs = np.linalg.eigvalsh(grams[i])
        s = np.sqrt(np.maximum(eigs[::-1], 0.0))
        sigma = float(np.median(s[: min(p, cols)])) / math.sqrt(max(p, cols))
        if s[m - 1] <= sigma * (math.sqrt(p) + math.sqrt(cols)):
            return False
    return True
