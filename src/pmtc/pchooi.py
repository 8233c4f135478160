"""Coupled low-rank subspace estimation for a tensor/panel pair.

Given a characteristics tensor ``x`` with p1 x ... x pd clustered modes (and
an optional trailing time mode) plus an outcome panel ``y`` sharing mode 1,
the iteration alternates truncated SVD updates of the per-mode bases.  The
mode-1 step takes the top eigenvectors of the coupled Gram omega z z' + y y'
of the projected tensor unfolding z and ``y``, which is where the coupling
enters; the other modes follow the standard orthogonal-iteration update.
With ``y=None``, ``pchooi(x, None, ranks)`` is plain HOOI on the tensor.

Each update maximises the coupled objective
omega ||x ×_i U_i'||^2 + ||U_1' y||^2 over one basis with the others held,
so the objective never decreases, and the iteration stops once one sweep
raises it by no more than ``_TOL`` times its value, or after ``_MAX_ITER``
sweeps.  Zhang & Xia (*Tensor SVD: statistical and computational limits*,
IEEE Trans. Inf. Theory 2018) show why iterating further buys nothing: above
the computational threshold HOOI from a spectral start converges in O(log)
iterations, and below it more iterations do not improve the estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .tensor import lsvd, matricize, multi_mode_product, top_eigvecs, unfolding_gram

__all__ = ["PchooiResult", "pchooi", "coupled_block"]

_MAX_ITER = 50  # sweeps; the cap that ``converged=False`` reports
_TOL = 3e-3  # the objective's relative rise below which a sweep is flat


@dataclass(frozen=True)
class PchooiResult:
    """Fitted bases and stopping record.

    ``last_unfolding`` is the last mode's projected unfolding
    matricize(x ×_{j<d} U_j', d) from the last iteration, which used the
    final bases of every other mode; PMTSC clusters that mode on it without
    projecting the full tensor again.  None when ``x`` has one clustered
    mode, whose features must also hold the panel.
    """

    bases: list[np.ndarray]
    iterations_used: int
    converged: bool
    last_unfolding: np.ndarray | None = field(repr=False, compare=False)


def _check_inputs(x: np.ndarray, y: np.ndarray | None, ranks, grams=None) -> int:
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
    for mode, g in (grams or {}).items():
        if not 0 <= mode < x.ndim or np.shape(g) != (x.shape[mode],) * 2:
            raise ValueError(f"a {np.shape(g)} Gram given for mode {mode} of a {x.shape} tensor")
    return d


def _gram(x: np.ndarray, grams: dict[int, np.ndarray] | None, mode: int) -> np.ndarray:
    """Mode ``mode``'s unfolding Gram of ``x``: the given one, else one formed here and not kept."""
    return grams[mode] if grams is not None and mode in grams else unfolding_gram(x, mode)


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
    omega: float = 1.0,
    grams: dict[int, np.ndarray] | None = None,
) -> PchooiResult:
    """Estimate per-mode orthonormal bases for the clustered modes of ``x``.

    ``ranks`` gives the target subspace dimension of each clustered mode (any
    trailing time mode is never compressed).  ``omega`` down/up-weights the
    tensor block of the coupled mode-1 Gram omega z z' + y y'; omega=0
    recovers SVD-on-y, large omega approaches HOOI-on-x.

    ``x`` is brought into C order once here (a copy only for another layout);
    every mode product runs on its free reshape, and no other full-size array
    is formed.  ``grams`` holds the Grams of ``x`` already formed, by 0-based
    mode; a missing one is formed where it is read and not kept, and a given
    one that is not p_i x p_i raises ValueError.

    At omega=0 U_1 = lsvd(y) never changes, and the iterations update modes
    2, ..., d; otherwise they update every mode.  Each of those modes but
    the first starts from the top eigenvectors of its unfolding Gram; the
    first iteration overwrites the first before reading it, so a two-mode
    fit forms the Gram of mode 2 alone, and none at omega=0.  An iteration
    updates each mode in turn from its projected unfolding
    z = matricize(x ×_{j≠i} U_j', i): lsvd(z), or for the coupled mode 1 the
    top eigenvectors of omega z z' + y y' (y y' formed once per call).

    Iterations stop once one raises the objective
    omega ||x ×_i U_i'||^2 + ||U_1' y||^2 by no more than ``_TOL`` times its
    value, checked from the second iteration on (see the module docstring
    for why this is safe).  When an iteration updates at most one basis
    (omega=0 with two clustered modes, or one clustered mode), that update
    reads only bases that never change, so the first iteration is final and
    converged.  For ``pchooi(x, None, ...)``, and at omega=0 where U_1 is
    fixed, the objective is ||x ×_i U_i'||^2.  The tensor term is
    ||U_d' z||^2 for the projected unfolding z that the last mode's update
    has just formed, an r x n product rather than a pass over ``x``.  ``converged`` is False
    when ``_MAX_ITER`` stopped the iterations instead.  Returns the bases and
    the stopping record.
    """
    x = np.ascontiguousarray(x, dtype=float)
    y = None if y is None else np.asarray(y, dtype=float)
    if omega < 0:
        raise ValueError("omega must be nonnegative")
    d = _check_inputs(x, y, ranks, grams)

    fixed_mode1 = y is not None and omega == 0.0
    yy = None if y is None or fixed_mode1 else y @ y.T
    updated = range(1 if fixed_mode1 else 0, d)
    bases: list[np.ndarray | None] = [None] * d
    if fixed_mode1:
        bases[0] = lsvd(y, ranks[0])
    for i in updated[1:]:
        bases[i] = top_eigvecs(_gram(x, grams, i), ranks[i])

    converged = False
    value = 0.0
    for iterations in range(1, _MAX_ITER + 1):
        prev_value = value
        block = None  # projected unfolding of the mode updated last; the old one goes first
        for i in updated:
            others = {j: bases[j].T for j in range(d) if j != i}
            block = matricize(multi_mode_product(x, others), i)
            if i == 0 and yy is not None:
                bases[0] = top_eigvecs(omega * (block @ block.T) + yy, ranks[0])
            else:
                bases[i] = lsvd(block, ranks[i])
        if len(updated) <= 1:  # it read only fixed bases: a rerun repeats it
            converged = True
            break
        value = float(np.sum((bases[-1].T @ block) ** 2))
        if yy is not None:
            value = omega * value + float(np.sum((bases[0].T @ y) ** 2))
        if iterations > 1 and value - prev_value <= _TOL * value:
            converged = True
            break
    return PchooiResult(bases, iterations, converged, block if d > 1 else None)


def tensor_informative(x: np.ndarray, ranks, grams: dict[int, np.ndarray] | None = None) -> bool:
    """Whether every clustered mode's unfolding clears the spectral noise edge.

    Checks that the rank-m_i-th singular value of each mode unfolding exceeds
    the i.i.d.-noise bulk edge sigma (sqrt(p_i) + sqrt(cols)), with sigma
    estimated as the median of the min(p_i, cols) leading singular values
    over sqrt(max(p_i, cols)), which is robust to the low-rank signal (a tall
    unfolding's other singular values are zero).  Below the edge the tensor is
    spectrally indistinguishable from noise, the regime where a
    noise-dominated block should not enter a coupled objective; use the test
    to pick the coupling weight (1 if informative, else 0).  The singular
    values come from the unfolding Grams, given in ``grams`` as in
    :func:`pchooi` (a later ``pchooi`` start on ``x``, with or without a panel,
    can take the same dict) or formed here and not kept.
    """
    x = np.ascontiguousarray(x, dtype=float)
    _check_inputs(x, None, ranks, grams)
    # last mode first: a pchooi start skips mode 1's Gram, so a draw
    # that fails on a later mode never forms it
    for i, m in reversed(list(enumerate(ranks))):
        p = x.shape[i]
        cols = x.size // p
        eigs = np.linalg.eigvalsh(_gram(x, grams, i))
        s = np.sqrt(np.maximum(eigs[::-1], 0.0))
        sigma = float(np.median(s[: min(p, cols)])) / math.sqrt(max(p, cols))
        if s[m - 1] <= sigma * (math.sqrt(p) + math.sqrt(cols)):
            return False
    return True
