"""Group-level factor loading estimation from final mode-1 memberships.

Both estimators act on the group-mean panel (each cluster's rows of ``y``
averaged), so group loadings come out free of cluster-size scaling: in the
noiseless observed-factor model the least-squares estimate reproduces the
loading matrix exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .membership import Membership
from .tensor import lsvd

__all__ = ["FactorEstimate", "estimate_latent", "estimate_observed", "per_asset_loadings"]

_MAX_CONDITION = 1e12


@dataclass(frozen=True)
class FactorEstimate:
    """mode 'latent': ``loadings`` is an orthonormal r1 x m1 basis of the
    loading column space (rotational ambiguity applies) and ``factors`` holds
    the recovered m1 x T factor paths.  mode 'observed': ``loadings`` is the
    r1 x m1 least-squares loading matrix and ``factors`` is None."""

    mode: str
    loadings: np.ndarray
    factors: np.ndarray | None
    num_factors: int


def estimate_latent(y: np.ndarray, m1: Membership, num_factors: int) -> FactorEstimate:
    """PCA on the pooled second moment of the group-mean panel.

    Returns the top-``num_factors`` eigenbasis of (A A' / T) for the r1 x T
    group-mean panel A, plus the factor paths recovered by projecting A onto
    it.  Accuracy is a subspace statement only -- compare projectors, never
    raw entries.
    """
    y = np.asarray(y, dtype=float)
    if m1.size != y.shape[0]:
        raise ValueError("membership length does not match panel rows")
    if not 1 <= num_factors <= m1.num_clusters:
        raise ValueError(
            f"factor count {num_factors} must lie in [1, {m1.num_clusters}]"
        )
    a = m1.projector().T @ y
    second_moment = a @ a.T / y.shape[1]
    if not np.any(second_moment):
        raise ValueError("degenerate panel: pooled second moment is zero")
    u_b = lsvd(second_moment, num_factors)
    return FactorEstimate("latent", u_b, u_b.T @ a, num_factors)


def estimate_observed(
    y: np.ndarray,
    m1: Membership,
    factors: np.ndarray,
    demean: bool = True,
) -> FactorEstimate:
    """Least squares of the group-mean panel on observed factors.

    ``demean=True`` (the default) removes the time-series mean from both the
    panel and the factors, i.e. fits the regression with an absorbed
    intercept; loadings are then invariant to adding any time-constant to
    ``y``.
    """
    y = np.asarray(y, dtype=float)
    f = np.asarray(factors, dtype=float)
    if m1.size != y.shape[0]:
        raise ValueError("membership length does not match panel rows")
    if f.ndim != 2 or f.shape[1] != y.shape[1]:
        raise ValueError(f"factor shape {f.shape} does not match panel columns {y.shape[1]}")
    if demean:
        y = y - y.mean(axis=1, keepdims=True)
        f = f - f.mean(axis=1, keepdims=True)
    gram = f @ f.T
    if np.linalg.cond(gram) > _MAX_CONDITION:
        raise np.linalg.LinAlgError("factor second-moment matrix is numerically singular")
    b_hat = np.linalg.solve(gram, (m1.projector().T @ y @ f.T).T).T
    return FactorEstimate("observed", b_hat, None, f.shape[0])


def per_asset_loadings(loadings: np.ndarray, m1: Membership) -> np.ndarray:
    """Expand group loadings to a p1 x m1 matrix, row j taking its cluster's row."""
    loadings = np.asarray(loadings, dtype=float)
    if loadings.shape[0] != m1.num_clusters:
        raise ValueError("loading rows must equal the cluster count")
    return loadings[m1.labels]
