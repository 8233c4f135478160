"""Metrics of clustering and estimation: permutation-aligned error rate,
misclustering loss (a library function; the simulation harness writes only
``cer``), the block-center separations the simulation designs are normalized
by, and total R-squared of group loadings against a market-excess benchmark."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .membership import Membership
from .pchooi import coupled_block
from .tensor import matricize, multi_mode_product

__all__ = ["cer", "misclustering_loss", "total_r2"]

_EXHAUSTIVE_MAX = 8


def _confusion(g_hat: Membership, g_true: Membership) -> np.ndarray:
    r = g_true.num_clusters
    c = np.zeros((r, r), dtype=np.int64)
    np.add.at(c, (g_hat.labels, g_true.labels), 1)
    return c


def cer(g_hat: Membership, g_true: Membership) -> tuple[float, np.ndarray]:
    """Misclustering error rate and the permutation achieving it.

    Minimizes the fraction of items with ``g_hat != perm(g_true)`` over all
    relabelings; the returned ``perm`` maps each true label to its matched
    estimated label.  Up to r = 8 clusters every permutation is enumerated;
    above that, maximum-weight bipartite matching on the confusion matrix
    finds the same optimum (``scipy.optimize`` loads on the first such call).
    """
    if g_hat.size != g_true.size or g_hat.num_clusters != g_true.num_clusters:
        raise ValueError("labelings must have equal length and cluster count")
    c = _confusion(g_hat, g_true)
    r = g_true.num_clusters
    if r <= _EXHAUSTIVE_MAX:
        best, best_perm = -1, None
        for perm in itertools.permutations(range(r)):
            hits = sum(c[perm[a], a] for a in range(r))
            if hits > best:
                best, best_perm = hits, perm
        perm = np.array(best_perm, dtype=np.int64)
    else:
        from scipy.optimize import linear_sum_assignment

        rows, cols = linear_sum_assignment(-c)
        perm = np.empty(r, dtype=np.int64)
        perm[cols] = rows
        best = int(c[rows, cols].sum())
    return 1.0 - best / g_true.size, perm


def misclustering_loss(
    g_hat: Membership,
    g_true: Membership,
    center_rows: np.ndarray,
    s_y: np.ndarray | None = None,
    mode: int = 1,
) -> float:
    """Average squared distance between assigned and true block centers.

    ``center_rows`` holds the rescaled centroid rows of this mode
    (see :func:`rescaled_core_rows`); for the coupled mode (``mode == 1``)
    the squared panel-centroid discrepancy from ``s_y`` is added.  True
    labels are aligned to estimated ones by the error-rate optimal
    permutation of this pair.
    """
    center_rows = np.asarray(center_rows, dtype=float)
    a, b = g_hat.labels, cer(g_hat, g_true)[1][g_true.labels]
    loss = np.sum((center_rows[a] - center_rows[b]) ** 2, axis=1)
    if mode == 1 and s_y is not None:
        s_y = np.asarray(s_y, dtype=float)
        loss = loss + np.sum((s_y[a] - s_y[b]) ** 2, axis=1)
    return float(loss.mean())


def _min_pairwise_sq(rows: np.ndarray) -> float:
    r = rows.shape[0]
    if r < 2:
        return math.inf
    best = math.inf
    for j in range(r - 1):
        d = rows[j + 1 :] - rows[j]
        best = min(best, float(np.min(np.einsum("ij,ij->i", d, d))))
    return best


def rescaled_core_rows(
    core: np.ndarray, memberships: list[Membership], mode: int
) -> np.ndarray:
    """Mode-``mode`` (1-based) unfolding of the core with every other
    clustered mode scaled by its square-root cluster sizes."""
    i = mode - 1
    scales = {j: m.scale() for j, m in enumerate(memberships) if j != i}
    return matricize(multi_mode_product(core, scales), i)


@dataclass(frozen=True)
class SeparationStats:
    """Minimum pairwise squared distances between rescaled block centers.

    ``delta_sq[0]`` includes the panel-centroid term when one is present;
    modes with a single cluster carry an infinity sentinel.
    """

    delta_sq: tuple[float, ...]
    delta_x_sq: tuple[float, ...]
    delta_y_sq: float | None


def separations(
    core: np.ndarray, memberships: list[Membership], s_y: np.ndarray | None = None
) -> SeparationStats:
    """Separation statistics of a block model with the given memberships."""
    core = np.asarray(core, dtype=float)
    s_y = None if s_y is None else np.asarray(s_y, dtype=float)
    d = len(memberships)
    delta_x: list[float] = []
    delta: list[float] = []
    y_sq = None if s_y is None else _min_pairwise_sq(s_y)
    for i in range(d):
        if memberships[i].num_clusters == 1:
            delta_x.append(math.inf)
            delta.append(math.inf)
            continue
        rows = rescaled_core_rows(core, memberships, i + 1)
        delta_x.append(_min_pairwise_sq(rows))
        if i == 0 and s_y is not None:
            delta.append(_min_pairwise_sq(coupled_block(rows, s_y, 1.0)))
        else:
            delta.append(delta_x[-1])
    return SeparationStats(tuple(delta), tuple(delta_x), y_sq)


def total_r2(
    y: np.ndarray,
    factors: np.ndarray,
    market_excess: np.ndarray,
    membership: Membership,
    loadings: np.ndarray,
) -> float:
    """One minus the factor-model residual sum of squares over the residuals
    against the market-excess benchmark.  ``y`` is the panel, ``factors`` the
    factor realizations, ``membership`` the mode-1 groups and ``loadings`` the
    group-level loadings.  May be negative; the CLI reports it in percent."""
    y = np.asarray(y, dtype=float)
    f = np.asarray(factors, dtype=float)
    mkt = np.asarray(market_excess, dtype=float).ravel()
    b = np.asarray(loadings, dtype=float)
    if y.shape[1] != f.shape[1] or y.shape[1] != mkt.size:
        raise ValueError("time dimensions of returns, factors, market differ")
    if membership.size != y.shape[0]:
        raise ValueError("membership length does not match panel rows")
    if b.shape != (membership.num_clusters, f.shape[0]):
        raise ValueError("loadings shape must be (clusters, factors)")
    fitted = b[membership.labels] @ f
    num = float(np.sum((y - fitted) ** 2))
    den = float(np.sum((y - mkt[np.newaxis, :]) ** 2))
    if den == 0.0:
        raise ZeroDivisionError("market benchmark explains the panel exactly")
    return 1.0 - num / den
