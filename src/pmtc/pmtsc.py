"""Spectral initialization: project onto estimated subspaces, then relaxed k-means.

With a coupled panel the mode-1 feature matrix concatenates the projected
tensor unfolding with the panel; without one (``y=None``) the procedure is
plain high-order spectral clustering of the tensor.  A matrix-only variant
for clustering panel rows is also provided.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kmeans import kmeans_relaxed
from .membership import Membership
from .pchooi import coupled_block, pchooi
from .tensor import lsvd, matricize, multi_mode_product

__all__ = ["SpectralInit", "pmtsc", "spectral_cluster_rows"]


@dataclass(frozen=True)
class SpectralInit:
    memberships: list[Membership]
    projected: list[np.ndarray]
    kmeans_objectives: list[float]


def _mode_seeds(seed: int, d: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(d)]


def pmtsc(
    x: np.ndarray,
    y: np.ndarray | None,
    ranks,
    seed: int = 0,
    omega: float = 1.0,
) -> SpectralInit:
    """Warm-start memberships for every clustered mode of ``x``.

    ``ranks`` are the cluster counts r_i, which are also the subspace ranks
    of the PCHOOI bases estimated here with coupling weight ``omega``.  Each
    mode is clustered by :func:`kmeans_relaxed` on the doubly projected
    unfolding, deterministic given ``seed``.
    """
    x = np.ascontiguousarray(x, dtype=float)
    y = None if y is None else np.asarray(y, dtype=float)
    d = len(ranks)
    bases = pchooi(x, y, ranks, omega=omega).bases

    memberships: list[Membership] = []
    projected: list[np.ndarray] = []
    objectives: list[float] = []
    seeds = _mode_seeds(seed, d)
    for i in range(d):
        others = {j: bases[j].T for j in range(d) if j != i}
        zi = matricize(multi_mode_product(x, others), i)
        if i == 0:
            zi = coupled_block(zi, y, omega)
        zi = bases[i] @ (bases[i].T @ zi)
        res = kmeans_relaxed(zi, ranks[i], seed=seeds[i])
        memberships.append(res.membership)
        projected.append(zi)
        objectives.append(res.objective)
    return SpectralInit(memberships, projected, objectives)


def spectral_cluster_rows(y: np.ndarray, r: int, seed: int = 0) -> Membership:
    """Spectral clustering of the rows of a panel matrix.

    Projects onto the top-``r`` left singular subspace before running relaxed
    k-means.  The k-means seed derives from ``seed`` the same way as the
    coupled initializer's mode-1 seed, so a zero coupling weight there
    reproduces this estimator exactly.
    """
    y = np.asarray(y, dtype=float)
    u = lsvd(y, r)
    z = u @ (u.T @ y)
    return kmeans_relaxed(z, r, seed=_mode_seeds(seed, 1)[0]).membership
