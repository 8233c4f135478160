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
    """Warm-start memberships, with the coupling weight ``omega`` they were
    estimated at and the stopping record of the PCHOOI fit whose bases they
    come from.  :func:`pmtc.pipeline.refine` refines them at that weight."""

    memberships: list[Membership]
    kmeans_objectives: list[float]
    omega: float
    pchooi_iterations: int
    pchooi_converged: bool


def _scores(u: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Rank-r rows with the same pairwise distances as ``u @ coords``.

    With ``coords.T = Q R`` (thin QR, Q orthonormal), u @ coords = (u R') Q',
    and right-multiplying by Q' preserves row distances, so k-means on the
    p x r matrix u R' sees the p x n feature matrix's geometry.
    """
    return u @ np.linalg.qr(coords.T, mode="r").T


def _mode_seeds(seed: int, d: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(d)]


def pmtsc(
    x: np.ndarray,
    y: np.ndarray | None,
    ranks,
    seed: int = 0,
    omega: float = 1.0,
    grams: dict[int, np.ndarray] | None = None,
) -> SpectralInit:
    """Warm-start memberships for every clustered mode of ``x``.

    ``ranks`` are the cluster counts r_i, which are also the subspace ranks
    of the PCHOOI bases estimated here with coupling weight ``omega``
    (``grams``, the unfolding Grams of ``x`` already formed by 0-based mode,
    is passed on to :func:`~pmtc.pchooi.pchooi`).  Each mode is
    clustered by :func:`kmeans_relaxed`, deterministic given ``seed``, on
    p_i x r_i isometric scores of the doubly projected p_i x n_i unfolding
    (same pairwise row distances, see :func:`_scores`), which is itself never
    formed.  The last mode's projected unfolding is PCHOOI's own from its last
    iteration, and at ``omega=0`` the mode-1 features are the panel alone, so
    neither projects the full tensor again.
    """
    x = np.ascontiguousarray(x, dtype=float)
    y = None if y is None else np.asarray(y, dtype=float)
    d = len(ranks)
    fit = pchooi(x, y, ranks, omega=omega, grams=grams)
    bases = fit.bases

    memberships: list[Membership] = []
    objectives: list[float] = []
    seeds = _mode_seeds(seed, d)
    for i in range(d):
        if i == 0 and y is not None and omega == 0.0:
            zi = y
        elif i == d - 1 and fit.last_unfolding is not None:
            zi = fit.last_unfolding
        else:
            others = {j: bases[j].T for j in range(d) if j != i}
            zi = matricize(multi_mode_product(x, others), i)
            if i == 0:
                zi = coupled_block(zi, y, omega)
        coords = bases[i].T @ zi
        res = kmeans_relaxed(_scores(bases[i], coords), ranks[i], seed=seeds[i])
        memberships.append(res.membership)
        objectives.append(res.objective)
    return SpectralInit(memberships, objectives, omega, fit.iterations_used, fit.converged)


def spectral_cluster_rows(y: np.ndarray, r: int, seed: int = 0) -> Membership:
    """Spectral clustering of the rows of a panel matrix.

    Projects onto the top-``r`` left singular subspace and runs relaxed
    k-means on the p x r isometric scores of the projected panel (same
    pairwise row distances as the p x T projection).  The k-means seed
    derives from ``seed`` the same way as the coupled initializer's mode-1
    seed, so a zero coupling weight there reproduces this estimator exactly.
    """
    y = np.asarray(y, dtype=float)
    u = lsvd(y, r)
    return kmeans_relaxed(_scores(u, u.T @ y), r, seed=_mode_seeds(seed, 1)[0]).membership
