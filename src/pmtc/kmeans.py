"""Relaxed k-means: k-means++ seeding plus Lloyd sweeps, best of several restarts.

The solver targets the clustering subproblem of the spectral initialization,
where a relaxed (approximate) k-means solution suffices; across restarts it
returns the labels and objective of the best local optimum found.  Ties in
assignments always break toward the lowest cluster index so results are
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .membership import Membership

__all__ = ["KmeansResult", "kmeans_relaxed"]

_MAX_SWEEPS = 100
_RESTARTS = 10


@dataclass(frozen=True)
class KmeansResult:
    membership: Membership
    objective: float


def _sq_distances(z: np.ndarray, c: np.ndarray) -> np.ndarray:
    """p x r matrix of squared euclidean distances from rows of z to rows of c."""
    d2 = np.empty((z.shape[0], c.shape[0]))
    for a in range(c.shape[0]):
        diff = z - c[a]
        d2[:, a] = np.einsum("ij,ij->i", diff, diff)
    return d2


def _plusplus_seed(z: np.ndarray, r: int, rng: np.random.Generator) -> np.ndarray:
    p = z.shape[0]
    centers = np.empty((r, z.shape[1]))
    centers[0] = z[rng.integers(p)]
    d2 = np.einsum("ij,ij->i", z - centers[0], z - centers[0])
    for t in range(1, r):
        total = d2.sum()
        if total <= 0.0:
            idx = int(rng.integers(p))
        else:
            idx = int(np.searchsorted(np.cumsum(d2 / total), rng.random()))
            idx = min(idx, p - 1)
        centers[t] = z[idx]
        diff = z - centers[t]
        d2 = np.minimum(d2, np.einsum("ij,ij->i", diff, diff))
    return centers


def _repair_empty(labels: np.ndarray, d2: np.ndarray, r: int) -> np.ndarray:
    """Move the globally farthest point into each empty cluster.

    Points whose source cluster would become empty are not moved.
    """
    labels = labels.copy()
    sizes = np.bincount(labels, minlength=r)
    for a in np.flatnonzero(sizes == 0):
        own = d2[np.arange(labels.size), labels].copy()
        own[sizes[labels] <= 1] = -np.inf
        j = int(np.argmax(own))
        sizes[labels[j]] -= 1
        labels[j] = a
        sizes[a] += 1
    return labels


def _lloyd(z: np.ndarray, centers: np.ndarray, r: int):
    labels = None
    for _ in range(_MAX_SWEEPS):
        d2 = _sq_distances(z, centers)
        new_labels = np.argmin(d2, axis=1)
        new_labels = _repair_empty(new_labels, d2, r)
        for a in range(r):
            centers[a] = z[new_labels == a].mean(axis=0)
        if labels is not None and np.array_equal(labels, new_labels):
            break
        labels = new_labels
    obj = float(np.sum((z - centers[labels]) ** 2))
    return labels, obj


def kmeans_relaxed(z: np.ndarray, r: int, seed: int = 0) -> KmeansResult:
    """Cluster the rows of ``z`` into ``r`` groups.

    Runs ten independent k-means++ seedings, each followed by Lloyd sweeps
    until the assignment stabilizes, and returns the best result (ties broken
    by restart index).  Deterministic given ``seed``.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim != 2:
        raise ValueError("expected a 2-d data matrix")
    if not np.all(np.isfinite(z)):
        raise ValueError("non-finite entries in data matrix")
    p = z.shape[0]
    if not 1 <= r <= p:
        raise ValueError(f"cluster count {r} invalid for {p} rows")

    best = None
    for child in np.random.SeedSequence(seed).spawn(_RESTARTS):
        rng = np.random.default_rng(child)
        centers = _plusplus_seed(z, r, rng)
        labels, obj = _lloyd(z, centers, r)
        if best is None or obj < best[1]:
            best = (labels, obj)
    return KmeansResult(Membership(best[0], r), best[1])
