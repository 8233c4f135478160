"""Relaxed k-means: k-means++ seeding plus Lloyd sweeps, best of several restarts.

The solver targets the clustering subproblem of the spectral initialization,
where a relaxed (approximate) k-means solution suffices; across restarts it
returns the labels and objective of the best local optimum found.  Ties in
assignments always break toward the lowest cluster index so results are
reproducible.

The restarts run together: one array loop does the Lloyd sweeps of all of
them, on (restarts x p x dim) arrays.  A restart whose labels repeat is at a
fixed point (its centers are the means of the same labels again, so another
sweep would reassign every row as before and change nothing), so it drops
out, and the loop ends once every restart has repeated.  Every sum is taken
in the order of the one-restart loop, so the labels and objectives are
those of running each restart alone, bit for bit.
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
    """Squared euclidean distances from the rows of z (p x dim) to the rows of c.

    ``c`` is r x dim, or (..., r, dim) with leading batch axes; the result is
    p x r, or (..., p, r).  The order in which a row's squares are summed
    depends on the memory layout of the differences, so every batch entry
    of them takes the layout ``np.empty_like(z)`` has, and each distance has
    the same bits whatever the batch shape.
    """
    lead = c.shape[:-2]
    d2 = np.empty(lead + (z.shape[0], c.shape[-2]))
    if np.empty_like(z).flags.c_contiguous:
        diff = np.empty(lead + z.shape)
    else:
        diff = np.empty(lead + z.shape[::-1]).swapaxes(-1, -2)
    for a in range(c.shape[-2]):
        np.subtract(z, c[..., a, None, :], out=diff)
        d2[..., a] = np.einsum("...j,...j->...", diff, diff)
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


def _centers(z: np.ndarray, zt: np.ndarray, labels: np.ndarray, r: int) -> np.ndarray:
    """Cluster means of the rows of z (p x dim) under each restart's labels.

    ``labels`` is restarts x p with every cluster nonempty, and ``zt`` holds
    z' tiled at least that many times along its columns.  The result is
    restarts x r x dim and equals ``z[labels[k] == a].mean(axis=0)`` bit for
    bit: that mean adds a cluster's rows in order, as ``np.bincount`` does,
    but sums a single column pairwise, so one column goes cluster by cluster.
    """
    n, p = labels.shape
    if z.shape[1] == 1:
        return np.array([[z[lab == a].mean(axis=0) for a in range(r)] for lab in labels])
    key = (labels + r * np.arange(n)[:, None]).ravel()
    sums = np.array([np.bincount(key, w[: n * p], n * r) for w in zt]).T
    return (sums / np.bincount(key, minlength=n * r)[:, None]).reshape(n, r, -1)


def _lloyd(z: np.ndarray, centers: np.ndarray, r: int) -> tuple[np.ndarray, list[float]]:
    """Lloyd sweeps from each restart's ``centers`` (restarts x r x dim).

    Each sweep reassigns the rows for every restart whose labels have not
    yet repeated, then moves its centers to the cluster means.  A restart
    whose labels repeat is at a fixed point: its new centers are the means
    of the same labels again, so a further sweep would reassign every row
    as before.  It drops out, and the sweeps end once every restart has
    repeated, or after ``_MAX_SWEEPS``.  Returns the labels (restarts x p)
    and each restart's objective.
    """
    n, p = centers.shape[0], z.shape[0]
    zt = np.tile(z.T, n)
    labels = np.empty((n, p), dtype=np.intp)
    active = np.arange(n)  # restarts whose labels have not yet repeated
    for sweep in range(_MAX_SWEEPS):
        d2 = _sq_distances(z, centers[active])
        new_labels = np.argmin(d2, axis=-1)
        key = (new_labels + r * np.arange(active.size)[:, None]).ravel()
        empty = np.bincount(key, minlength=active.size * r).reshape(-1, r).min(axis=1) == 0
        for k in np.flatnonzero(empty):
            new_labels[k] = _repair_empty(new_labels[k], d2[k], r)
        centers[active] = _centers(z, zt, new_labels, r)
        moved = (labels[active] != new_labels).any(axis=1) if sweep else slice(None)
        labels[active] = new_labels
        active = active[moved]
        if not active.size:
            break
    objectives = [float(np.sum((z - c[lab]) ** 2)) for c, lab in zip(centers, labels)]
    return labels, objectives


def kmeans_relaxed(z: np.ndarray, r: int, seed: int = 0) -> KmeansResult:
    """Cluster the rows of ``z`` into ``r`` groups.

    Runs ten independent k-means++ seedings, each from its own generator,
    then the Lloyd sweeps of all ten together until every assignment
    stabilizes, and returns the best result (ties broken by restart index).
    Deterministic given ``seed``, and equal to running the restarts one
    after another.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim != 2:
        raise ValueError("expected a 2-d data matrix")
    if not np.all(np.isfinite(z)):
        raise ValueError("non-finite entries in data matrix")
    p = z.shape[0]
    if not 1 <= r <= p:
        raise ValueError(f"cluster count {r} invalid for {p} rows")

    seeds = np.random.SeedSequence(seed).spawn(_RESTARTS)
    centers = np.stack([_plusplus_seed(z, r, np.random.default_rng(s)) for s in seeds])
    labels, objectives = _lloyd(z, centers, r)
    best = int(np.argmin(objectives))
    return KmeansResult(Membership(labels[best], r), objectives[best])
