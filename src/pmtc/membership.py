"""Cluster label vectors, their one-hot, projector, and basis matrices, and
block averages of data over memberships with the inverse block expansion."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import multi_mode_product

__all__ = ["Membership", "EmptyClusterError", "block_means", "expand_blocks"]


class EmptyClusterError(ValueError):
    """Raised when an operation needs every cluster nonempty but one is not."""

    def __init__(self, cluster: int):
        self.cluster = cluster
        super().__init__(f"EmptyCluster({cluster + 1})")


@dataclass(frozen=True)
class Membership:
    """Assignment of p items to r clusters.

    Labels are 0-based internally; serialized output is 1-based.  Empty
    clusters are legal at the type level -- the algebra operations that
    require nonempty clusters raise :class:`EmptyClusterError`.
    """

    labels: np.ndarray
    num_clusters: int
    cluster_sizes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        if labels.ndim != 1 or labels.size == 0:
            raise ValueError("labels must be a nonempty 1-d integer array")
        r = int(self.num_clusters)
        if r < 1:
            raise ValueError("num_clusters must be positive")
        if labels.min() < 0 or labels.max() >= r:
            raise ValueError("labels must lie in [0, num_clusters)")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "num_clusters", r)
        object.__setattr__(self, "cluster_sizes", np.bincount(labels, minlength=r))

    @property
    def size(self) -> int:
        return int(self.labels.size)

    def _require_nonempty(self) -> None:
        empty = np.flatnonzero(self.cluster_sizes == 0)
        if empty.size:
            raise EmptyClusterError(int(empty[0]))

    def one_hot(self) -> np.ndarray:
        """p x r 0/1 matrix with exactly one 1 per row."""
        m = np.zeros((self.size, self.num_clusters))
        m[np.arange(self.size), self.labels] = 1.0
        return m

    def projector(self) -> np.ndarray:
        """p x r averaging matrix M (M'M)^{-1}; column a holds 1/size_a on cluster a."""
        self._require_nonempty()
        return self.one_hot() / self.cluster_sizes[np.newaxis, :]

    def scale(self) -> np.ndarray:
        """Diagonal r x r matrix of square-root cluster sizes."""
        self._require_nonempty()
        return np.diag(np.sqrt(self.cluster_sizes.astype(float)))

    def normalized_basis(self) -> np.ndarray:
        """p x r orthonormal matrix W of normalized one-hot columns (M = W @ scale)."""
        self._require_nonempty()
        return self.one_hot() / np.sqrt(self.cluster_sizes.astype(float))[np.newaxis, :]

    def permute(self, perm) -> "Membership":
        """Relabel clusters: new label of an item in cluster a is perm[a]."""
        perm = np.asarray(perm, dtype=np.int64)
        r = self.num_clusters
        if perm.shape != (r,) or not np.array_equal(np.sort(perm), np.arange(r)):
            raise ValueError("perm must be a permutation of 0..r-1")
        return Membership(perm[self.labels], r)


def block_means(
    x: np.ndarray | None, y: np.ndarray | None, members: list[Membership]
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Block averages ``core`` = x ×_i P_i' of the tensor and group means
    ``s_y`` = P_1' y of the panel rows, P_i the averaging projectors; either
    is None when its input is."""
    core = None if x is None else multi_mode_product(
        x, {i: m.projector().T for i, m in enumerate(members)})
    s_y = None if y is None else members[0].projector().T @ y
    return core, s_y


def expand_blocks(core: np.ndarray, members: list[Membership]) -> np.ndarray:
    """Block-constant tensor whose entry (j_1, j_2, ...) is core[g_1(j_1), g_2(j_2), ...]."""
    out = core
    for axis, m in enumerate(members):
        out = np.take(out, m.labels, axis=axis)
    return out
