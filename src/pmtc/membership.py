"""Cluster label vectors, their one-hot, projector, and basis matrices, and
the expansion of a block core into a block-constant tensor."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Membership", "EmptyClusterError", "expand_blocks"]


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


def expand_blocks(core: np.ndarray, members: list[Membership]) -> np.ndarray:
    """Block-constant tensor whose entry (j_1, j_2, ...) is core[g_1(j_1), g_2(j_2), ...]."""
    out = core
    for axis, m in enumerate(members):
        out = np.take(out, m.labels, axis=axis)
    return out
