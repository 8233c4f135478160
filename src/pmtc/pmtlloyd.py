"""Lloyd-style refinement of mode memberships with orthogonal projections.

Each sweep rebuilds, from the previous sweep's memberships, the per-mode
centroid matrices (block averages of the projected tensor, plus group means
of the panel on the coupled mode) and reassigns every fiber to its nearest
centroid.  The default projects the other modes with the orthonormal
normalized-membership bases, which keeps the projected noise homogeneous;
``projection="oblique"`` substitutes the non-orthogonal averaging projectors
instead, reproducing the behavior of earlier high-order Lloyd refinements and
serving as the comparison baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kmeans import _repair_empty, _sq_distances
from .membership import Membership
from .pchooi import coupled_block
from .tensor import matricize, multi_mode_product

__all__ = ["LloydTrace", "pmtlloyd"]


@dataclass(frozen=True)
class LloydTrace:
    """Stopping record: sweeps run, and whether the last left every label as it was."""

    iterations_used: int
    converged: bool


def _max_sweeps(dims) -> int:
    """2*ceil(log(max p)) sweeps, at least one: from a spectral start Lloyd's
    error falls geometrically, so O(log p) sweeps reach exact recovery in
    well-separated regimes (Lu & Zhou 2016; Han, Luo, Wang & Zhang 2022)."""
    return max(1, 2 * math.ceil(math.log(max(dims))))


def _assign(z: np.ndarray, c: np.ndarray, r: int) -> np.ndarray:
    d2 = _sq_distances(z, c)
    return _repair_empty(np.argmin(d2, axis=1), d2, r)


def pmtlloyd(
    x: np.ndarray,
    y: np.ndarray | None,
    init: list[Membership],
    projection: str = "orthogonal",
    omega: float = 1.0,
) -> tuple[list[Membership], LloydTrace]:
    """Refine ``init`` memberships on the clustered modes of ``x`` (and ``y``).

    Runs up to ``_max_sweeps`` sweeps, stopping early once no label changes.
    Every sweep uses only the previous sweep's memberships; modes are
    reassigned in order within the sweep.  ``omega`` scales the tensor-block
    term of the coupled mode-1 assignment distance.  Every cluster of
    ``init`` must be nonempty (else :class:`EmptyClusterError`).  Returns the
    final memberships and the stopping record.
    """
    x = np.ascontiguousarray(x, dtype=float)
    y = None if y is None else np.asarray(y, dtype=float)
    d = len(init)
    if x.ndim not in (d, d + 1):
        raise ValueError(f"tensor order {x.ndim} incompatible with {d} memberships")
    if y is not None and y.shape != (x.shape[0], x.shape[-1]):
        raise ValueError(f"panel shape {y.shape} does not match tensor")
    for i, m in enumerate(init):
        if m.size != x.shape[i]:
            raise ValueError(f"membership {i + 1} covers {m.size} items, mode has {x.shape[i]}")
    if projection not in ("orthogonal", "oblique"):
        raise ValueError("projection must be 'orthogonal' or 'oblique'")

    members = init
    zs: list[np.ndarray | None] = [None] * d  # each mode's projected unfolding
    moved = [True] * d  # whether each mode's labels changed in the last sweep
    for sweeps in range(1, _max_sweeps(x.shape[:d]) + 1):
        projs = [m.normalized_basis() if projection == "orthogonal" else m.projector()
                 for m in members]
        avgs = [m.projector() for m in members]
        new_members: list[Membership] = []
        for i in range(d):
            # the projection reads only the other modes' labels: reuse it
            # while they stay as they were
            if zs[i] is None or any(moved[j] for j in range(d) if j != i):
                others = {j: projs[j].T for j in range(d) if j != i}
                zs[i] = matricize(multi_mode_product(x, others), i)
            zi = zs[i]
            ci = avgs[i].T @ zi
            if i == 0 and y is not None:
                zi = coupled_block(zi, y, omega)
                ci = coupled_block(ci, avgs[0].T @ y, omega)
            labels = _assign(zi, ci, members[i].num_clusters)
            new_members.append(Membership(labels, members[i].num_clusters))

        moved = [not np.array_equal(new.labels, old.labels)
                 for new, old in zip(new_members, members)]
        members = new_members
        if not any(moved):
            break

    return members, LloydTrace(sweeps, not any(moved))
