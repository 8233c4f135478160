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
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import metrics
from .kmeans import _repair_empty, _sq_distances
from .membership import Membership, block_means, expand_blocks
from .pchooi import coupled_block
from .tensor import matricize, multi_mode_product

__all__ = ["LloydTrace", "pmtlloyd"]


@dataclass
class LloydTrace:
    """Per-sweep record: memberships and centroids per mode, plug-in loss,
    and (when the truth is supplied) clustering error per mode.

    ``x``, ``y`` and ``omega`` are the refined data and coupling weight; the
    plug-in losses are computed from them and the stored memberships when
    ``losses`` is first read, so a caller that discards the trace never pays
    for a full-tensor block expansion per sweep.
    """

    memberships: list[list[Membership]]
    centroids: list[list[np.ndarray]]
    cers: list[list[float]] | None
    iterations_used: int
    converged: bool
    x: np.ndarray = field(repr=False, compare=False)
    y: np.ndarray | None = field(repr=False, compare=False)
    omega: float

    @cached_property
    def losses(self) -> list[float]:
        return [_plugin_loss(self.x, self.y, m, self.omega) for m in self.memberships]

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("iteration,mode,cer,loss\n")
            for k in range(self.iterations_used):
                for i in range(len(self.memberships[k])):
                    cer = "" if self.cers is None else repr(float(self.cers[k][i]))
                    fh.write(f"{k + 1},{i + 1},{cer},{float(self.losses[k])!r}\n")


def _plugin_loss(x, y, members: list[Membership], omega: float) -> float:
    core, s_y = block_means(x, y, members)
    loss = omega * float(np.sum((x - expand_blocks(core, members)) ** 2))
    if y is not None:
        loss += float(np.sum((y - s_y[members[0].labels]) ** 2))
    return loss


def _assign(z: np.ndarray, c: np.ndarray, r: int) -> np.ndarray:
    d2 = _sq_distances(z, c)
    return _repair_empty(np.argmin(d2, axis=1), d2, r)


def _repair_init(x, y, members: list[Membership], omega: float) -> list[Membership]:
    """Move farthest points into any empty clusters of the initializer,
    measuring distances to raw block means in data space."""
    out = []
    for i, m in enumerate(members):
        if m.cluster_sizes.min() > 0:
            out.append(m)
            continue
        z = matricize(x, i)
        if i == 0:
            z = coupled_block(z, y, omega)
        c = np.zeros((m.num_clusters, z.shape[1]))
        for a in np.flatnonzero(m.cluster_sizes > 0):
            c[a] = z[m.labels == a].mean(axis=0)
        d2 = _sq_distances(z, c)
        out.append(Membership(_repair_empty(m.labels, d2, m.num_clusters), m.num_clusters))
    return out


def pmtlloyd(
    x: np.ndarray,
    y: np.ndarray | None,
    init: list[Membership],
    max_iter: int | None = None,
    projection: str = "orthogonal",
    omega: float = 1.0,
    truth: list[Membership] | None = None,
) -> tuple[list[Membership], LloydTrace]:
    """Refine ``init`` memberships on the clustered modes of ``x`` (and ``y``).

    Runs up to ``max_iter`` sweeps (default 2*ceil(log(max p)), enough for
    exact recovery in well-separated regimes), stopping early once no label
    changes.  Every sweep uses only the previous sweep's memberships; modes
    are reassigned in order within the sweep.  ``omega`` scales the
    tensor-block term of the coupled mode-1 assignment distance.  Returns the
    final memberships and the full trace.
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
    if max_iter is None:
        max_iter = 2 * math.ceil(math.log(max(x.shape[:d])))
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")

    members = _repair_init(x, y, init, omega)
    trace = LloydTrace([], [], None if truth is None else [], 0, False, x, y, omega)

    for _ in range(max_iter):
        projs = [m.normalized_basis() if projection == "orthogonal" else m.projector()
                 for m in members]
        avgs = [m.projector() for m in members]
        new_members: list[Membership] = []
        cents: list[np.ndarray] = []
        for i in range(d):
            others = {j: projs[j].T for j in range(d) if j != i}
            proj_x = multi_mode_product(x, others)
            zi = matricize(proj_x, i)
            ci = avgs[i].T @ zi
            if i == 0 and y is not None:
                zi = coupled_block(zi, y, omega)
                ci = coupled_block(ci, avgs[0].T @ y, omega)
            labels = _assign(zi, ci, members[i].num_clusters)
            new_members.append(Membership(labels, members[i].num_clusters))
            cents.append(ci)

        unchanged = all(
            np.array_equal(new_members[i].labels, members[i].labels) for i in range(d)
        )
        members = new_members
        trace.iterations_used += 1
        trace.memberships.append(members)
        trace.centroids.append(cents)
        if truth is not None:
            trace.cers.append(
                [metrics.cer(members[i], truth[i])[0] for i in range(d)]
            )
        if unchanged:
            trace.converged = True
            break

    return members, trace
