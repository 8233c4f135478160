"""File formats: the binary dense-tensor container and CSV helpers.

Tensor container layout (all little-endian):

    magic   4 bytes  b"PMTC"
    version u32      2
    order   u32      number of modes K
    dims    u64[K]
    data    f64[prod(dims)] in C order (last index fastest)

:func:`write_tensor` writes version 2 and :func:`read_tensor` reads it into C
order, the package's one layout, with one sequential copy; README.md converts
a refused version-1 container (column-major payload).  The payload must hold
exactly prod(dims) values: a container whose header or payload is cut short,
or whose payload runs past its dims, is refused before anything is allocated.

Matrices travel as CSV (row-major, optional header row); memberships as
``id,cluster`` CSV with 1-based cluster labels, every cluster nonempty;
loadings as cluster-by-factor CSV with an optional per-asset expansion.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .membership import Membership

__all__ = [
    "write_tensor",
    "read_tensor",
    "write_matrix_csv",
    "read_matrix_csv",
    "write_membership_csv",
    "read_membership_csv",
    "write_loadings_csv",
]

_MAGIC = b"PMTC"
_VERSION = 2  # the one version write_tensor writes and read_tensor reads


def write_tensor(path, x: np.ndarray) -> None:
    """Write ``x`` as a version-2 tensor container (any layout and order).

    A C-contiguous ``x`` goes out in one write; any other layout one
    first-axis slab at a time, so writing holds at most one slab in memory
    beside ``x``, not a full copy.
    """
    x = np.asarray(x, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", _VERSION, x.ndim))
        fh.write(struct.pack(f"<{x.ndim}Q", *x.shape))
        if x.flags.c_contiguous:
            fh.write(x.data)
            return
        for slab in x:
            fh.write(np.ascontiguousarray(slab).data)


def read_tensor(path) -> np.ndarray:
    """Read a version-2 tensor container into a C-order array."""
    with open(path, "rb") as fh:
        left = os.fstat(fh.fileno()).st_size
        magic = fh.read(4)
        if magic != _MAGIC:
            raise ValueError(f"not a tensor container (bad magic {magic!r})")
        left -= 4
        if left < 8:
            raise ValueError(f"truncated header: {left} bytes where version and order need 8")
        version, order = struct.unpack("<II", fh.read(8))
        if version != _VERSION:
            raise ValueError(f"unsupported container version {version} (README.md shows how "
                             "to convert a column-major version-1 container to version 2)")
        left -= 8
        if left < 8 * order:
            raise ValueError(f"truncated header: {left} bytes where {order} dims need {8 * order}")
        dims = struct.unpack(f"<{order}Q", fh.read(8 * order))
        left -= 8 * order
        count = math.prod(dims)
        if left != 8 * count:
            raise ValueError(f"payload of {left} bytes where dims {dims} need {8 * count}")
        return np.fromfile(fh, dtype="<f8", count=count).reshape(dims)


def write_matrix_csv(path, a: np.ndarray) -> None:
    a = np.atleast_2d(np.asarray(a, dtype=float))
    with open(path, "w", newline="") as fh:
        for row in a:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def read_matrix_csv(path) -> np.ndarray:
    """Read a numeric CSV matrix; a non-numeric first row is treated as a header."""
    with open(path, "r", newline="") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ValueError("empty file")
    start = 0
    try:
        [float(v) for v in lines[0].split(",")]
    except ValueError:
        start = 1
    rows = [[float(v) for v in ln.split(",")] for ln in lines[start:]]
    if not rows:
        raise ValueError("empty matrix (a header row and no numeric rows)")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValueError(f"ragged rows (widths {sorted(widths)})")
    return np.asarray(rows, dtype=float)


def write_membership_csv(path, m: Membership) -> None:
    """Write ``id,cluster`` rows.  The file holds no cluster count, so a
    membership with an empty cluster raises :class:`EmptyClusterError` rather
    than be written as one that reads back with fewer clusters."""
    m._require_nonempty()
    with open(path, "w", newline="") as fh:
        fh.write("id,cluster\n")
        for j, a in enumerate(m.labels):
            fh.write(f"{j + 1},{int(a) + 1}\n")


def read_membership_csv(path) -> Membership:
    """Read an ``id,cluster`` file; its clusters must be 1..r with none skipped."""
    with open(path, "r", newline="") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0].lower() != "id,cluster":
        raise ValueError("expected an 'id,cluster' membership file")
    pairs = [tuple(int(v) for v in ln.split(",")) for ln in lines[1:]]
    if not pairs:
        raise ValueError("empty membership (no id,cluster rows)")
    labels = np.empty(len(pairs), dtype=np.int64)
    for j, (ident, cluster) in enumerate(pairs):
        if ident != j + 1:
            raise ValueError("ids must be 1..p in order")
        labels[j] = cluster - 1
    m = Membership(labels, int(labels.max()) + 1)
    if m.cluster_sizes.min() == 0:
        raise ValueError("clusters must be numbered 1..r with none skipped")
    return m


def write_loadings_csv(path, loadings: np.ndarray, m: Membership | None = None) -> None:
    """Cluster-by-factor loading table; pass a membership for per-asset rows."""
    loadings = np.atleast_2d(np.asarray(loadings, dtype=float))
    cols = [f"factor_{k + 1}" for k in range(loadings.shape[1])]
    with open(path, "w", newline="") as fh:
        if m is None:
            fh.write(",".join(["cluster"] + cols) + "\n")
            for a, row in enumerate(loadings):
                fh.write(",".join([str(a + 1)] + [repr(float(v)) for v in row]) + "\n")
        else:
            fh.write(",".join(["id", "cluster"] + cols) + "\n")
            for j, a in enumerate(m.labels):
                vals = [repr(float(v)) for v in loadings[a]]
                fh.write(",".join([str(j + 1), str(int(a) + 1)] + vals) + "\n")
