"""File formats: the binary dense-tensor container and CSV helpers.

Tensor container layout (all little-endian):

    magic   4 bytes  b"PMTC"
    version u32      currently 1
    order   u32      number of modes K
    dims    u64[K]
    data    f64[prod(dims)] in column-major order (first index fastest)

:func:`read_tensor` returns the tensor in C order, the package's one layout.

Matrices travel as CSV (row-major, optional header row); memberships as
``id,cluster`` CSV with 1-based cluster labels, every cluster nonempty;
loadings as cluster-by-factor CSV with an optional per-asset expansion.
"""

from __future__ import annotations

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
_VERSION = 1


def write_tensor(path, x: np.ndarray) -> None:
    """Write ``x`` as a tensor container (any layout and order).

    The column-major payload is written one last-axis slab at a time (the
    transpose of a slab, in C order, is that slab in column-major order), so
    writing holds one slab in memory beside ``x``, not a full copy.
    """
    x = np.asarray(x, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", _VERSION, x.ndim))
        fh.write(struct.pack(f"<{x.ndim}Q", *x.shape))
        if x.ndim <= 1:  # a vector's C order is its column-major order
            fh.write(x.tobytes())
            return
        for k in range(x.shape[-1]):
            fh.write(np.ascontiguousarray(x[..., k].T).tobytes())


def read_tensor(path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise ValueError(f"not a tensor container (bad magic {magic!r})")
        version, order = struct.unpack("<II", fh.read(8))
        if version != _VERSION:
            raise ValueError(f"unsupported container version {version}")
        dims = struct.unpack(f"<{order}Q", fh.read(8 * order))
        if order <= 1:  # a vector's column-major order is its C order
            return _read_payload(fh, dims)
        # one last-axis slab at a time, mirroring write_tensor, so reading
        # holds one slab beside the C-order result, not a second full copy
        x = np.empty(dims, dtype="<f8")
        for k in range(dims[-1]):
            x[..., k] = _read_payload(fh, dims[:-1]).T
    return x


def _read_payload(fh, dims) -> np.ndarray:
    """The next prod(dims) column-major values of ``fh``, as the transpose
    of the ``dims`` array they store (shape ``dims[::-1]``, C order)."""
    count = int(np.prod(dims))
    data = np.fromfile(fh, dtype="<f8", count=count)
    if data.size != count:
        raise ValueError("truncated payload")
    return data.reshape(dims[::-1])


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
