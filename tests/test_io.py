import re
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from pmtc import io
from pmtc.membership import EmptyClusterError, Membership


DIMS = [(), (3,), (4, 5), (3, 4, 5), (2, 3, 2, 4), (3, 0, 2)]
LAYOUTS = ["C", "F", "sliced"]


def _layout(x, layout):
    if layout == "F":
        return x.copy(order="F")
    if layout == "sliced":
        padded = np.zeros(tuple(2 * n for n in x.shape))
        padded[tuple(slice(None, None, 2) for _ in x.shape)] = x
        return padded[tuple(slice(None, None, 2) for _ in x.shape)]
    return x


def _header(version, dims):
    return b"PMTC" + struct.pack("<II", version, len(dims)) + struct.pack(f"<{len(dims)}Q", *dims)


def _v1_bytes(x):
    """A version-1 container of ``x``: its values in column-major order."""
    return _header(1, x.shape) + np.asarray(x, dtype="<f8").flatten(order="F").tobytes()


def _v2_bytes(x):
    """A version-2 container of ``x``: its values in C order."""
    return _header(2, x.shape) + np.asarray(x, dtype="<f8").flatten(order="C").tobytes()


def _readme_conversion():
    """The README's version-1 to version-2 conversion snippet, as given."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (snippet,) = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    return "\n".join(line.removeprefix("  ") for line in snippet.splitlines())


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.mark.parametrize("dims", [(3,), (4, 5), (3, 4, 5), (2, 3, 2, 4)])
@pytest.mark.parametrize("layout", LAYOUTS)
def test_tensor_round_trip_exact_and_c_ordered(tmp_path, dims, layout):
    x = _layout(np.random.default_rng(0).standard_normal(dims), layout)
    path = tmp_path / "x.pmtc"
    io.write_tensor(path, x)
    back = io.read_tensor(path)
    assert back.flags.c_contiguous and back.flags.writeable
    assert back.dtype == np.float64 and back.shape == dims
    assert np.array_equal(back, x)


@pytest.mark.parametrize("dims", DIMS)
@pytest.mark.parametrize("layout", LAYOUTS)
def test_tensor_writes_version_2_in_c_order(tmp_path, dims, layout):
    x = _layout(np.random.default_rng(2).standard_normal(dims), layout)
    path = tmp_path / "x.pmtc"
    io.write_tensor(path, x)
    data = path.read_bytes()
    assert struct.unpack("<I", data[4:8]) == (2,)
    assert data == _v2_bytes(x)


def test_tensor_payload_is_last_index_fastest(tmp_path):
    path = tmp_path / "x.pmtc"
    io.write_tensor(path, np.arange(6.0).reshape(2, 3))
    payload = np.frombuffer(path.read_bytes()[-48:], dtype="<f8")
    assert list(payload) == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]


@pytest.mark.parametrize("dims", DIMS)
@pytest.mark.parametrize("layout", LAYOUTS)
def test_tensor_file_bytes_are_the_column_major_layout(tmp_path, monkeypatch, dims, layout):
    """A version-1 file, whose payload is the column-major layout, converts
    with the README's snippet to the version-2 file of its tensor, which
    reads back bit for bit."""
    x = _layout(np.random.default_rng(2).standard_normal(dims), layout)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "old.pmtc").write_bytes(_v1_bytes(x))
    exec(_readme_conversion(), {})
    assert (tmp_path / "new.pmtc").read_bytes() == _v2_bytes(x)
    back = io.read_tensor(tmp_path / "new.pmtc")
    assert back.shape == dims and back.tobytes() == np.ascontiguousarray(x).tobytes()


def test_tensor_payload_is_first_index_fastest(tmp_path, monkeypatch):
    """Version 1 stored the first index fastest, and the conversion reads it so."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "old.pmtc").write_bytes(
        _header(1, (2, 3)) + np.array([0.0, 3.0, 1.0, 4.0, 2.0, 5.0]).tobytes())
    exec(_readme_conversion(), {})
    assert np.array_equal(io.read_tensor(tmp_path / "new.pmtc"), np.arange(6.0).reshape(2, 3))


def test_tensor_write_holds_no_full_copy(tmp_path):
    x = np.random.default_rng(3).standard_normal((100, 100, 60))
    for layout in LAYOUTS:
        source = _layout(x, layout)
        _, peak = _peak_bytes(io.write_tensor, tmp_path / "x.pmtc", source)
        assert peak < x.nbytes / 10, layout


def test_tensor_read_holds_no_full_copy(tmp_path):
    """A read allocates only the tensor."""
    x = np.random.default_rng(3).standard_normal((100, 100, 60))
    path = tmp_path / "x.pmtc"
    io.write_tensor(path, x)
    back, peak = _peak_bytes(io.read_tensor, path)
    assert np.array_equal(back, x)
    assert peak < 1.01 * x.nbytes


def test_tensor_bad_magic_and_truncation(tmp_path):
    bad = tmp_path / "bad.pmtc"
    bad.write_bytes(b"NOPE" + bytes(16))
    with pytest.raises(ValueError):
        io.read_tensor(bad)
    path = tmp_path / "x.pmtc"
    io.write_tensor(path, np.ones((3, 4)))
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError):
        io.read_tensor(path)


_HUGE = (10**6, 10**6, 120)
_SMALL = np.ones((3, 4))
MALFORMED = {
    "truncated_header": (b"PMTC\x01\x00", "2 bytes where version and order need 8"),
    "huge_order": (b"PMTC" + struct.pack("<II", 2, 2**32 - 1), "0 bytes where 4294967295 dims"),
    "truncated_dims": (_header(2, (4, 5, 6))[:-8], "16 bytes where 3 dims need 24"),
    "oversized_dims_v2": (_header(2, _HUGE) + bytes(64), "64 bytes where .* need 960000000000000"),
    "trailing_bytes_v2": (_v2_bytes(_SMALL) + bytes(8), r"104 bytes where dims \(3, 4\) need 96"),
    # a well-formed version-1 file whose payload (1.6 MB) exceeds the bound below
    "version_1": (_v1_bytes(np.ones((200, 100, 10))), "version 1 .*README.md"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_tensor_container_is_refused_before_allocating(tmp_path, case):
    data, message = MALFORMED[case]
    path = tmp_path / "x.pmtc"
    path.write_bytes(data)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=message):
            io.read_tensor(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_matrix_csv_round_trip_exact(tmp_path):
    a = np.random.default_rng(1).standard_normal((5, 3))
    path = tmp_path / "a.csv"
    io.write_matrix_csv(path, a)
    path.write_text("u,v,w\n" + path.read_text())  # a header row is skipped on read
    assert np.array_equal(io.read_matrix_csv(path), a)


def test_header_only_matrix_csv_is_refused_as_empty(tmp_path):
    path = tmp_path / "hdr.csv"
    path.write_text("a,b,c\n")
    with pytest.raises(ValueError, match="empty matrix"):
        io.read_matrix_csv(path)


def test_membership_csv_round_trip(tmp_path):
    m = Membership(np.array([2, 0, 1, 1, 0]), 3)
    path = tmp_path / "m.csv"
    io.write_membership_csv(path, m)
    back = io.read_membership_csv(path)
    assert np.array_equal(back.labels, m.labels) and back.num_clusters == 3


def test_membership_csv_round_trip_random(tmp_path):
    rng = np.random.default_rng(4)
    path = tmp_path / "m.csv"
    for _ in range(20):
        r = int(rng.integers(1, 8))
        labels = np.concatenate([np.arange(r), rng.integers(0, r, int(rng.integers(0, 30)))])
        m = Membership(rng.permutation(labels), r)
        io.write_membership_csv(path, m)
        back = io.read_membership_csv(path)
        assert np.array_equal(back.labels, m.labels) and back.num_clusters == r


def test_membership_csv_refuses_an_empty_cluster(tmp_path):
    path = tmp_path / "m.csv"
    with pytest.raises(EmptyClusterError):
        io.write_membership_csv(path, Membership(np.array([0, 1, 0, 1]), 3))
    assert not path.exists()
    path.write_text("id,cluster\n1,1\n2,3\n3,1\n")
    with pytest.raises(ValueError, match="skipped"):
        io.read_membership_csv(path)


def test_header_only_membership_csv_is_refused_as_empty(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("id,cluster\n")
    with pytest.raises(ValueError, match="empty membership"):
        io.read_membership_csv(path)
