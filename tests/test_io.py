import struct
import tracemalloc

import numpy as np
import pytest

from pmtc import io
from pmtc.membership import EmptyClusterError, Membership


@pytest.mark.parametrize("dims", [(3,), (4, 5), (3, 4, 5), (2, 3, 2, 4)])
@pytest.mark.parametrize("layout", ["C", "F", "sliced"])
def test_tensor_round_trip_exact_and_c_ordered(tmp_path, dims, layout):
    x = np.random.default_rng(0).standard_normal(dims)
    if layout == "F":
        x = np.asfortranarray(x)
    elif layout == "sliced":
        padded = np.zeros(tuple(2 * n for n in dims))
        padded[tuple(slice(None, None, 2) for _ in dims)] = x
        x = padded[tuple(slice(None, None, 2) for _ in dims)]
    path = tmp_path / "x.pmtc"
    io.write_tensor(path, x)
    back = io.read_tensor(path)
    assert back.flags.c_contiguous and back.flags.writeable
    assert back.dtype == np.float64 and back.shape == dims
    assert np.array_equal(back, x)


def _layout(x, layout):
    if layout == "F":
        return np.asfortranarray(x)
    if layout == "sliced":
        padded = np.zeros(tuple(2 * n for n in x.shape))
        padded[tuple(slice(None, None, 2) for _ in x.shape)] = x
        return padded[tuple(slice(None, None, 2) for _ in x.shape)]
    return x


@pytest.mark.parametrize("dims", [(), (3,), (4, 5), (3, 4, 5), (2, 3, 2, 4), (3, 0, 2)])
@pytest.mark.parametrize("layout", ["C", "F", "sliced"])
def test_tensor_file_bytes_are_the_column_major_layout(tmp_path, dims, layout):
    x = _layout(np.random.default_rng(2).standard_normal(dims), layout)
    path = tmp_path / "x.pmtc"
    io.write_tensor(path, x)
    expected = (b"PMTC" + struct.pack("<II", 1, x.ndim) + struct.pack(f"<{x.ndim}Q", *x.shape)
                + np.asarray(x, dtype="<f8").flatten(order="F").tobytes())
    assert path.read_bytes() == expected


def test_tensor_write_holds_no_full_copy(tmp_path):
    x = np.random.default_rng(3).standard_normal((100, 100, 60))
    tracemalloc.start()
    try:
        io.write_tensor(tmp_path / "x.pmtc", x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < x.nbytes / 10


@pytest.mark.parametrize("dims", [(), (3,), (4, 5), (3, 4, 5), (2, 3, 2, 4), (3, 0, 2)])
def test_tensor_read_is_the_payload_reshaped_column_major(tmp_path, dims):
    x = np.random.default_rng(5).standard_normal(dims)
    path = tmp_path / "x.pmtc"
    io.write_tensor(path, x)
    payload = path.read_bytes()[12 + 8 * len(dims):]
    expected = np.frombuffer(payload, dtype="<f8").reshape(dims, order="F")
    back = io.read_tensor(path)
    assert back.shape == dims and back.tobytes() == np.ascontiguousarray(expected).tobytes()


def test_tensor_read_holds_no_full_copy(tmp_path):
    x = np.random.default_rng(3).standard_normal((100, 100, 60))
    path = tmp_path / "x.pmtc"
    io.write_tensor(path, x)
    tracemalloc.start()
    try:
        back = io.read_tensor(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(back, x)
    assert peak < 1.1 * x.nbytes


def test_tensor_payload_is_first_index_fastest(tmp_path):
    x = np.arange(6.0).reshape(2, 3)
    path = tmp_path / "x.pmtc"
    io.write_tensor(path, x)
    payload = np.frombuffer(path.read_bytes()[-48:], dtype="<f8")
    assert list(payload) == [0.0, 3.0, 1.0, 4.0, 2.0, 5.0]


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
