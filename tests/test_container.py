import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdtok.container import (
    container_bytes,
    load_checkpoint,
    read_matrix_container,
    save_checkpoint,
    write_matrix_container,
)
from spdtok.errors import (
    BadMagic,
    ChecksumMismatch,
    ContainerError,
    TruncatedFile,
    VersionUnsupported,
)


def test_round_trip_bit_exact(rng, tmp_path):
    tensors = {}
    for i in range(100):
        rank = int(rng.integers(0, 4))
        shape = tuple(int(rng.integers(1, 5)) for _ in range(rank))
        tensors[f"t{i:03d}"] = rng.standard_normal(shape)
    path = tmp_path / "pack.spdt"
    write_matrix_container(path, tensors)
    back = read_matrix_container(path)
    assert list(back) == list(tensors)
    for name in tensors:
        assert np.array_equal(back[name], np.asarray(tensors[name], dtype=np.float64))
        assert back[name].dtype == np.float64


def test_negative_zero_and_extremes_round_trip(tmp_path):
    arr = np.array([0.0, -0.0, np.finfo(np.float64).tiny, np.finfo(np.float64).max, 1e-308])
    path = tmp_path / "edge.spdt"
    write_matrix_container(path, {"edge": arr})
    back = read_matrix_container(path)["edge"]
    assert arr.tobytes() == back.tobytes()


def test_truncated_file(rng, tmp_path):
    path = tmp_path / "trunc.spdt"
    write_matrix_container(path, {"a": rng.standard_normal((4, 4))})
    blob = path.read_bytes()
    for cut in (2, 6, 11, len(blob) - 5, len(blob) - 1):
        clipped = tmp_path / f"cut{cut}.spdt"
        clipped.write_bytes(blob[:cut])
        with pytest.raises(TruncatedFile):
            read_matrix_container(clipped)


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.spdt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(BadMagic):
        read_matrix_container(path)


def test_version_unsupported(rng, tmp_path):
    blob = bytearray(container_bytes({"a": rng.standard_normal(3)}))
    blob[4:8] = struct.pack("<I", 2)
    with pytest.raises(VersionUnsupported):
        read_matrix_container(io.BytesIO(bytes(blob)))


def test_unknown_dtype_code(rng):
    blob = bytearray(container_bytes({"a": rng.standard_normal(3)}))
    # dtype byte sits right after the 2-byte name length and 1-byte name
    offset = 4 + 4 + 4 + 2 + 1
    blob[offset] = 7
    with pytest.raises(VersionUnsupported):
        read_matrix_container(io.BytesIO(bytes(blob)))


def test_checksum_mismatch(rng):
    blob = bytearray(container_bytes({"a": np.ones(4)}))
    blob[-6] ^= 0xFF  # flip a payload byte, keep the stored CRC
    with pytest.raises(ChecksumMismatch):
        read_matrix_container(io.BytesIO(bytes(blob)))


def test_non_utf8_entry_name(rng):
    blob = bytearray(container_bytes({"a": rng.standard_normal(3)}))
    blob[4 + 4 + 4 + 2] = 0xFF  # the one-byte name; 0xFF never occurs in UTF-8
    with pytest.raises(ContainerError):
        read_matrix_container(io.BytesIO(bytes(blob)))


@pytest.mark.parametrize("line", [b"{not json\n", b"\xff\xfe\n"])
def test_corrupt_checkpoint_header(tmp_path, line):
    path = tmp_path / "model.spdt"
    save_checkpoint(path, {"kind": "demo"}, {"w": np.ones(2)})
    path.write_bytes(line + path.read_bytes().split(b"\n", 1)[1])
    with pytest.raises(ContainerError):
        load_checkpoint(path)


def test_checkpoint_header_round_trip(rng, tmp_path):
    header = {"kind": "demo", "seed": 3, "nested": {"lr": 1e-3}}
    arrays = {"w": rng.standard_normal((3, 2)), "b": rng.standard_normal(2)}
    path = tmp_path / "model.spdt"
    save_checkpoint(path, header, arrays)
    back_header, back_arrays = load_checkpoint(path)
    assert back_header == header
    assert all(np.array_equal(arrays[k], back_arrays[k]) for k in arrays)


def _entry_with_dims(name: bytes, dims) -> bytes:
    """One entry header declaring `dims`, an empty payload and the CRC of b""."""
    return (struct.pack("<H", len(name)) + name + struct.pack("<BB", 0, len(dims))
            + struct.pack(f"<{len(dims)}Q", *dims) + struct.pack("<I", 0))


@pytest.mark.parametrize("dims", [(2 ** 32, 2 ** 32), (2 ** 31, 2 ** 31, 4)])
def test_declared_dims_beyond_remaining_bytes(tmp_path, dims):
    # an int64 product of the first two dims wraps to 0 items, which the CRC
    # of an empty payload would accept
    blob = b"SPDT" + struct.pack("<II", 1, 1) + _entry_with_dims(b"huge", dims)
    path = tmp_path / "huge.spdt"
    path.write_bytes(blob)
    for source in (path, io.BytesIO(blob)):
        with pytest.raises(TruncatedFile, match="huge"):
            read_matrix_container(source)


def test_duplicate_entry_name(rng):
    entry = container_bytes({"a": rng.standard_normal(3)})[12:]
    blob = b"SPDT" + struct.pack("<II", 1, 2) + entry + entry
    with pytest.raises(ContainerError, match="duplicate entry name 'a'"):
        read_matrix_container(io.BytesIO(blob))


def test_entry_count_flipped_downward(rng):
    blob = bytearray(container_bytes({"a": rng.standard_normal(3), "b": rng.standard_normal(2)}))
    blob[8:12] = struct.pack("<I", 1)
    with pytest.raises(ContainerError, match="bytes left after the last of 1 entries"):
        read_matrix_container(io.BytesIO(bytes(blob)))


@pytest.mark.parametrize("tail", [b"\x00", b"SPDT" + struct.pack("<II", 1, 0)])
def test_bytes_after_last_entry(rng, tmp_path, tail):
    blob = container_bytes({"a": rng.standard_normal(3)}) + tail
    with pytest.raises(ContainerError, match="bytes left"):
        read_matrix_container(io.BytesIO(blob))
    path = tmp_path / "model.spdt"
    save_checkpoint(path, {"kind": "demo"}, {"w": np.ones(2)})
    path.write_bytes(path.read_bytes() + tail)
    with pytest.raises(ContainerError, match="bytes left"):
        load_checkpoint(path)


FUZZ_ENTRIES = {name: np.random.default_rng(7).standard_normal(shape)
                for name, shape in (("w", (3, 4)), ("b", (4,)), ("scale", ()))}
FUZZ = settings(max_examples=400, derandomize=True, deadline=None, database=None)


def _flipped(blob: bytes, bits) -> bytes:
    out = bytearray(blob)
    for i in bits:
        out[i // 8] ^= 1 << (i % 8)
    return bytes(out)


def _mutated(blob: bytes):
    """`blob` cut at any byte with up to 32 bytes appended (truncations and
    extensions), or with one to three of its bits flipped."""
    n = len(blob)
    spliced = st.tuples(st.integers(0, n), st.binary(max_size=32)).map(
        lambda cut: blob[:cut[0]] + cut[1])
    flipped = st.lists(st.integers(0, 8 * n - 1), min_size=1, max_size=3).map(
        lambda bits: _flipped(blob, bits))
    return st.one_of(spliced, flipped)


def _assert_whole(arrays: dict):
    """A read that returns holds every written entry whole; a flip may have
    changed an entry name, never a shape or a payload byte."""
    assert [a.shape for a in arrays.values()] == [a.shape for a in FUZZ_ENTRIES.values()]
    assert [a.tobytes() for a in arrays.values()] == [a.tobytes() for a in FUZZ_ENTRIES.values()]


@FUZZ
@given(_mutated(container_bytes(FUZZ_ENTRIES)))
def test_fuzzed_container_fails_typed_or_reads_whole(blob):
    try:
        arrays = read_matrix_container(io.BytesIO(blob))
    except ContainerError:
        return
    _assert_whole(arrays)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@FUZZ
@given(data=st.data())
def test_fuzzed_checkpoint_fails_typed_or_reads_whole(fuzz_dir, data):
    path = fuzz_dir / "model.spdt"
    save_checkpoint(path, {"kind": "demo", "seed": 3}, FUZZ_ENTRIES)
    path.write_bytes(data.draw(_mutated(path.read_bytes())))
    try:
        _, arrays = load_checkpoint(path)
    except ContainerError:
        return
    _assert_whole(arrays)
