"""Binary container for named float64 tensors.

Layout (all integers little-endian):

    magic   4 bytes  "SPDT"
    version u32      1
    count   u32      number of entries
    entry:
        name_len u16, name UTF-8
        dtype    u8   (0 = float64)
        rank     u8
        dims     rank * u64
        payload  row-major little-endian float64
        crc32    u32  of the payload bytes

Round trips are bit-exact. Readers fail with TruncatedFile on any premature
end of data, including dims that declare more payload than the file has left
(checked before the payload is read, so the reader needs a seekable file),
ChecksumMismatch when a payload fails its CRC, BadMagic / VersionUnsupported
on header problems, ContainerError on an entry name or checkpoint header that
does not decode, on an entry name that repeats, or on bytes left after the
last entry (so an entry count flipped downward is caught too), and never
return partial results.
"""

from __future__ import annotations

import io
import json
import math
import struct
import zlib

import numpy as np

from .errors import BadMagic, ChecksumMismatch, ContainerError, TruncatedFile, VersionUnsupported

MAGIC = b"SPDT"
VERSION = 1
DTYPE_F64 = 0


def _read_exact(f, n: int) -> bytes:
    buf = f.read(n)
    if len(buf) != n:
        raise TruncatedFile(f"needed {n} bytes, got {len(buf)}")
    return buf


def _bytes_left(f) -> int:
    pos = f.tell()
    end = f.seek(0, io.SEEK_END)
    f.seek(pos)
    return end - pos


def write_matrix_container(path_or_file, tensors: dict) -> None:
    """Write name -> ndarray entries in insertion order."""
    own = isinstance(path_or_file, (str, bytes)) or hasattr(path_or_file, "__fspath__")
    f = open(path_or_file, "wb") if own else path_or_file
    try:
        f.write(MAGIC)
        f.write(struct.pack("<II", VERSION, len(tensors)))
        for name, arr in tensors.items():
            arr = np.asarray(arr, dtype="<f8")  # tobytes(order="C") handles layout
            encoded = name.encode("utf-8")
            f.write(struct.pack("<H", len(encoded)))
            f.write(encoded)
            f.write(struct.pack("<BB", DTYPE_F64, arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            payload = arr.tobytes(order="C")
            f.write(payload)
            f.write(struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF))
    finally:
        if own:
            f.close()


def read_matrix_container(path_or_file) -> dict:
    """Read back every entry; returns an ordered name -> ndarray dict."""
    own = isinstance(path_or_file, (str, bytes)) or hasattr(path_or_file, "__fspath__")
    f = open(path_or_file, "rb") if own else path_or_file
    try:
        magic = f.read(4)
        if len(magic) < 4:
            raise TruncatedFile("file shorter than the magic header")
        if magic != MAGIC:
            raise BadMagic(f"expected {MAGIC!r}, got {magic!r}")
        version, count = struct.unpack("<II", _read_exact(f, 8))
        if version != VERSION:
            raise VersionUnsupported(f"container version {version}")
        out = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<H", _read_exact(f, 2))
            try:
                name = _read_exact(f, name_len).decode("utf-8")
            except UnicodeDecodeError as err:
                raise ContainerError(f"entry name is not UTF-8: {err}") from err
            if name in out:
                raise ContainerError(f"duplicate entry name {name!r}")
            dtype_code, rank = struct.unpack("<BB", _read_exact(f, 2))
            if dtype_code != DTYPE_F64:
                raise VersionUnsupported(f"dtype code {dtype_code}")
            dims = struct.unpack(f"<{rank}Q", _read_exact(f, 8 * rank)) if rank else ()
            n_bytes, left = 8 * math.prod(dims), _bytes_left(f)
            if n_bytes > left:
                raise TruncatedFile(f"entry {name!r} with dims {dims} needs {n_bytes} "
                                    f"payload bytes, {left} left")
            payload = _read_exact(f, n_bytes)
            (crc,) = struct.unpack("<I", _read_exact(f, 4))
            if zlib.crc32(payload) & 0xFFFFFFFF != crc:
                raise ChecksumMismatch(f"entry {name!r}")
            out[name] = np.frombuffer(payload, dtype="<f8").reshape(dims).copy()
        if f.read(1):
            raise ContainerError(f"bytes left after the last of {count} entries")
        return out
    finally:
        if own:
            f.close()


def save_checkpoint(path, header: dict, arrays: dict) -> None:
    """Checkpoint file: one UTF-8 JSON header line, then container bytes."""
    with open(path, "wb") as f:
        f.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        write_matrix_container(f, arrays)


def load_checkpoint(path):
    with open(path, "rb") as f:
        line = f.readline()
        if not line.endswith(b"\n"):
            raise TruncatedFile("checkpoint header line missing newline")
        try:
            header = json.loads(line.decode("utf-8"))
        except ValueError as err:
            raise ContainerError(f"checkpoint header is not UTF-8 JSON: {err}") from err
        arrays = read_matrix_container(f)
    return header, arrays


def container_bytes(tensors: dict) -> bytes:
    buf = io.BytesIO()
    write_matrix_container(buf, tensors)
    return buf.getvalue()
