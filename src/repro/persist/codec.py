"""Versioned, CRC-framed snapshot codec (no pickle).

Snapshots and WAL records must be byte-stable: the same logical state
always encodes to the same bytes, so a resumed run can be compared
bitwise against its uninterrupted reference and a journal can be
replayed record-for-record.  ``pickle`` cannot promise that (memo ids
depend on object identity, set iteration order on hash seeds), so this
module hand-encodes a small closed vocabulary of types:

* scalars: ``None``, ``bool``, ``int`` (arbitrary precision), ``float``
  (exact 8-byte IEEE double), ``str``, ``bytes``;
* containers: ``tuple`` and ``list`` (distinguished - heap entries are
  tuples), ``dict`` in *insertion order* (runtime dicts like the
  transport's pending map are ordered state), ``set``/``frozenset``
  serialized **sorted** (membership-only state; an unsortable set is a
  hard error rather than a nondeterministic stream);
* packed lists (version 2): a non-empty ``list`` whose elements are all
  exactly ``int`` (within i64) or all exactly ``float`` is one
  ``struct.pack`` under its own tag and decodes to a plain ``list`` of
  the same Python types - counter arrays, slabs and route tables cost
  one call instead of one per element;
* ``numpy.ndarray`` as ``dtype.str`` + shape + C-order bytes;
* runtime vocabulary: :class:`~repro.core.stream.ProgramId` and
  :class:`~repro.core.stream.Stream`, :class:`~repro.core.
  patch_program.ProgramState`, and the frozen fault-plan dataclasses
  (rebuilt through their constructors so validation and cached hashes
  are re-established on load).

Every payload travels inside a CRC-framed envelope -
``MAGIC | version | crc32 | length | payload`` - so torn or corrupted
files are detected before a single byte is interpreted, and
:func:`atomic_write` publishes files with the tmp -> fsync -> rename
-> fsync-dir dance so a host crash never exposes a half-written
snapshot under the final name.
"""

from __future__ import annotations

import os
import struct
import zlib
from typing import Any

import numpy as np

from .._util import ReproError
from ..core.patch_program import ProgramState
from ..core.stream import ProgramId, Stream
from ..runtime.faults import CrashFault, FaultPlan, LinkPartition, StragglerWindow

__all__ = [
    "CODEC_VERSION",
    "CodecError",
    "encode",
    "decode",
    "frame",
    "unframe",
    "atomic_write",
]

#: Bumped whenever the wire format changes; readers reject newer frames.
#: Version 2 added the packed-list tags and the ``Stream`` record that
#: carries ``inc``; every version-1 tag still decodes (WAL records).
CODEC_VERSION = 2

#: Frame magic: identifies a repro persist envelope.
MAGIC = b"RPRS"

_HEADER = struct.Struct(">4sHIQ")  # magic, version, crc32, payload length
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")
_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1

#: element type -> (tag, struct code) of a packed homogeneous list.
_PACKED = {int: (b"q", "q"), float: (b"g", "d")}
_PACKED_CODE = {tag: code for tag, code in _PACKED.values()}


class CodecError(ReproError):
    """Malformed, truncated or corrupt persisted bytes."""


#: Frozen dataclasses rebuilt through their (validating) constructors.
_DATACLASSES: dict[str, type] = {
    "CrashFault": CrashFault,
    "StragglerWindow": StragglerWindow,
    "LinkPartition": LinkPartition,
    "FaultPlan": FaultPlan,
}


def _encode_into(buf: bytearray, obj: Any) -> None:
    if obj is None:
        buf += b"N"
        return
    t = type(obj)
    if t is bool:
        buf += b"T" if obj else b"F"
        return
    if t is int:
        if _I64_MIN <= obj <= _I64_MAX:
            buf += b"i"
            buf += _I64.pack(obj)
        else:
            # Arbitrary-precision path (e.g. PCG64's 128-bit state).
            n = (obj.bit_length() + 8) // 8  # room for the sign bit
            raw = obj.to_bytes(n, "big", signed=True)
            buf += b"I"
            buf += _U32.pack(len(raw))
            buf += raw
        return
    if t is float:
        buf += b"f"
        buf += _F64.pack(obj)
        return
    if t is str:
        raw = obj.encode("utf-8")
        buf += b"s"
        buf += _U32.pack(len(raw))
        buf += raw
        return
    if t is bytes:
        buf += b"b"
        buf += _U64.pack(len(obj))
        buf += obj
        return
    if t is tuple or t is list:
        if t is list and obj:
            kinds = set(map(type, obj))
            packed = _PACKED.get(kinds.pop()) if len(kinds) == 1 else None
            if packed is not None:
                try:
                    raw = struct.pack(">%d%s" % (len(obj), packed[1]), *obj)
                except struct.error:
                    pass  # an int beyond i64: per-element path below
                else:
                    buf += packed[0]
                    buf += _U32.pack(len(obj))
                    buf += raw
                    return
        buf += b"t" if t is tuple else b"l"
        buf += _U32.pack(len(obj))
        for item in obj:
            _encode_into(buf, item)
        return
    if t is dict:
        buf += b"d"
        buf += _U32.pack(len(obj))
        for k, v in obj.items():  # insertion order IS the state
            _encode_into(buf, k)
            _encode_into(buf, v)
        return
    if t is set or t is frozenset:
        buf += b"S" if t is set else b"Z"
        buf += _U32.pack(len(obj))
        try:
            items = sorted(obj)
        except TypeError as e:  # pragma: no cover - defensive
            raise CodecError(
                f"cannot serialize an unsortable {t.__name__}: {e}"
            ) from e
        for item in items:
            _encode_into(buf, item)
        return
    if isinstance(obj, np.ndarray):
        raw = np.ascontiguousarray(obj).tobytes()
        buf += b"a"
        _encode_into(buf, obj.dtype.str)
        _encode_into(buf, tuple(int(n) for n in obj.shape))
        buf += _U64.pack(len(raw))
        buf += raw
        return
    if t is ProgramId:
        buf += b"P"
        _encode_into(buf, obj.patch)
        _encode_into(buf, obj.task)
        return
    if t is Stream:
        buf += b"m"
        for v in (obj.src, obj.dst, obj.payload, obj.items, obj.nbytes,
                  obj.seq, obj.epoch, obj.checksum, obj.dsti, obj.inc):
            _encode_into(buf, v)
        return
    if t is ProgramState:
        buf += b"E"
        _encode_into(buf, obj.value)
        return
    name = t.__name__
    if _DATACLASSES.get(name) is t:
        buf += b"D"
        _encode_into(buf, name)
        buf += _U32.pack(len(t.__dataclass_fields__))
        for f in t.__dataclass_fields__:
            _encode_into(buf, f)
            _encode_into(buf, getattr(obj, f))
        return
    if isinstance(obj, np.generic):
        # Stray numpy scalars (an int64 that escaped a .tolist()):
        # normalize to the Python scalar - value-identical on decode.
        _encode_into(buf, obj.item())
        return
    raise CodecError(f"type {t.__name__} is not snapshot-serializable")


def encode(obj: Any) -> bytes:
    """Deterministic binary encoding of ``obj`` (see module docs)."""
    buf = bytearray()
    _encode_into(buf, obj)
    return bytes(buf)


class _Reader:
    __slots__ = ("buf", "pos")

    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def take(self, n: int) -> bytes:
        end = self.pos + n
        if end > len(self.buf):
            raise CodecError("truncated persisted payload")
        out = self.buf[self.pos:end]
        self.pos = end
        return out


def _decode_from(r: _Reader) -> Any:
    tag = r.take(1)
    if tag == b"N":
        return None
    if tag == b"T":
        return True
    if tag == b"F":
        return False
    if tag == b"i":
        return _I64.unpack(r.take(8))[0]
    if tag == b"I":
        (n,) = _U32.unpack(r.take(4))
        return int.from_bytes(r.take(n), "big", signed=True)
    if tag == b"f":
        return _F64.unpack(r.take(8))[0]
    if tag == b"s":
        (n,) = _U32.unpack(r.take(4))
        return r.take(n).decode("utf-8")
    if tag == b"b":
        (n,) = _U64.unpack(r.take(8))
        return r.take(n)
    if tag == b"t":
        (n,) = _U32.unpack(r.take(4))
        return tuple(_decode_from(r) for _ in range(n))
    if tag == b"l":
        (n,) = _U32.unpack(r.take(4))
        return [_decode_from(r) for _ in range(n)]
    if tag in _PACKED_CODE:
        (n,) = _U32.unpack(r.take(4))
        return list(struct.unpack(">%d%s" % (n, _PACKED_CODE[tag]), r.take(8 * n)))
    if tag == b"d":
        (n,) = _U32.unpack(r.take(4))
        out = {}
        for _ in range(n):
            k = _decode_from(r)
            out[k] = _decode_from(r)
        return out
    if tag == b"S" or tag == b"Z":
        (n,) = _U32.unpack(r.take(4))
        items = [_decode_from(r) for _ in range(n)]
        return set(items) if tag == b"S" else frozenset(items)
    if tag == b"a":
        dtype = _decode_from(r)
        shape = _decode_from(r)
        (n,) = _U64.unpack(r.take(8))
        raw = r.take(n)
        return np.frombuffer(raw, dtype=np.dtype(dtype)).reshape(shape).copy()
    if tag == b"P":
        return ProgramId(_decode_from(r), _decode_from(r))
    if tag == b"m" or tag == b"M":
        # "M" is the version-1 record, written before ``inc`` was carried.
        return Stream(*[_decode_from(r) for _ in range(10 if tag == b"m" else 9)])
    if tag == b"E":
        return ProgramState(_decode_from(r))
    if tag == b"D":
        name = _decode_from(r)
        cls = _DATACLASSES.get(name)
        if cls is None:
            raise CodecError(f"unknown persisted dataclass {name!r}")
        (n,) = _U32.unpack(r.take(4))
        kwargs = {}
        for _ in range(n):
            f = _decode_from(r)
            kwargs[f] = _decode_from(r)
        return cls(**kwargs)
    raise CodecError(f"unknown codec tag {tag!r}")


def decode(data: bytes) -> Any:
    """Inverse of :func:`encode`."""
    r = _Reader(data)
    obj = _decode_from(r)
    if r.pos != len(data):
        raise CodecError(
            f"{len(data) - r.pos} trailing bytes after persisted payload"
        )
    return obj


def frame(payload: bytes, version: int = CODEC_VERSION) -> bytes:
    """Wrap ``payload`` in the CRC-checked envelope."""
    return _HEADER.pack(
        MAGIC, version, zlib.crc32(payload), len(payload)
    ) + payload


def unframe(data: bytes) -> tuple[int, bytes]:
    """Validate an envelope; returns ``(version, payload)``.

    Raises :class:`CodecError` on a bad magic, an unsupported (newer)
    version, a truncated payload, or a CRC mismatch - the checks a
    restart performs before trusting anything on disk.
    """
    if len(data) < _HEADER.size:
        raise CodecError("truncated frame header")
    magic, version, crc, length = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise CodecError(f"bad frame magic {magic!r}")
    if version > CODEC_VERSION:
        raise CodecError(
            f"frame version {version} is newer than supported "
            f"({CODEC_VERSION})"
        )
    payload = data[_HEADER.size:]
    if len(payload) != length:
        raise CodecError(
            f"frame payload truncated: {len(payload)} of {length} bytes"
        )
    if zlib.crc32(payload) != crc:
        raise CodecError("frame CRC mismatch")
    return version, payload


def atomic_write(path: str | os.PathLike, data: bytes, fsync: bool = True) -> int:
    """Crash-consistent publish of ``data`` at ``path``.

    Writes a temporary file in the same directory, flushes it to disk,
    atomically renames it over ``path``, then fsyncs the directory so
    the rename itself is durable.  A crash at any point leaves either
    the old file or the new file - never a torn one.  Returns the
    number of bytes written.
    """
    path = os.fspath(path)
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(data)
        f.flush()
        if fsync:
            os.fsync(f.fileno())
    os.replace(tmp, path)
    if fsync:
        dfd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
        try:
            os.fsync(dfd)
        finally:
            os.close(dfd)
    return len(data)
