"""Canonical, deterministic binary encoding.

IA-CCF requires every ledger entry and protocol message to have a single
canonical byte representation: Merkle leaves hash the encoded entry, replicas
must agree bit-for-bit on ledger contents, and Table 1 of the paper reports
entry sizes.  This module provides a small, self-describing TLV
(tag-length-value) codec for the value shapes the library uses:

``None``, ``bool``, ``int`` (signed, arbitrary precision), ``bytes``,
``str``, ``tuple``/``list`` (both decode as ``tuple``), and ``dict`` with
string keys (encoded with keys sorted, so encoding is canonical).

An object with a ``wire_bytes`` attribute (a protocol message) encodes as
exactly those bytes, which are the encoding of its wire tuple; such
objects decode as that tuple.

The encoding is deliberately simple rather than clever: a one-byte tag, a
varint length where needed, then the payload.  It is stable across Python
versions and platforms.
"""

from __future__ import annotations

from typing import Any, Iterator

from .errors import CodecError

# Tags (one byte each).
_TAG_NONE = 0x00
_TAG_FALSE = 0x01
_TAG_TRUE = 0x02
_TAG_INT = 0x03
_TAG_BYTES = 0x04
_TAG_STR = 0x05
_TAG_SEQ = 0x06
_TAG_MAP = 0x07


def _write_varint(out: bytearray, value: int) -> None:
    """Append an unsigned LEB128 varint."""
    if value < 0:
        raise CodecError(f"varint must be non-negative, got {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _read_varint(data: bytes, pos: int) -> tuple[int, int]:
    """Read an unsigned LEB128 varint, returning (value, new_pos)."""
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise CodecError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 63:
            raise CodecError("varint too long")


def _encode_into(out: bytearray, value: Any) -> None:
    # Fast path: dispatch on the exact type of the hot shapes (tuples,
    # bytes, str, non-negative ints below 2**62) and write their varints
    # inline.  Everything else (dicts, None, bools, negative ints and
    # bigints, lists, subclasses) takes the isinstance chain below; both
    # paths produce the same bytes.
    kind = type(value)
    if kind is tuple:
        count = len(value)
        out.append(_TAG_SEQ)
        if count < 0x80:
            out.append(count)
        else:
            _write_varint(out, count)
        for item in value:
            _encode_into(out, item)
    elif kind is bytes:
        size = len(value)
        out.append(_TAG_BYTES)
        if size < 0x80:
            out.append(size)
        else:
            _write_varint(out, size)
        out += value
    elif kind is str:
        raw = value.encode("utf-8")
        size = len(raw)
        out.append(_TAG_STR)
        if size < 0x80:
            out.append(size)
        else:
            _write_varint(out, size)
        out += raw
    elif kind is int and 0 <= value < 0x4000_0000_0000_0000:
        # The zig-zag form of a non-negative int below 2**62 is 2*value.
        out.append(_TAG_INT)
        out.append(0x00)
        zz = value << 1
        while zz >= 0x80:
            out.append(zz & 0x7F | 0x80)
            zz >>= 7
        out.append(zz)
    elif isinstance(value, dict):
        count = len(value)
        out.append(_TAG_MAP)
        if count < 0x80:
            out.append(count)
        else:
            _write_varint(out, count)
        try:
            keys = sorted(value)
        except TypeError as exc:
            raise CodecError("map keys must be sortable strings") from exc
        for key in keys:
            if not isinstance(key, str):
                raise CodecError(f"map keys must be str, got {type(key).__name__}")
            raw = key.encode("utf-8")
            size = len(raw)
            if size < 0x80:
                out.append(size)
            else:
                _write_varint(out, size)
            out += raw
            _encode_into(out, value[key])
    elif value is None:
        out.append(_TAG_NONE)
    elif value is True:
        out.append(_TAG_TRUE)
    elif value is False:
        out.append(_TAG_FALSE)
    elif isinstance(value, int):
        out.append(_TAG_INT)
        # Zig-zag encode so negative ints get compact varints.
        zz = (value << 1) ^ (value >> 63) if -(2**62) < value < 2**62 else None
        if zz is None or zz < 0:
            # Arbitrary precision fallback: sign byte + magnitude bytes.
            magnitude = abs(value)
            raw = magnitude.to_bytes((magnitude.bit_length() + 7) // 8 or 1, "big")
            out.append(0xFF)
            out.append(0x01 if value < 0 else 0x00)
            _write_varint(out, len(raw))
            out.extend(raw)
        else:
            out.append(0x00)
            _write_varint(out, zz)
    elif isinstance(value, (bytes, bytearray, memoryview)):
        out.append(_TAG_BYTES)
        raw = bytes(value)
        _write_varint(out, len(raw))
        out.extend(raw)
    elif isinstance(value, str):
        out.append(_TAG_STR)
        raw = value.encode("utf-8")
        _write_varint(out, len(raw))
        out.extend(raw)
    elif isinstance(value, (tuple, list)):
        out.append(_TAG_SEQ)
        _write_varint(out, len(value))
        for item in value:
            _encode_into(out, item)
    else:
        wire = getattr(value, "wire_bytes", None)
        if type(wire) is not bytes:
            raise CodecError(f"cannot encode value of type {type(value).__name__}")
        out += wire


def encode(value: Any) -> bytes:
    """Encode ``value`` into its canonical byte representation."""
    out = bytearray()
    _encode_into(out, value)
    return bytes(out)


def seq_header(count: int) -> bytes:
    """The bytes that open the encoding of a ``count``-item sequence.

    ``seq_header(n) + encode(a) + ... + encode(z)`` equals
    ``encode((a, ..., z))``, so a caller holding the encodings of the
    items can compose the encoding of the tuple without re-encoding them.
    """
    out = bytearray((_TAG_SEQ,))
    _write_varint(out, count)
    return bytes(out)


def map_header(count: int) -> bytes:
    """The bytes that open the encoding of a ``count``-entry map; each
    entry then follows as ``map_key(key) + encode(value)``, keys sorted."""
    out = bytearray((_TAG_MAP,))
    _write_varint(out, count)
    return bytes(out)


def map_key(key: str) -> bytes:
    """The bytes a ``str`` key takes inside an encoded map: a varint
    length and the raw UTF-8, with no str tag.  ``encode(key)`` is the
    str tag byte followed by these bytes."""
    raw = key.encode("utf-8")
    out = bytearray()
    _write_varint(out, len(raw))
    out += raw
    return bytes(out)


def _decode_from(data: bytes, pos: int) -> tuple[Any, int]:
    if pos >= len(data):
        raise CodecError("truncated input")
    tag = data[pos]
    pos += 1
    if tag == _TAG_NONE:
        return None, pos
    if tag == _TAG_TRUE:
        return True, pos
    if tag == _TAG_FALSE:
        return False, pos
    if tag == _TAG_INT:
        if pos >= len(data):
            raise CodecError("truncated int")
        mode = data[pos]
        pos += 1
        if mode == 0x00:
            zz, pos = _read_varint(data, pos)
            return (zz >> 1) ^ -(zz & 1), pos
        if mode == 0xFF:
            if pos >= len(data):
                raise CodecError("truncated bigint")
            negative = data[pos] == 0x01
            pos += 1
            length, pos = _read_varint(data, pos)
            if pos + length > len(data):
                raise CodecError("truncated bigint magnitude")
            magnitude = int.from_bytes(data[pos : pos + length], "big")
            pos += length
            return -magnitude if negative else magnitude, pos
        raise CodecError(f"unknown int mode {mode:#x}")
    if tag == _TAG_BYTES:
        length, pos = _read_varint(data, pos)
        if pos + length > len(data):
            raise CodecError("truncated bytes")
        return data[pos : pos + length], pos + length
    if tag == _TAG_STR:
        length, pos = _read_varint(data, pos)
        if pos + length > len(data):
            raise CodecError("truncated str")
        try:
            return data[pos : pos + length].decode("utf-8"), pos + length
        except UnicodeDecodeError as exc:
            raise CodecError("invalid utf-8 in str") from exc
    if tag == _TAG_SEQ:
        count, pos = _read_varint(data, pos)
        items = []
        for _ in range(count):
            item, pos = _decode_from(data, pos)
            items.append(item)
        return tuple(items), pos
    if tag == _TAG_MAP:
        count, pos = _read_varint(data, pos)
        result: dict[str, Any] = {}
        previous_key: str | None = None
        for _ in range(count):
            key_len, pos = _read_varint(data, pos)
            if pos + key_len > len(data):
                raise CodecError("truncated map key")
            key = data[pos : pos + key_len].decode("utf-8")
            pos += key_len
            if previous_key is not None and key <= previous_key:
                raise CodecError("map keys not in canonical order")
            previous_key = key
            result[key], pos = _decode_from(data, pos)
        return result, pos
    raise CodecError(f"unknown tag {tag:#x}")


def decode(data: bytes) -> Any:
    """Decode a canonical byte string, rejecting trailing garbage."""
    value, pos = _decode_from(bytes(data), 0)
    if pos != len(data):
        raise CodecError(f"{len(data) - pos} trailing bytes after value")
    return value


def decode_stream(data: bytes) -> Iterator[Any]:
    """Decode a concatenation of canonical values, yielding each."""
    data = bytes(data)
    pos = 0
    while pos < len(data):
        value, pos = _decode_from(data, pos)
        yield value


def encode_stream(values) -> bytes:
    """Encode an iterable of values as a concatenation of canonical
    encodings (the inverse of :func:`decode_stream`).  Used for chunked
    state transfer, where a chunk is a self-delimiting stream of
    ``(key, value)`` pairs rather than one enclosing sequence."""
    out = bytearray()
    for value in values:
        _encode_into(out, value)
    return bytes(out)


def encoded_size(value: Any) -> int:
    """Return the size in bytes of the canonical encoding of ``value``."""
    return len(encode(value))
