"""Canonical codec: round-trips, canonicality, and malformed input."""

import pytest
from hypothesis import given, strategies as st

from repro import codec
from repro.errors import CodecError


SIMPLE_VALUES = [
    None,
    True,
    False,
    0,
    1,
    -1,
    127,
    128,
    -128,
    2**62,
    -(2**62),
    2**200,
    -(2**200),
    b"",
    b"\x00\xff" * 10,
    "",
    "hello",
    "unicode: ✓ é 漢",
    (),
    (1, 2, 3),
    ("a", (b"b", None)),
    {},
    {"k": 1},
    {"a": {"b": (1, 2)}, "z": b"bytes"},
]


@pytest.mark.parametrize("value", SIMPLE_VALUES, ids=repr)
def test_roundtrip(value):
    encoded = codec.encode(value)
    decoded = codec.decode(encoded)
    if isinstance(value, list):
        value = tuple(value)
    assert decoded == value


def test_lists_decode_as_tuples():
    assert codec.decode(codec.encode([1, 2])) == (1, 2)


def test_encoding_is_deterministic_across_dict_insertion_order():
    a = {"x": 1, "y": 2}
    b = {"y": 2, "x": 1}
    assert codec.encode(a) == codec.encode(b)


def test_distinct_values_encode_distinctly():
    seen = {}
    for value in SIMPLE_VALUES:
        blob = codec.encode(value)
        assert blob not in seen or seen[blob] == value
        seen[blob] = value


def test_bool_and_int_not_confused():
    assert codec.encode(True) != codec.encode(1)
    assert codec.encode(False) != codec.encode(0)


def test_bytes_and_str_not_confused():
    assert codec.encode(b"ab") != codec.encode("ab")


def test_trailing_garbage_rejected():
    blob = codec.encode(42) + b"\x00"
    with pytest.raises(CodecError):
        codec.decode(blob)


def test_truncated_input_rejected():
    blob = codec.encode("hello world")
    for cut in range(1, len(blob)):
        with pytest.raises(CodecError):
            codec.decode(blob[:cut])


def test_unknown_tag_rejected():
    with pytest.raises(CodecError):
        codec.decode(b"\x99")


def test_non_string_dict_keys_rejected():
    with pytest.raises(CodecError):
        codec.encode({1: "x"})


def test_unencodable_type_rejected():
    with pytest.raises(CodecError):
        codec.encode(object())

    with pytest.raises(CodecError):
        codec.encode(3.14)  # floats are not canonical; must be rejected


def test_non_canonical_map_order_rejected():
    # Hand-build a map with keys out of order: decode must reject it so
    # every value has exactly one accepted encoding.
    good = codec.encode({"a": 1, "b": 2})
    a_part = codec.encode({"a": 1})[2:]  # strip tag+count
    b_part = codec.encode({"b": 2})[2:]
    bad = bytes([good[0], good[1]]) + b_part + a_part
    with pytest.raises(CodecError):
        codec.decode(bad)


def test_decode_stream_yields_each_value():
    blob = codec.encode(1) + codec.encode("two") + codec.encode((3,))
    assert list(codec.decode_stream(blob)) == [1, "two", (3,)]


def test_encoded_size_matches_len():
    value = {"k": [1, 2, 3], "s": "abc"}
    assert codec.encoded_size(value) == len(codec.encode(value))


# -- property-based ---------------------------------------------------------

json_like = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**100), max_value=2**100)
    | st.binary(max_size=64)
    | st.text(max_size=32),
    lambda children: st.lists(children, max_size=5).map(tuple)
    | st.dictionaries(st.text(max_size=8), children, max_size=5),
    max_leaves=20,
)


@given(json_like)
def test_property_roundtrip(value):
    assert codec.decode(codec.encode(value)) == _normalize(value)


@given(json_like, json_like)
def test_property_injective(a, b):
    if _normalize(a) != _normalize(b):
        assert codec.encode(a) != codec.encode(b)


def _normalize(value):
    if isinstance(value, (list, tuple)):
        return tuple(_normalize(v) for v in value)
    if isinstance(value, dict):
        return {k: _normalize(v) for k, v in value.items()}
    return value


# -- seeded randomized round-trips (deterministic, no hypothesis DB) ---------


def _random_value(rng, depth=0):
    """A random codec-encodable value (nested tuples/dicts of scalars)."""
    roll = rng.random()
    if depth >= 3 or roll < 0.55:
        kind = rng.randrange(5)
        if kind == 0:
            return None
        if kind == 1:
            return rng.random() < 0.5
        if kind == 2:
            return rng.randint(-(2**80), 2**80)
        if kind == 3:
            return rng.randbytes(rng.randrange(40))
        return "".join(chr(rng.randrange(32, 0x2FF)) for _ in range(rng.randrange(12)))
    if roll < 0.8:
        return tuple(_random_value(rng, depth + 1) for _ in range(rng.randrange(5)))
    return {
        "k%d" % i: _random_value(rng, depth + 1) for i in range(rng.randrange(4))
    }


def test_seeded_random_roundtrip():
    import random

    rng = random.Random(97)
    for _ in range(300):
        value = _random_value(rng)
        assert codec.decode(codec.encode(value)) == _normalize(value)


def test_seeded_random_encoding_canonical():
    """Encoding is a function of the (normalized) value: re-encoding a
    decoded value reproduces the exact bytes."""
    import random

    rng = random.Random(98)
    for _ in range(300):
        encoded = codec.encode(_random_value(rng))
        assert codec.encode(codec.decode(encoded)) == encoded


# -- golden vectors: the canonical form, byte for byte -------------------------
#
# These pin the encoding itself, not just round-trips: any change to the
# encoder (a fast path, a reordered type check) that alters a single byte
# of the canonical form fails here, and with it every ledger digest.

SMALLBANK_REQUEST_WIRE = (
    "request", "smallbank.send_payment", {"amount": 25, "dst": 70000, "src": 3},
    b"\x11" * 4, b"\x22" * 4, 12, 3, b"\x33" * 8,
)

GOLDEN = [
    (
        SMALLBANK_REQUEST_WIRE,
        "06080507726571756573740516736d616c6c62616e6b2e73656e645f7061796d656e74"
        "070306616d6f756e74030032036473740300e0c5080373726303000604041111111104"
        "042222222203001803000604083333333333333333",
    ),
    (
        (SMALLBANK_REQUEST_WIRE, 517, {"reply": {"ok": True, "src_balance": 9975}, "ws": b"\xaa" * 4}),
        "060306080507726571756573740516736d616c6c62616e6b2e73656e645f7061796d65"
        "6e74070306616d6f756e74030032036473740300e0c508037372630300060404111111"
        "110404222222220300180300060408333333333333333303008a080702057265706c79"
        "0702026f6b020b7372635f62616c616e63650300ee9b010277730404aaaaaaaa",
    ),
    (
        ("pre-prepare", 0, 5, b"\x01" * 4, b"\x02" * 4, b"\x03" * 4, 0b1011, 3, b"\x04" * 4, 0, b"", b"\x05" * 8),
        "060c050b7072652d7072657061726503000003000a0404010101010404020202020404"
        "03030303030016030006040404040404030000040004080505050505050505",
    ),
    (
        {"z": None, "a": (1, -1, True, False), "m": {"x": b"", "y": "é"}},
        "0703016106040300020300010201016d07020178040001790502c3a9017a00",
    ),
]


@pytest.mark.parametrize("value,expected", GOLDEN, ids=["request", "tio", "pre-prepare", "map"])
def test_golden_structures(value, expected):
    assert codec.encode(value).hex() == expected


GOLDEN_INTS = [
    (0, "030000"),
    (63, "03007e"),  # largest one-byte zig-zag varint
    (64, "03008001"),
    (127, "0300fe01"),
    (128, "03008002"),
    (8191, "0300fe7f"),
    (8192, "0300808001"),
    (16383, "0300feff01"),
    (16384, "0300808002"),
    (-1, "030001"),
    (-64, "03007f"),
    (-65, "03008101"),
    (2**62 - 1, "0300feffffffffffffff7f"),
    (2**62, "03ff00084000000000000000"),  # first bigint
    (-(2**62) + 1, "0300fdffffffffffffff7f"),
    (-(2**62), "03ff01084000000000000000"),
    (2**64, "03ff0009010000000000000000"),
    (-(2**64), "03ff0109010000000000000000"),
]


@pytest.mark.parametrize("value,expected", GOLDEN_INTS, ids=[str(v) for v, _ in GOLDEN_INTS])
def test_golden_ints(value, expected):
    assert codec.encode(value).hex() == expected


@pytest.mark.parametrize(
    "length,prefix",
    [(0, "00"), (63, "3f"), (64, "40"), (127, "7f"), (128, "8001"), (300, "ac02"), (16383, "ff7f"), (16384, "808001")],
)
def test_golden_length_prefixes(length, prefix):
    """Bytes, str, sequence and map lengths share one varint format."""
    prefix = bytes.fromhex(prefix)
    assert codec.encode(b"\x00" * length) == b"\x04" + prefix + b"\x00" * length
    assert codec.encode("a" * length) == b"\x05" + prefix + b"a" * length
    assert codec.encode((0,) * length) == b"\x06" + prefix + b"\x03\x00\x00" * length
    keys = {"k%05d" % i: None for i in range(length)}
    body = b"".join(b"\x06" + k.encode() + b"\x00" for k in sorted(keys))
    assert codec.encode(keys) == b"\x07" + prefix + body


def test_seq_header_composes_tuple_encodings():
    items = (SMALLBANK_REQUEST_WIRE, 517, {"ok": True}, b"", "x")
    composed = codec.seq_header(len(items)) + b"".join(codec.encode(i) for i in items)
    assert composed == codec.encode(items)
    for n in (0, 127, 128, 300):
        assert codec.seq_header(n) == codec.encode((None,) * n)[: len(codec.seq_header(n))]


# -- the encoder against a minimal reference ---------------------------------


def _ref_varint(n: int) -> bytes:
    out = bytearray()
    while True:
        byte, n = n & 0x7F, n >> 7
        if not n:
            out.append(byte)
            return bytes(out)
        out.append(byte | 0x80)


def _reference_encode(value) -> bytes:
    """The canonical form written out directly, one rule per type, with no
    fast paths: the oracle the real encoder must match byte for byte."""
    if value is None:
        return b"\x00"
    if value is True:
        return b"\x02"
    if value is False:
        return b"\x01"
    if isinstance(value, int):
        if -(2**62) < value < 2**62:
            return b"\x03\x00" + _ref_varint(2 * value if value >= 0 else -2 * value - 1)
        magnitude = abs(value)
        raw = magnitude.to_bytes((magnitude.bit_length() + 7) // 8, "big")
        return b"\x03\xff" + (b"\x01" if value < 0 else b"\x00") + _ref_varint(len(raw)) + raw
    if isinstance(value, (bytes, bytearray)):
        return b"\x04" + _ref_varint(len(value)) + bytes(value)
    if isinstance(value, str):
        raw = value.encode("utf-8")
        return b"\x05" + _ref_varint(len(raw)) + raw
    if isinstance(value, (tuple, list)):
        return b"\x06" + _ref_varint(len(value)) + b"".join(_reference_encode(v) for v in value)
    assert isinstance(value, dict)
    out = b"\x07" + _ref_varint(len(value))
    for key in sorted(value):
        raw = key.encode("utf-8")
        out += _ref_varint(len(raw)) + raw + _reference_encode(value[key])
    return out


class _Int(int):
    pass


class _Str(str):
    pass


class _Tuple(tuple):
    pass


boundary_ints = st.sampled_from(
    [0, 1, 63, 64, 127, 128, 8191, 8192, 16383, 16384, 2**62 - 1, 2**62, 2**63, 2**64]
).flatmap(lambda n: st.sampled_from([n, -n, n - 1, -n + 1]))

scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | boundary_ints
    | st.integers(min_value=-(2**70), max_value=2**70).map(_Int)
    | st.binary(max_size=300)
    | st.binary(max_size=140).map(bytearray)
    | st.text(max_size=140)
    | st.text(max_size=8).map(_Str)
)

codec_values = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=6).map(tuple)
    | st.lists(children, max_size=6)
    | st.lists(children, max_size=3).map(_Tuple)
    | st.lists(st.none(), min_size=126, max_size=130).map(tuple)
    | st.dictionaries(st.text(max_size=8), children, max_size=5),
    max_leaves=25,
)


@given(codec_values)
def test_property_encoder_matches_reference(value):
    assert codec.encode(value) == _reference_encode(value)
