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


# -- protocol messages sent as objects ---------------------------------------
#
# Correct nodes put the message object itself into the envelope, and the
# codec encodes an object with ``wire_bytes`` as exactly those bytes.  So
# each message's cached (or composed) ``wire_bytes`` must be the encoding
# of its wire tuple, and an envelope must encode the same either way.


def _golden_messages():
    from repro.crypto.hashing import digest
    from repro.lpbft.messages import Commit, PrePrepare, Prepare, Reply, ReplyX, TransactionRequest
    from repro.merkle import MerkleTree

    request = TransactionRequest(
        procedure="smallbank.send_payment", args={"amount": 25, "dst": 70000, "src": 3},
        client=b"\x11" * 4, service=b"\x22" * 4, min_index=12, nonce=3,
    ).with_signature(b"\x33" * 8)
    pp = PrePrepare(
        view=1, seqno=300, root_m=b"\x01" * 4, root_g=b"\x02" * 4, nonce_commitment=b"\x03" * 4,
        evidence_bitmap=0b1011, gov_index=70000, checkpoint_digest=b"\x04" * 4, flags=0,
        committed_root=b"", signature=b"\x05" * 8,
    )
    prepare = Prepare(replica=2, nonce_commitment=b"\x06" * 4, pp_digest=b"\x07" * 4, signature=b"\x08" * 8)
    commit = Commit(view=1, seqno=300, replica=3, nonce=b"\x09" * 4)
    reply = Reply(view=1, seqno=300, replica=0, signature=b"\x0a" * 8, nonce=b"\x0b" * 4)
    # A 130-byte string and a bigint make the output's lengths cross the
    # one-byte varint boundary inside the composed replyx.
    output = {
        "reply": {"ok": True, "memo": "m" * 130, "big": -(2**70), "nested": {"a": (1, None)}},
        "ws": b"\xaa" * 4,
    }
    tree = MerkleTree([digest(bytes([i])) for i in range(5)])
    replyx = ReplyX.for_tx(pp, b"\x0c" * 4, 8191, output, tree.path(3))
    return {
        "request": request, "pre-prepare": pp, "prepare": prepare,
        "commit": commit, "reply": reply, "replyx": replyx,
    }


GOLDEN_MESSAGES = {
    "request": GOLDEN[0][1],
    "pre-prepare": (
        "060c050b7072652d707265706172650300020300d80404040101010104040202020204"
        "04030303030300160300e0c508040404040404030000040004080505050505050505"
    ),
    "prepare": "060505077072657061726503000404040606060604040707070704080808080808080808",
    "commit": "06050506636f6d6d69740300020300d804030006040409090909",
    "reply": "060605057265706c790300020300d80403000004080a0a0a0a0a0a0a0a04040b0b0b0b",
    "replyx": (
        "060e05067265706c79780300020300d8040404010101010404030303030300160300e0"
        "c508040404040404030000040004040c0c0c0c0300fe7f0702057265706c7907040362"
        "696703ff0109400000000000000000046d656d6f0582016d6d6d6d6d6d6d6d6d6d6d6d"
        + "6d" * 118
        + "066e657374656407010161060203000200026f6b0202"
        "77730404aaaaaaaa060303000603000a060306020420dbc1b4c900ffe48d575b5da5c6"
        "38040125f65db0fe3e24494b76ea986457d986020602042030e1867424e66e8b6d1592"
        "46db94e3486778136f7e386ff5f001859d6b8484ab0206020420e52d9c508c50234734"
        "4d8c07ad91cbd6068afc75ff6292f062a09ca381c89e7101"
    ),
}


@pytest.mark.parametrize("kind", sorted(GOLDEN_MESSAGES))
def test_golden_message_wire_bytes(kind):
    message = _golden_messages()[kind]
    expected = GOLDEN_MESSAGES[kind]
    assert codec.encode(message.to_wire()).hex() == expected
    assert _reference_encode(message.to_wire()).hex() == expected
    assert message.wire_bytes.hex() == expected
    assert codec.encode(message) == message.wire_bytes
    assert codec.encode((kind, message)) == codec.encode((kind, message.to_wire()))
    # The cached tuple is reused, and a decoded copy caches the same bytes.
    assert message.to_wire() is message.to_wire()
    assert type(message).from_wire(message.to_wire()).wire_bytes == message.wire_bytes


def test_golden_message_signed_payloads_and_digests():
    from repro.crypto.hashing import digest_value

    messages = _golden_messages()
    pp = messages["pre-prepare"]
    assert pp.signed_payload() == codec.encode(pp.to_wire()[:-1])
    assert pp.digest() == digest_value(pp.to_wire())
    prepare = messages["prepare"]
    assert prepare.signed_payload() == codec.encode(prepare.to_wire()[:-1])


def test_map_header_and_map_key_compose_map_encodings():
    for key in ("", "k", "é漢", "k" * 127, "k" * 128, "x" * 300):
        assert codec.encode(key) == b"\x05" + codec.map_key(key)
        value = {"a": (1, -1)}
        assert codec.encode({key: value}) == codec.map_header(1) + codec.map_key(key) + codec.encode(value)
    for n in (0, 2, 127, 128):
        assert codec.map_header(n) == codec.encode({f"{i:04d}": None for i in range(n)})[: len(codec.map_header(n))]


def test_object_with_wire_bytes_encodes_as_them():
    class Carrier:
        wire_bytes = codec.encode(("x", 1))

    class NotBytes:
        wire_bytes = "not bytes"

    assert codec.encode(("env", Carrier(), 2)) == codec.encode(("env", ("x", 1), 2))
    with pytest.raises(CodecError):
        codec.encode(NotBytes())


message_bytes = st.binary(max_size=40)
message_ints = st.integers(min_value=0, max_value=2**64) | boundary_ints.filter(lambda n: n >= 0)
replyx_outputs = st.recursive(
    st.none() | st.booleans() | st.integers(min_value=-(2**80), max_value=2**80)
    | st.binary(max_size=200) | st.text(min_size=0, max_size=150),
    lambda children: st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=140), children, max_size=4),
    max_leaves=12,
)


@st.composite
def sent_messages(draw):
    from repro.crypto.hashing import digest
    from repro.lpbft.messages import Commit, PrePrepare, Prepare, Reply, ReplyX, TransactionRequest
    from repro.merkle import MerkleTree

    request = TransactionRequest(
        procedure=draw(st.text(max_size=140)),
        args=draw(st.dictionaries(st.text(max_size=140), replyx_outputs, max_size=4)),
        client=draw(message_bytes), service=draw(message_bytes),
        min_index=draw(message_ints), nonce=draw(message_ints),
    ).with_signature(draw(st.binary(max_size=200)))
    pp = PrePrepare(
        view=draw(message_ints), seqno=draw(message_ints), root_m=draw(message_bytes),
        root_g=draw(message_bytes), nonce_commitment=draw(message_bytes),
        evidence_bitmap=draw(message_ints), gov_index=draw(message_ints),
        checkpoint_digest=draw(message_bytes), flags=draw(st.integers(0, 3)),
        committed_root=draw(message_bytes), signature=draw(st.binary(max_size=200)),
    )
    prepare = Prepare(
        replica=draw(message_ints), nonce_commitment=draw(message_bytes),
        pp_digest=draw(message_bytes), signature=draw(st.binary(max_size=200)),
    )
    commit = Commit(view=draw(message_ints), seqno=draw(message_ints),
                    replica=draw(message_ints), nonce=draw(message_bytes))
    reply = Reply(view=draw(message_ints), seqno=draw(message_ints), replica=draw(message_ints),
                  signature=draw(message_bytes), nonce=draw(message_bytes))
    size = draw(st.integers(min_value=1, max_value=40))
    tree = MerkleTree([digest(bytes([i])) for i in range(size)])
    path = tree.path(draw(st.integers(min_value=0, max_value=size - 1)))
    index, output = draw(message_ints), draw(replyx_outputs)
    from repro.ledger.entries import io_bytes

    io = draw(st.sampled_from([None, io_bytes(index, output)]))
    replyx = ReplyX.for_tx(pp, draw(message_bytes), index, output, path, io)
    return [("request", request), ("pre-prepare", pp), ("prepare", prepare),
            ("commit", commit), ("reply", reply), ("replyx", replyx)]


@given(sent_messages())
def test_property_sent_messages_encode_as_their_wire_tuples(messages):
    for kind, message in messages:
        expected = _reference_encode(message.to_wire())
        assert message.wire_bytes == expected
        assert codec.encode(message.to_wire()) == expected
        assert codec.encode((kind, message)) == codec.encode((kind, message.to_wire()))
        assert codec.encode((kind, message, (b"d" * 32,))) == codec.encode(
            (kind, message.to_wire(), (b"d" * 32,)))
