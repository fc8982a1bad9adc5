"""Encode once: every digest composed from cached encodings equals
``digest_value`` of the full structure it stands for.

Requests cache their signed-field encoding, wire bytes and ``H(t)``;
replicas derive the G leaf and the ``tx`` ledger-entry digest from one
shared encoded tail; the network sizes a broadcast once, and a request
message from the request's cached wire bytes.  These tests check
each shortcut against the plain codec over generated SmallBank traffic.
"""

from __future__ import annotations

import random

import pytest

from helpers import build_deployment, run_workload
from repro import codec
from repro.crypto.hashing import digest_value
from repro.kvstore.store import _ACC_MODULUS, entry_accumulator_term, state_accumulator
from repro.ledger import TxEntry
from repro.ledger.entries import entry_from_wire, tx_leaf_digests
from repro.lpbft.messages import TransactionRequest
from repro.merkle import MerkleTree
from repro.network import Node, SimNetwork
from repro.workloads import SmallBankWorkload


def _requests(n: int = 60, seed: int = 5) -> list[TransactionRequest]:
    rng = random.Random(seed)
    wl = SmallBankWorkload(n_accounts=500_000, seed=seed)
    out = []
    for nonce in range(1, n + 1):
        procedure, args = wl.next_transaction()
        request = TransactionRequest(
            procedure=procedure,
            args=args,
            client=rng.randbytes(32),
            service=rng.randbytes(32),
            min_index=rng.choice([0, 1, 63, 64, 200, 70_000]),
            nonce=nonce,
        )
        out.append(request.with_signature(rng.randbytes(rng.choice([0, 64, 200]))))
    return out


def test_request_digest_is_digest_of_wire():
    for request in _requests():
        assert request.wire_bytes == codec.encode(request.to_wire())
        assert request.request_digest() == digest_value(request.to_wire())


def test_signed_payload_is_encoding_of_signed_fields():
    for request in _requests():
        r = request
        expected = codec.encode(("request", r.procedure, r.args, r.client, r.service, r.min_index, r.nonce))
        assert r.signed_payload() == expected


def test_with_signature_yields_new_digest():
    for request in _requests(20):
        resigned = request.with_signature(request.signature + b"\x01")
        assert resigned.signed_payload() == request.signed_payload()
        assert resigned.request_digest() != request.request_digest()
        assert resigned.request_digest() == digest_value(resigned.to_wire())


def test_rebuilt_request_has_same_cached_values():
    for request in _requests(20):
        rebuilt = TransactionRequest.from_wire(request.to_wire())
        assert rebuilt.signed_payload() == request.signed_payload()
        assert rebuilt.wire_bytes == request.wire_bytes
        assert rebuilt.request_digest() == request.request_digest()


@pytest.mark.parametrize("index", [0, 1, 63, 64, 16384, 2**40])
def test_tx_leaf_digests_match_full_structures(index):
    outputs = [
        {"reply": {"ok": True, "balance": 9975}, "ws": b"\xaa" * 32},
        {"reply": {"ok": False, "error": "insufficient funds"}, "ws": b"\x00" * 32},
        None,
        (-5, "x", b""),
    ]
    for request, output in zip(_requests(len(outputs)), outputs):
        g_leaf, entry_digest = tx_leaf_digests(request.wire_bytes, index, output)
        assert g_leaf == digest_value((request.to_wire(), index, output))
        assert entry_digest == digest_value(("tx", request.to_wire(), index, output))


@pytest.fixture(scope="module")
def executed_deployment():
    dep = build_deployment()
    client = dep.add_client(retry_timeout=0.5)
    dep.start()
    digests = run_workload(dep, client, n_tx=60, until=4.0)
    assert all(client.receipt_for(d) is not None for d in digests)
    return dep


def test_g_tree_leaves_are_digests_of_tios(executed_deployment):
    checked = 0
    for replica in executed_deployment.replicas:
        for record in replica.batches.values():
            if not record.tios:
                continue
            rebuilt = MerkleTree()
            for tio in record.tios:
                rebuilt.append(digest_value(tio))
            assert rebuilt.root() == record.g_tree.root()
            checked += 1
    assert checked > 0


def test_installed_tx_entries_carry_the_full_digest(executed_deployment):
    checked = 0
    for replica in executed_deployment.replicas:
        for entry in replica.ledger.entries(0, len(replica.ledger)):
            if not isinstance(entry, TxEntry):
                continue
            assert entry.known_digest is not None  # built by _install_batch
            assert entry.digest() == digest_value(entry.to_wire())
            assert entry_from_wire(entry.to_wire()).digest() == entry.digest()
            checked += 1
    assert checked >= 60


def test_rebuilt_tx_entry_hashes_its_wire_form():
    request = _requests(1)[0]
    entry = TxEntry(request_wire=request.to_wire(), index=7, output={"ok": True})
    assert entry.known_digest is None
    assert entry.digest() == digest_value(entry.to_wire())


def test_state_accumulator_matches_per_entry_terms():
    items = [
        ("c:1", 10_000), ("s:1", 10_000), ("c:2", 0), ("c:3", -7), ("c:4", 2**70),
        ("flag", True), ("name", "é"), ("blob", b"\x01\x02"), ("map", {"a": (1, 2)}), ("none", None),
    ]
    expected = sum(entry_accumulator_term(k, v) for k, v in items) % _ACC_MODULUS
    assert state_accumulator(items) == expected
    assert state_accumulator([]) == 0


def test_normal_run_sizes_every_message(executed_deployment):
    net = executed_deployment.net
    assert net.messages_sent > 0
    assert net.messages_unsized == 0


class _Sink(Node):
    def on_message(self, src, msg):
        pass


def _network(size_of=None):
    net = SimNetwork(size_of=size_of)
    nodes = [_Sink(f"n{i}") for i in range(4)]
    for node in nodes:
        net.register(node)
    return net, nodes


def test_broadcast_is_sized_once():
    calls = []

    def size_of(msg):
        calls.append(msg)
        return 100

    net, nodes = _network(size_of)
    msg = ("prepare", (1, 2, b"x"))
    nodes[0].broadcast([n.address for n in nodes], msg)
    assert len(calls) == 1
    assert net.bytes_sent == 300
    nodes[0].send("n1", msg[:1] + msg[1:])  # an equal message, but a new object
    assert len(calls) == 2


def test_unencodable_message_is_counted():
    net, nodes = _network()
    nodes[0].send("n1", ("bad", object()))
    assert net.messages_unsized == 1
    assert net.bytes_sent == 256
    nodes[0].send("n1", ("good", 1))
    assert net.messages_unsized == 1
    assert net.bytes_sent == 256 + len(codec.encode(("good", 1)))


def test_client_request_message_size_matches_codec():
    dep = build_deployment()
    client = dep.add_client()
    dep.start()
    before = dep.net.bytes_sent
    tx_digest = client.submit("smallbank.balance", {"customer": 3})
    wire = client.collector.request_wire(tx_digest)
    expected = len(codec.encode(("request", wire)))
    assert dep.net.bytes_sent - before == len(dep.replicas) * expected
