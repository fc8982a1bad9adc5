"""Decode once: receivers share the sender's immutable message object.

Correct nodes put the message object itself into the envelope, and a
handler uses it as it is when it has the expected type; anything else goes
through ``from_wire``.  The differential test runs the same SmallBank
deployment twice — as is, and with a network hook that swaps every
message object for its wire tuple before it is sent — and requires the
same ledgers, receipts and traffic.  The swapped run is also the proof
that every handler still takes the raw tuple of its kind.
"""

from __future__ import annotations

from collections import Counter

import pytest

from helpers import build_deployment
from repro import codec
from repro.errors import ProtocolError
from repro.ledger import TxEntry
from repro.lpbft.messages import (
    Commit,
    PrePrepare,
    Prepare,
    Reply,
    ReplyX,
    TransactionRequest,
    as_message,
)
from repro.workloads import SmallBankWorkload

OBJECT_KINDS = {"request", "pre-prepare", "prepare", "commit", "reply", "replyx"}


def _hook_network(net, swap: bool) -> Counter:
    """Count the envelopes that carry a message object, per kind; with
    ``swap`` replace the object by its wire tuple before sending."""
    transmit = net.transmit
    carried: Counter = Counter()

    def hooked(src, dst, msg, size=None):
        if type(msg) is tuple and len(msg) > 1 and hasattr(msg[1], "wire_bytes"):
            carried[msg[0]] += 1
            if swap:
                msg = (msg[0], msg[1].to_wire(), *msg[2:])
        transmit(src, dst, msg, size)

    net.transmit = hooked
    return carried


def _run(swap: bool):
    dep = build_deployment()
    carried = _hook_network(dep.net, swap)
    clients = [dep.add_client(retry_timeout=0.3) for _ in range(2)]
    # Drop every replyx for a while: clients retransmit their requests and
    # ask other replicas for the replyx, which then comes from a record
    # whose cached parts are gone.
    dep.net.add_drop_rule(lambda src, dst, msg: msg[0] == "replyx" and dep.net.scheduler.now < 0.2)
    dep.start()
    wl = SmallBankWorkload(n_accounts=200, seed=11)
    digests = []
    for wave in range(3):
        for client in clients:
            digests += [(client, client.submit(*wl.next_transaction(), min_index=0)) for _ in range(15)]
        dep.run(until=dep.net.scheduler.now + 0.1)
    dep.run(until=4.0)
    receipts = {}
    for client, tx_digest in digests:
        receipt = client.receipt_for(tx_digest)
        assert receipt is not None
        receipts[tx_digest] = receipt.to_wire()
    roots = [(r.ledger.root(), len(r.ledger), r.committed_upto) for r in dep.replicas]
    retries = sum(c.metrics.counter_value("request_retries") for c in clients)
    return dep, carried, roots, receipts, retries


@pytest.fixture(scope="module")
def runs():
    return _run(swap=False), _run(swap=True)


def test_wire_tuples_give_identical_outcomes(runs):
    (dep_a, carried_a, roots_a, receipts_a, retries_a), (dep_b, carried_b, roots_b, receipts_b, retries_b) = runs
    assert retries_a > 0  # the retransmission path ran
    assert roots_a == roots_b
    assert len({root for root, _, _ in roots_a}) == 1
    assert receipts_a == receipts_b
    assert retries_a == retries_b
    assert dep_a.net.bytes_sent == dep_b.net.bytes_sent
    assert dep_a.net.messages_sent == dep_b.net.messages_sent
    assert dep_a.net.messages_unsized == dep_b.net.messages_unsized == 0


def test_every_object_kind_was_sent_and_swapped(runs):
    (_, carried_a, *_), (_, carried_b, *_) = runs
    assert set(carried_a) == OBJECT_KINDS
    assert carried_a == carried_b  # the swapped run handled each as a tuple


@pytest.mark.parametrize("cls", [TransactionRequest, PrePrepare, Prepare, Commit, Reply, ReplyX])
def test_as_message_shares_objects_and_decodes_tuples(cls, runs):
    dep = runs[0][0]
    replica = dep.replicas[1]
    record = replica.batches[max(replica.batches)]
    tio, tx_digest = next((t, d) for t, d in zip(record.tios, record.tx_digests) if d is not None)
    samples = {
        TransactionRequest: TransactionRequest.from_wire(tio[0]),
        PrePrepare: record.pp,
        Prepare: next(iter(replica.prepares_by_ppd[record.pp_digest].values())),
        Commit: Commit(view=record.view, seqno=record.seqno, replica=2, nonce=b"\x01" * 32),
        Reply: replica._build_reply(record),
        ReplyX: ReplyX.for_tx(record.pp, tx_digest, tio[1], tio[2], record.g_tree.path(0)),
    }
    message = samples[cls]
    assert as_message(cls, message) is message
    decoded = as_message(cls, message.to_wire())
    assert decoded == message and decoded is not message
    assert decoded.wire_bytes == message.wire_bytes
    assert codec.decode(message.wire_bytes) == message.to_wire()
    with pytest.raises(ProtocolError):
        as_message(cls, ("not-a-message",))


def test_replicas_share_the_request_and_its_wire_tuple(runs):
    dep = runs[0][0]
    ledgers = [r.ledger for r in dep.replicas]
    shared = 0
    for index in range(len(ledgers[0])):
        entries = [ledger.entries(index, index + 1)[0] for ledger in ledgers]
        if isinstance(entries[0], TxEntry):
            assert all(e.request_wire is entries[0].request_wire for e in entries)
            shared += 1
    assert shared >= 90
    # In the swapped run every replica decoded its own copy.
    ledger_b = runs[1][0].replicas[0].ledger
    entry_b = next(e for e in ledger_b.entries(0, len(ledger_b)) if isinstance(e, TxEntry))
    others = [r.ledger.entries(0, len(r.ledger)) for r in runs[1][0].replicas[1:]]
    assert all(entry_b.request_wire is not e.request_wire for entries in others for e in entries
               if isinstance(e, TxEntry))
