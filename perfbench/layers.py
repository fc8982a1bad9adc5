"""Per-layer tracing from outside the program.

:class:`SpanRecorder` wraps the public entry points of each ``repro``
layer and records one span per call — name, start, end and parent — in
compact in-memory arrays.  A layer's *self time* is a span's duration
minus the part of it that wrapped child calls cover, accumulated per span
name as the spans close.  The wrappers only time and count: they never
touch arguments or results, so the traced run's simulated outcomes must
equal the untraced run's (the benchmark checks this).

Layer entry points are wrapped where callers reach them:

- module functions (``codec.encode``, ``hashing.digest*``,
  ``verify_receipt``, ``verify_chain``, ...) are replaced at *every*
  module attribute bound to them, because many modules import them by
  name;
- methods are replaced on their class, which covers every instance;
- the network's size function is captured by each ``SimNetwork`` at
  construction, so it is replaced on the live instance.
"""

from __future__ import annotations

import functools
import struct
import sys
import time
from array import array

MAX_STORED_SPANS = 8_000_000  # ~200 MB of arrays; later spans are only aggregated


class SpanRecorder:
    """In-memory spans plus per-name aggregates (calls, self and
    inclusive host seconds, bytes)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.starts = array("d")
        self.ends = array("d")
        self.name_ids = array("H")
        self.parents = array("i")
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.incl_s: list[float] = []
        self.nbytes: list[int] = []
        self.dropped = 0
        self._stack: list[list] = []  # [span index, seconds covered by children]
        self._restore: list[tuple[object, str, object]] = []

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.incl_s.append(0.0)
            self.nbytes.append(0)
        return nid

    def wrap(self, name, fn, key=None, size=None):
        """A timing wrapper around ``fn``.  ``key(args)`` (optional) names
        the span ``name + key`` per call; ``size(args, result)``
        (optional) adds to the span name's byte count."""
        nid0 = self.intern(name) if key is None else None
        keyed: dict = {}
        perf = time.perf_counter
        starts, ends, name_ids, parents = self.starts, self.ends, self.name_ids, self.parents
        stack, calls, self_s, incl_s, nbytes = (
            self._stack, self.calls, self.self_s, self.incl_s, self.nbytes)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if key is None:
                nid = nid0
            else:
                k = key(args)
                nid = keyed.get(k)
                if nid is None:
                    nid = keyed[k] = self.intern(f"{name}{k}")
            idx = len(starts)
            if idx < MAX_STORED_SPANS:
                parents.append(stack[-1][0] if stack else -1)
                name_ids.append(nid)
                ends.append(0.0)
                starts.append(0.0)
            else:
                idx = -1
                self.dropped += 1
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                if idx >= 0:
                    starts[idx] = t0
                    ends[idx] = t1
                calls[nid] += 1
                incl_s[nid] += dur
                self_s[nid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if size is not None:
                nbytes[nid] += size(args, result)
            return result

        return traced

    # -- installing wrappers ------------------------------------------------

    def patch_function(self, original, name, **kw) -> None:
        """Replace ``original`` at every ``repro`` module attribute bound
        to it."""
        traced = self.wrap(name, original, **kw)
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "repro" or modname.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, traced)

    def patch_method(self, cls, method: str, name, **kw) -> None:
        original = getattr(cls, method)
        self._restore.append((cls, method, cls.__dict__.get(method, _ABSENT)))
        setattr(cls, method, self.wrap(name, original, **kw))

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self._restore):
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    # -- reading ------------------------------------------------------------

    def totals(self) -> dict[str, tuple[int, float, float, int]]:
        """name -> (calls, self seconds, inclusive seconds, bytes)."""
        return {
            n: (self.calls[i], self.self_s[i], self.incl_s[i], self.nbytes[i])
            for i, n in enumerate(self.names)
        }

    def write(self, path) -> int:
        """Write the spans to a little-endian binary file: one line of
        tab-separated span names, the span count as u64, then four columns
        of that length — start f64, end f64 (``perf_counter`` seconds),
        name index u16 and parent span index i32 (-1 for none).  Returns
        the number of spans written."""
        n = len(self.starts)
        with open(path, "wb") as out:
            out.write(("\t".join(self.names) + "\n").encode())
            out.write(struct.pack("<Q", n))
            for column in (self.starts, self.ends, self.name_ids, self.parents):
                if sys.byteorder != "little":
                    column = array(column.typecode, column)
                    column.byteswap()
                column.tofile(out)
        return n


_ABSENT = object()


def install(rec: SpanRecorder) -> None:
    """Wrap the public entry points of every layer named in the README."""
    from repro import codec
    from repro.audit import package as audit_package
    from repro.audit import replay as audit_replay
    from repro.crypto import hashing, signatures
    from repro.kvstore.store import KVStore
    from repro.ledger.ledger import Ledger
    from repro.lpbft import replica as replica_mod
    from repro.lpbft.viewchange import LPBFTReplica
    from repro.merkle.tree import MerkleTree
    from repro.network.simnet import SimNetwork
    from repro.receipts import chain as receipt_chain
    from repro.receipts import receipt as receipt_mod
    from repro.receipts.collector import ReceiptCollector
    from repro.sim.cpu import VirtualCPU
    from repro.sim.scheduler import EventScheduler
    from repro.statesync.client import StateSyncClient
    from repro.statesync.server import StateSyncServer

    rec.patch_function(codec.encode, "codec.encode", size=lambda a, r: len(r))
    rec.patch_function(codec.decode, "codec.decode", size=lambda a, r: len(a[0]))
    for fn in ("digest", "digest_pair", "digest_value"):
        rec.patch_function(getattr(hashing, fn), f"crypto.hash.{fn}")
    backend = signatures.HashSigBackend
    rec.patch_method(backend, "sign", "crypto.sign")
    rec.patch_method(backend, "verify", "crypto.verify.backend")
    rec.patch_method(backend, "aggregate", "crypto.aggregate")
    rec.patch_method(backend, "verify_aggregate", "crypto.verify.aggregate")
    rec.patch_method(signatures.SignatureVerifyCache, "verify", "crypto.verify.cache")
    rec.patch_method(signatures.SignatureVerifyCache, "verify_batch", "crypto.verify.cache_batch")
    rec.patch_function(signatures.verify_batch, "crypto.verify.batch")
    for method in ("append", "root_at", "path"):
        rec.patch_method(MerkleTree, method, f"merkle.{method}")
    rec.patch_method(KVStore, "execute", "kvstore.execute")
    rec.patch_function(replica_mod.execute_procedure, "kvstore.execute_procedure")
    for method in ("restore", "state_digest"):
        rec.patch_method(KVStore, method, f"kvstore.{method}")
    rec.patch_method(Ledger, "append", "ledger.append")
    rec.patch_method(Ledger, "truncate_below", "ledger.truncate_below")
    rec.patch_method(SimNetwork, "transmit", "network.transmit")
    rec.patch_method(EventScheduler, "step", "sim.step")
    rec.patch_method(VirtualCPU, "submit", "sim.cpu_submit")
    rec.patch_method(LPBFTReplica, "on_message", "lpbft.handler.", key=lambda a: a[2][0])
    rec.patch_method(ReceiptCollector, "add_reply", "receipts.add_reply")
    rec.patch_method(ReceiptCollector, "add_replyx", "receipts.add_replyx")
    rec.patch_function(receipt_mod.verify_receipt, "receipts.verify_receipt")
    for method in ("start", "abort", "on_offer", "on_manifest", "on_chunk",
                   "on_ledger_refused", "on_ledger"):
        rec.patch_method(StateSyncClient, method, f"statesync.client.{method}")
    for method in ("on_probe", "on_get_manifest", "on_get_chunk", "on_get_ledger"):
        rec.patch_method(StateSyncServer, method, f"statesync.server.{method}")
    rec.patch_function(receipt_chain.verify_chain, "audit.verify_chain")
    rec.patch_function(audit_package.build_ledger_package, "audit.build_ledger_package")
    rec.patch_function(audit_replay.replay_ledger, "audit.replay_ledger")


def instrument_network(rec: SpanRecorder, net) -> None:
    """Wrap a live network's size function (captured at construction)."""
    net._size_of = rec.wrap("network.size_of", net._size_of)  # noqa: SLF001
