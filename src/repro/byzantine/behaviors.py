"""Byzantine replica behaviors (paper §2 threat model).

A behavior object plugs into :class:`~repro.lpbft.LPBFTReplica` and
intercepts the replica's interactions: transaction outputs, outgoing
protocol messages, and the ledger package handed to the enforcer.  The
base :class:`Behavior` passes everything through; subclasses override the
hooks they attack with.  All behaviors sign with the replica's *own* keys
— the simulator never forges another party's signature, matching the
paper's assumption that cryptography is unbreakable.
"""

from __future__ import annotations

from typing import Any, Callable


class Behavior:
    """Pass-through base; override hooks to misbehave.

    Hooks returning ``None`` suppress the message; returning a modified
    payload substitutes it.  ``mutate_output`` runs during early
    execution, so a tampering replica really commits the wrong result to
    its ledger and Merkle trees.

    The ``outgoing_*`` payloads may carry message objects rather than
    wire tuples: ``(kind, message, ...)`` where ``message`` is the
    immutable :class:`~repro.lpbft.messages.PrePrepare`, ``Prepare``,
    ``Commit``, ``Reply`` or ``ReplyX`` the replica built.  A hook must not
    modify such an object, since receivers share it.  To tamper, it
    substitutes a wire tuple (``message.to_wire()``, edited) or a new
    object (``dataclasses.replace``); receivers decode tuples with
    ``from_wire``.
    """

    def mutate_output(self, replica, request, output: dict) -> dict:
        return output

    def outgoing_pre_prepare(self, replica, dst: str, payload: tuple) -> tuple | None:
        return payload

    def outgoing_prepare(self, replica, dst: str, payload: tuple) -> tuple | None:
        return payload

    def outgoing_commit(self, replica, dst: str, payload: tuple) -> tuple | None:
        return payload

    def outgoing_reply(self, replica, dst: str, payload: tuple) -> tuple | None:
        return payload

    def outgoing_replyx(self, replica, dst: str, payload: tuple) -> tuple | None:
        return payload

    def outgoing_view_change(self, replica, dst: str, payload: tuple) -> tuple | None:
        return payload

    def outgoing_sync_chunk(self, replica, dst: str, payload: tuple) -> tuple | None:
        return payload

    def provide_ledger_package(self, replica, package):
        return package


class TamperExecution(Behavior):
    """Corrupt the results of selected transactions (§6.5 scenario:
    ``N − f`` or more replicas collude on a wrong result — give every
    replica the same behavior and the wrong answer commits, receipts and
    all; only replay catches it).

    ``selector`` picks victim requests; ``mutate`` rewrites the reply.
    The write-set digest is left as executed, so the ledger remains
    internally plausible.
    """

    def __init__(
        self,
        selector: Callable[[Any], bool] | None = None,
        mutate: Callable[[dict], dict] | None = None,
        procedure: str | None = None,
    ) -> None:
        self.selector = selector
        self.procedure = procedure
        self.mutate = mutate or (lambda reply: {**reply, "tampered": True})
        self.tampered = 0

    def mutate_output(self, replica, request, output: dict) -> dict:
        victim = True
        if self.procedure is not None:
            victim = request.procedure == self.procedure
        if victim and self.selector is not None:
            victim = self.selector(request)
        if not victim:
            return output
        self.tampered += 1
        reply = output.get("reply")
        return {**output, "reply": self.mutate(reply if isinstance(reply, dict) else {})}


class SilentReplica(Behavior):
    """Send nothing at all — models a crashed or muzzled replica."""

    def outgoing_pre_prepare(self, replica, dst, payload):
        return None

    def outgoing_prepare(self, replica, dst, payload):
        return None

    def outgoing_commit(self, replica, dst, payload):
        return None

    def outgoing_reply(self, replica, dst, payload):
        return None

    def outgoing_replyx(self, replica, dst, payload):
        return None

    def outgoing_view_change(self, replica, dst, payload):
        return None


class SuppressReceipts(Behavior):
    """Deliver replies but never the designated ``replyx`` — a liveness
    attack on receipts; clients fail over to other replicas (§3.3)."""

    def outgoing_replyx(self, replica, dst, payload):
        return None


class UnresponsiveToAudit(Behavior):
    """Participate normally but refuse to produce a ledger for auditing —
    the §4.2 case where the enforcer punishes the operating member."""

    def provide_ledger_package(self, replica, package):
        return None


class LedgerRewriter(Behavior):
    """Serve the enforcer a doctored ledger: outputs of selected
    transactions are rewritten in the fragment (the signed pre-prepares
    cannot be fixed up without the other replicas' keys, so the fraud is
    structurally detectable — exactly the paper's point that "even if the
    ledger is rewritten, the misbehaving replicas are unable to alter the
    receipts")."""

    def __init__(self, victim_index: int, new_output: dict) -> None:
        self.victim_index = victim_index
        self.new_output = new_output

    def provide_ledger_package(self, replica, package):
        doctored = []
        for wire in package.fragment.entry_wires:
            if wire[0] == "tx" and wire[2] == self.victim_index:
                doctored.append(("tx", wire[1], wire[2], self.new_output))
            else:
                doctored.append(wire)
        from ..ledger import LedgerFragment
        from ..audit.package import LedgerPackage

        return LedgerPackage(
            fragment=LedgerFragment(start=package.fragment.start, entry_wires=tuple(doctored)),
            checkpoint=package.checkpoint,
            subledger=package.subledger,
            source_replica=package.source_replica,
            extra_evidence=package.extra_evidence,
            frontier=package.frontier,
        )


class TamperSyncChunks(Behavior):
    """Serve corrupted state-sync chunks — a Byzantine server trying to
    poison a recovering peer's checkpoint.  The client rejects every
    tampered chunk against the manifest digest and fails over to another
    server, so this is (provably) only a liveness attack."""

    def __init__(self, flip_chunk: int | None = None) -> None:
        self.flip_chunk = flip_chunk  # None = tamper every chunk
        self.tampered = 0

    def outgoing_sync_chunk(self, replica, dst, payload):
        tag, cp_seqno, index, chunk = payload
        if self.flip_chunk is not None and index != self.flip_chunk:
            return payload
        self.tampered += 1
        doctored = bytes(chunk[:-1]) + bytes([chunk[-1] ^ 0x01]) if chunk else b"\x01"
        return (tag, cp_seqno, index, doctored)


class EquivocatingPrimary(Behavior):
    """Send different pre-prepares to different backups: backups in
    ``victims`` receive a batch whose transaction outputs are tampered.
    With honest backups this only stalls progress (root mismatch → view
    change); with enough colluders it forks the service — either way the
    signed pre-prepares are equivocation evidence.

    ``mutate`` receives the payload ``("pre-prepare", pp, digests)``,
    whose ``pp`` is the shared :class:`~repro.lpbft.messages.PrePrepare`
    object.  It returns a new payload and must leave ``pp`` unchanged."""

    def __init__(self, victims: set[str], mutate: Callable[[tuple], tuple]) -> None:
        self.victims = set(victims)
        self.mutate = mutate
        self.sent: list[tuple] = []

    def outgoing_pre_prepare(self, replica, dst, payload):
        if dst in self.victims:
            mutated = self.mutate(payload)
            self.sent.append(mutated)
            return mutated
        return payload
