"""Chained HotStuff baseline (paper §6 — Yin et al. 2019, libhotstuff).

A pipelined, stable-leader, three-chain HotStuff: each proposal carries a
quorum certificate for its parent, the leader proposes the next block as
soon as the previous block's votes form a QC (one block per vote round
trip), and a block commits when it heads a three-block chain.  This
reproduces the two properties the paper measures against:

- *throughput* ≈ batch size per round trip when network-bound (the WAN
  result of Fig. 5) or per-command leader CPU when compute-bound (the
  dedicated-cluster result of Tab. 3); and
- *latency* ≈ 4.5 round trips under low load (Tab. 2): client → leader,
  three chained vote rounds to commit, reply.

HotStuff here has no ledger, key-value store, or receipts — the paper
compares against it as "a BFT consensus protocol without a ledger or
key-value store".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..crypto import signatures
from ..crypto.hashing import Digest, digest_value
from ..network import Node, SimNetwork, constant_latency
from ..network.latency import LatencyModel
from ..sim.costs import CostModel
from ..sim.metrics import MetricsCollector


@dataclass
class HotStuffParams:
    """Tunables for the HotStuff baseline."""

    batch_size: int = 400  # libhotstuff default
    # Per-command leader processing (deserialize, hash, queue) — the
    # compute-bound throughput knob (the Fig. 5 and Tab. 3 benches in
    # docs/BENCHMARKS.md compare IA-CCF against it).
    per_command_cost: float = 2.6e-6
    sign_client_requests: bool = False  # libhotstuff benchmarks use raw cmds
    chain_depth: int = 3  # blocks to chain before commit


@dataclass
class _Block:
    height: int
    cmds: list  # (cmd_id, client_addr, submitted_at)
    proposed_at: float
    votes: set = field(default_factory=set)
    certified: bool = False
    committed: bool = False


class HotStuffReplica(Node):
    """One HotStuff replica; ``replica_id == 0`` is the stable leader."""

    def __init__(
        self,
        replica_id: int,
        n_replicas: int,
        params: HotStuffParams,
        costs: CostModel,
        keypair: signatures.KeyPair,
        metrics: MetricsCollector | None = None,
        site: str = "local",
        backend: signatures.SignatureBackend | None = None,
    ) -> None:
        super().__init__(address=f"hs-replica-{replica_id}", site=site, cores=costs.cores)
        self.id = replica_id
        self.n = n_replicas
        self.f = (n_replicas + 2) // 3 - 1
        self.quorum = n_replicas - self.f
        self.params = params
        self.costs = costs
        self.keypair = keypair
        self.metrics = metrics or MetricsCollector()
        self.backend = backend or signatures.default_backend()
        self.is_leader = replica_id == 0
        self.pending: list = []  # leader: queued commands
        self.blocks: dict[int, _Block] = {}
        self.next_height = 1
        self.awaiting_qc = False

    def peer_addresses(self) -> list[str]:
        return [f"hs-replica-{i}" for i in range(self.n) if i != self.id]

    def on_message(self, src: str, msg: Any) -> None:
        self.submit("message", self.costs.message_overhead + self.costs.mac)
        kind = msg[0]
        if kind == "cmds":
            self._handle_commands(src, msg)
        elif kind == "propose":
            self._handle_proposal(src, msg)
        elif kind == "vote":
            self._handle_vote(src, msg)

    # -- leader ----------------------------------------------------------------

    def _handle_commands(self, src: str, msg: tuple) -> None:
        """Accept a pipelined bundle of commands from a client (libhotstuff
        clients pipeline many outstanding commands per connection).  The
        admission queue stays bounded (the baseline's semantics); shed
        commands are counted under the unified ``requests_shed`` name and
        rejected back to the client so it can back off."""
        if not self.is_leader:
            return
        accepted = 0
        cmd_ids = msg[1]
        for cmd_id in cmd_ids:
            if len(self.pending) >= 8 * self.params.batch_size:
                break  # bounded admission queue
            self.pending.append((cmd_id, src, self.now))
            accepted += 1
        shed = len(cmd_ids) - accepted
        if shed:
            self.metrics.bump("requests_shed", shed)
            self.send(src, ("reject", tuple(cmd_ids[accepted:])))
        if accepted:
            self.metrics.bump("requests_admitted", accepted)
            self.metrics.admitted.record(self.now, accepted)
            self.submit("message", accepted * self.params.per_command_cost)
            if self.params.sign_client_requests:
                # The bundle's client signatures arrive together: release
                # them as one batch so they fan out across lanes.
                self.submit_many("verify", [self.costs.verify] * accepted)
        self._maybe_propose()

    def _maybe_propose(self) -> None:
        """Chained pipelining: one proposal per certified parent."""
        if not self.is_leader or self.awaiting_qc or not self.pending:
            return
        height = self.next_height
        cmds = self.pending[: self.params.batch_size]
        del self.pending[: len(cmds)]
        block = _Block(height=height, cmds=cmds, proposed_at=self.now)
        block.votes.add(self.id)
        self.blocks[height] = block
        self.next_height += 1
        self.awaiting_qc = True
        # Sign the proposal (carrying the parent's QC).
        self.submit("sign", self.costs.sign)
        payload = ("propose", height, len(cmds), digest_value((height, len(cmds))))
        self.broadcast(self.peer_addresses(), payload, size=64 + 80 * max(1, len(cmds)))
        self.metrics.bump("blocks_proposed")

    def _handle_vote(self, src: str, msg: tuple) -> None:
        if not self.is_leader:
            return
        height, voter = msg[1], msg[2]
        block = self.blocks.get(height)
        if block is None or block.certified:
            return
        # Verify the vote signature (fans out across CPU lanes).
        self.submit("verify", self.costs.verify)
        self.metrics.bump("votes_verified")
        block.votes.add(voter)
        if len(block.votes) >= self.quorum:
            block.certified = True
            self.awaiting_qc = False
            self._advance_commit(height)
            self._maybe_propose()

    def _advance_commit(self, certified_height: int) -> None:
        """Three-chain rule: certifying height h commits h − depth + 1."""
        commit_height = certified_height - (self.params.chain_depth - 1)
        block = self.blocks.get(commit_height)
        if block is None or block.committed:
            return
        block.committed = True
        self.metrics.bump("blocks_committed")
        self.metrics.throughput.record_commit(self.cpu_time(), len(block.cmds))
        by_client: dict[str, list] = {}
        for cmd_id, client, submitted_at in block.cmds:
            by_client.setdefault(client, []).append((cmd_id, submitted_at))
        for client, items in by_client.items():
            self.send(client, ("reply", tuple(items)))
        # Free memory for long runs.
        self.blocks.pop(commit_height - 10, None)

    # -- replicas -----------------------------------------------------------------

    def _handle_proposal(self, src: str, msg: tuple) -> None:
        height, n_cmds = msg[1], msg[2]
        # Verify the leader's signature and the embedded QC.
        self.submit_many("verify", [self.costs.verify] * 2)
        self.submit("message", self.params.per_command_cost * n_cmds / 8)
        # Sign and return a vote.
        self.submit("sign", self.costs.sign)
        self.send(src, ("vote", height, self.id))
        self.metrics.bump("votes_sent")


class HotStuffClient(Node):
    """Open-loop client for the HotStuff baseline: commands arrive per a
    seeded :class:`~repro.workloads.loadgen.ArrivalProcess` (default:
    fixed-rate) and are pipelined to the leader in per-tick bundles."""

    def __init__(
        self,
        name: str,
        leader: str,
        rate: float,
        metrics: MetricsCollector | None = None,
        site: str = "local",
        stop_at: float | None = None,
        arrivals=None,
    ) -> None:
        super().__init__(address=name, site=site)
        from ..workloads.loadgen import default_arrivals

        self.leader = leader
        self.rate = rate
        self.arrivals = default_arrivals(arrivals, rate)
        self.metrics = metrics or MetricsCollector()
        self.stop_at = stop_at
        self.recording = True
        self._counter = 0
        self.completed = 0

    def on_start(self) -> None:
        if self.arrivals is not None:
            self.set_timer(0.0, self._tick)

    def _tick(self) -> None:
        if self.stop_at is not None and self.now >= self.stop_at:
            return
        due = self.arrivals.due(self.now)
        if due:
            bundle = tuple(range(self._counter + 1, self._counter + 1 + due))
            self._counter += due
            self.metrics.offered.record(self.now, due)
            self.send(self.leader, ("cmds", bundle), size=32 + 96 * due)
        self.set_timer(self.arrivals.delay_until_next(self.now), self._tick)

    def on_message(self, src: str, msg: Any) -> None:
        if msg[0] == "reject":
            # Leader shed part of a bundle: count the rejections (the
            # open-loop client does not retransmit — shed is shed).
            if self.recording:
                self.metrics.bump("requests_rejected", len(msg[1]))
            return
        if msg[0] != "reply":
            return
        for cmd_id, submitted_at in msg[1]:
            self.completed += 1
            if self.recording:
                self.metrics.latency.record(self.now - submitted_at)
                self.metrics.goodput.record(self.now)


@dataclass
class HotStuffDeployment:
    """N HotStuff replicas plus one open-loop client."""

    n_replicas: int = 4
    params: HotStuffParams = field(default_factory=HotStuffParams)
    costs: CostModel = field(default_factory=CostModel)
    latency: LatencyModel | None = None
    sites: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.net = SimNetwork(latency=self.latency or constant_latency(25e-6))
        backend = signatures.default_backend()
        self.metrics = MetricsCollector()
        self.replicas = []
        for i in range(self.n_replicas):
            replica = HotStuffReplica(
                replica_id=i,
                n_replicas=self.n_replicas,
                params=self.params,
                costs=self.costs,
                keypair=backend.generate(b"hs" + bytes([i])),
                metrics=self.metrics if i == 0 else MetricsCollector(),
                site=self.sites.get(i, "local"),
            )
            self.net.register(replica)
            self.replicas.append(replica)
        self.clients: list[HotStuffClient] = []

    def add_client(
        self, rate: float, site: str = "local", stop_at: float | None = None, arrivals=None
    ) -> HotStuffClient:
        client = HotStuffClient(
            name=f"hs-client-{len(self.clients)}",
            leader="hs-replica-0",
            rate=rate,
            metrics=MetricsCollector(),
            site=site,
            stop_at=stop_at,
            arrivals=arrivals,
        )
        self.net.register(client)
        self.clients.append(client)
        return client

    def run(self, until: float) -> None:
        self.net.start()
        self.net.run(until=until)
