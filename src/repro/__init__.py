"""IA-CCF: Individual Accountability for Permissioned Ledgers (NSDI 2022).

A pure-Python reproduction of Shamis et al.'s IA-CCF: the L-PBFT
ledger-integrated BFT replication protocol, universally-verifiable client
receipts, auditing with universal proofs-of-misbehavior, governance and
reconfiguration, plus the substrates (transactional KV store, Merkle
trees, deterministic codec, discrete-event network/CPU simulator) and the
baselines the paper evaluates against (PeerReview/NoReceipt variants,
HotStuff, Hyperledger Fabric, Pompē).

Quickstart::

    from repro.lpbft import Deployment, ProtocolParams
    from repro.workloads import SmallBankWorkload, register_smallbank, initial_state

    dep = Deployment(n_replicas=4, params=ProtocolParams(),
                     registry_setup=register_smallbank,
                     initial_state=initial_state(1000))
    client = dep.add_client()
    dep.start()
    tx = client.submit("smallbank.deposit_checking", {"customer": 7, "amount": 50})
    dep.run(until=1.0)
    receipt = client.receipt_for(tx)

See docs/ARCHITECTURE.md for the system inventory and docs/BENCHMARKS.md
for the bench that reproduces each table and figure.
"""

__version__ = "1.0.0"

from . import codec, errors  # noqa: F401  (stable top-level modules)
