"""The benchmark's workloads: build, run, check and measure one scenario.

Each workload is an open-loop run of a simulated IA-CCF deployment with
one load-generator client and seeded Poisson arrivals.  A run has three
phases on the simulated clock:

- ``[0, warmup)``: load is offered but nothing is measured;
- ``[warmup, stop)``: the measurement window — a request is measured when
  its *scheduled* arrival falls inside it;
- ``[stop, end)``: the generator has stopped; the drain lets retries
  finish, after which a request without a receipt counts as failed.

Everything here drives the program through its public classes; the seed
reaches the program only as the generated inputs (workload transactions,
arrival instants and the client's backoff draws).
"""

from __future__ import annotations

import gc
import hashlib
import time
from collections import deque
from dataclasses import dataclass, field

from repro.lpbft import Deployment, ProtocolParams
from repro.network.latency import REGIONS_WAN, cluster_latency, wan_latency
from repro.sim.costs import AZURE_WAN, DEDICATED_CLUSTER
from repro.sim.metrics import LatencyStats
from repro.workloads import (
    EmptyWorkload,
    SmallBankWorkload,
    initial_state,
    register_noop,
    register_smallbank,
)
from repro.workloads.loadgen import ArrivalProcess, ExponentialBackoff, PoissonArrivals

# Fig. 4 (dedicated LAN cluster) and Tab. 2 (three-region WAN) parameters.
FIG4_PARAMS = ProtocolParams(
    pipeline=2, max_batch=300, checkpoint_interval=10_000,
    batch_delay=0.0005, view_change_timeout=30.0,
)
TAB2_PARAMS = ProtocolParams(
    pipeline=6, max_batch=800, checkpoint_interval=4_000,
    batch_delay=0.001, view_change_timeout=0.5,
)
N_REPLICAS = 4
COST_MODELS = {"DEDICATED_CLUSTER": DEDICATED_CLUSTER, "AZURE_WAN": AZURE_WAN}
LATENCY_MODELS = {"cluster_latency": cluster_latency, "wan_latency": wan_latency}


@dataclass(frozen=True)
class Workload:
    """One named benchmark input: a deployment shape and an offered load."""

    name: str
    why: str
    params: ProtocolParams
    cost_model: str
    latency_model: str
    accounts: int  # SmallBank accounts; 0 selects the no-op workload
    rate: float  # offered load, tx/s (simulated)
    warmup: float  # simulated seconds before the measurement window
    stop: float  # generator stops; end of the measurement window
    end: float  # end of the drain
    verify_receipts: bool
    retry_timeout: float
    backpressure: bool = False  # client retry budget + exponential backoff
    wan: bool = False  # replicas round-robin over REGIONS_WAN, client in us-east
    crash_at: float | None = None  # the view-0 primary crashes here
    recover_at: float | None = None  # ... and restarts with resync here
    audit: bool = False  # audit every receipt in untraced runs too

    def identity(self) -> dict:
        return {
            "workload": self.name,
            "params": {k: getattr(self.params, k) for k in sorted(vars(self.params))},
            "cost_model": self.cost_model,
            "cost_model_fields": repr(COST_MODELS[self.cost_model]),
            "latency_model": self.latency_model,
            "n_replicas": N_REPLICAS,
            "accounts": self.accounts,
            "offered_tps": self.rate,
            "window_s": [self.warmup, self.stop],
            "end_s": self.end,
            "crash_at": self.crash_at,
            "recover_at": self.recover_at,
        }


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="lan-smallbank",
            why=(
                "Fig. 4 configuration at ~0.8x the ~45K knee: codec, hashing, merkle, "
                "kvstore, ledger and verify do most work; admission sheds nothing"
            ),
            params=FIG4_PARAMS,
            cost_model="DEDICATED_CLUSTER",
            latency_model="cluster_latency",
            accounts=500_000,
            rate=35_000,
            warmup=0.05,
            stop=0.35,
            end=0.45,
            verify_receipts=False,
            retry_timeout=10.0,
        ),
        Workload(
            name="lan-noop-overload",
            why=(
                "no-op requests at ~1.3x the knee: admission, shedding, rejects and "
                "retries work while kvstore does almost nothing"
            ),
            params=FIG4_PARAMS,
            cost_model="DEDICATED_CLUSTER",
            latency_model="cluster_latency",
            accounts=0,
            rate=60_000,
            warmup=0.1,
            stop=0.32,
            end=2.6,
            verify_receipts=False,
            retry_timeout=0.15,
            backpressure=True,
        ),
        Workload(
            name="wan-failover",
            why=(
                "Tab. 2 WAN with a primary crash and resync: view change, state sync, "
                "WAN delay, client receipt verification and the auditor work"
            ),
            params=TAB2_PARAMS,
            cost_model="AZURE_WAN",
            latency_model="wan_latency",
            accounts=10_000,
            rate=2_000,
            warmup=0.5,
            stop=6.1,
            end=9.5,
            verify_receipts=True,
            retry_timeout=1.0,
            wan=True,
            crash_at=2.0,
            recover_at=3.5,
            audit=True,
        ),
    )
}


class ScheduledArrivals(ArrivalProcess):
    """Seeded Poisson arrivals that remember each arrival's scheduled
    instant.  The load generator wakes on a 1 ms tick floor and submits
    everything due by then, so a request can leave up to a tick after its
    scheduled instant; open-loop latency is measured from the schedule."""

    def __init__(self, rate: float, seed: int) -> None:
        super().__init__(rate)
        self._poisson = PoissonArrivals(rate, seed)
        self.scheduled: deque[float] = deque()

    def interarrival(self) -> float:
        return self._poisson.interarrival()

    def due(self, now: float) -> int:
        if not self._primed:
            self.next_at = now + self.interarrival()
            self._primed = True
        n = 0
        while self.next_at <= now + 1e-12:
            self.scheduled.append(self.next_at)
            n += 1
            self.next_at += self.interarrival()
        return n


@dataclass
class Scenario:
    """One built deployment with the benchmark's probes attached."""

    workload: Workload
    dep: Deployment
    load: object
    setup_s: float
    initial_state_s: float
    # tx digest -> (scheduled instant, submit instant)
    submitted: dict = field(default_factory=dict)
    # tx digest -> completion instant
    completed: dict = field(default_factory=dict)
    crash_instant: float | None = None
    recover_instant: float | None = None
    run_cpu_s: float = 0.0


def setup(wl: Workload, seed: int) -> Scenario:
    """Build the deployment and attach the load generator; times the
    whole set-up (the account table included) in process CPU seconds."""
    clear = getattr(initial_state, "cache_clear", None)
    if clear is not None:
        clear()  # every set-up pays what a fresh process pays
    gc.collect()
    t0 = time.process_time()
    if wl.accounts:
        state = initial_state(wl.accounts)
        registry_setup = register_smallbank
        workload = SmallBankWorkload(n_accounts=wl.accounts, seed=seed)
    else:
        state = None
        registry_setup = register_noop
        workload = EmptyWorkload(seed=seed)
    t_state = time.process_time() - t0
    sites = {i: REGIONS_WAN[i % len(REGIONS_WAN)] for i in range(N_REPLICAS)} if wl.wan else {}
    dep = Deployment(
        n_replicas=N_REPLICAS,
        params=wl.params,
        costs=COST_MODELS[wl.cost_model],
        latency=LATENCY_MODELS[wl.latency_model](),
        registry_setup=registry_setup,
        initial_state=state,
        sites=sites,
    )
    arrivals = ScheduledArrivals(wl.rate, seed)
    client_kwargs = {}
    if wl.backpressure:
        client_kwargs = dict(
            retry_budget=3, backoff=ExponentialBackoff(base=0.25, cap=1.0, seed=seed)
        )
    completed: dict = {}
    load = dep.add_load_generator(
        workload,
        rate=wl.rate,
        site=REGIONS_WAN[0] if wl.wan else "local",
        stop_at=wl.stop,
        verify_receipts=wl.verify_receipts,
        retry_timeout=wl.retry_timeout,
        arrivals=arrivals,
        on_receipt=lambda d, _receipt, _lat: completed.setdefault(d, load.now),
        **client_kwargs,
    )
    submitted: dict = {}
    submit = load.submit

    def submit_recording(procedure, args, min_index=None):
        tx_digest = submit(procedure, args, min_index)
        submitted[tx_digest] = (arrivals.scheduled.popleft(), load.now)
        return tx_digest

    load.submit = submit_recording
    scn = Scenario(
        workload=wl, dep=dep, load=load,
        setup_s=time.process_time() - t0, initial_state_s=t_state,
        submitted=submitted, completed=completed,
    )
    if wl.crash_at is not None:
        def crash():
            scn.crash_instant = dep.net.scheduler.now
            dep.crash_replica(0)

        def recover():
            scn.recover_instant = dep.net.scheduler.now
            dep.recover_replica(0, resync=True)

        dep.net.scheduler.at(wl.crash_at, crash)
        dep.net.scheduler.at(wl.recover_at, recover)
    return scn


def run(scn: Scenario) -> None:
    """Run the simulation to the end of the drain; times it in process
    CPU seconds."""
    gc.collect()
    t0 = time.process_time()
    scn.dep.start()
    scn.dep.run(until=scn.workload.end)
    scn.run_cpu_s = time.process_time() - t0


def sim_results(scn: Scenario) -> dict:
    """Every simulated-clock outcome of a run.  Exact for a fixed seed:
    two runs of the same code and seed must agree byte for byte."""
    wl = scn.workload
    latency = LatencyStats()
    lag = LatencyStats()
    samples = []
    for tx_digest, (scheduled, sent) in scn.submitted.items():
        if not wl.warmup <= scheduled < wl.stop:
            continue
        lag.record(sent - scheduled)
        done = scn.completed.get(tx_digest)
        if done is not None:
            latency.record(done - scheduled)
            samples.append(done - scheduled)
    finishes = sorted(scn.completed.values())
    # Receipts complete in batch-sized bursts, so counting them over a
    # fixed window would move in steps of one batch; the rate between the
    # window's first and last completion instants does not.
    in_window = [t for t in finishes if wl.warmup <= t <= wl.stop]
    fenced = in_window[-1] - in_window[0] if len(in_window) > 1 else 0.0
    if scn.crash_instant is not None:
        # From the last receipt before the crash to the generator's stop.
        before = [t for t in finishes if t <= scn.crash_instant]
        gaps = before[-1:] + [t for t in finishes if scn.crash_instant < t <= wl.stop]
    else:
        gaps = in_window
    longest = max((b - a for a, b in zip(gaps, gaps[1:])), default=0.0)
    attempted = len(scn.submitted)
    failed = attempted - len(scn.completed)
    return {
        "attempted": attempted,
        "failed": failed,
        "goodput_tps": (
            sum(1 for t in in_window if t > in_window[0]) / fenced if fenced else 0.0),
        "latency_p50_ms": latency.p50() * 1e3,
        "latency_p99_ms": latency.p99() * 1e3,
        "latency_p999_ms": latency.p999() * 1e3,
        "latency_samples": latency.count,
        "served_frac": (attempted - failed) / attempted if attempted else 0.0,
        "unavailable_s": longest,
        "generator_lag_p99_ms": lag.p99() * 1e3,
        "committed_upto": [r.committed_upto for r in scn.dep.replicas],
        "latency_digest": hashlib.sha256(repr(sorted(samples)).encode()).hexdigest(),
    }


def conservation_failures(scn: Scenario) -> list[str]:
    """Admission is conserved: submitted = completed + failed, where every
    failed request is either still pending after the drain or was given
    up by the client (retry budget spent, or its batch collected), and
    the client's own counters agree."""
    load = scn.load
    counters = load.metrics.counters
    receipts = set(load.receipts)
    pending = set(load.collector.pending_digests())
    submitted = set(scn.submitted)
    given_up = submitted - receipts - pending
    n_given_up = counters.get("requests_abandoned", 0) + counters.get("receipts_gc_unavailable", 0)
    out = []
    if len(submitted) != load.submitted:
        out.append(f"recorded {len(submitted)} submissions, client counted {load.submitted}")
    if not receipts | pending <= submitted:
        out.append("receipts or pending requests that were never submitted")
    if receipts & pending:
        out.append(f"{len(receipts & pending)} requests both pending and completed")
    if set(scn.completed) != receipts:
        out.append("receipt callback and client receipt table disagree")
    if len(given_up) != n_given_up:
        out.append(f"{len(given_up)} requests unaccounted for, client gave up on {n_given_up}")
    return out


def check(scn: Scenario) -> list[str]:
    """Correctness checks on a finished run; returns the failures."""
    dep = scn.dep
    failures = []
    if not dep.ledgers_agree():
        failures.append("ledgers of non-crashed replicas disagree")
    failures += conservation_failures(scn)
    if not scn.completed:
        failures.append("no receipts completed")
    if scn.workload.crash_at is not None:
        if scn.crash_instant is None or scn.recover_instant is None:
            failures.append("fault schedule did not fire")
        if max(r.view for r in dep.replicas) < 1:
            failures.append("no view change after the primary crash")
    return failures


def audit(scn: Scenario) -> tuple[float, list[str]]:
    """Audit every receipt the run produced; returns (CPU seconds,
    failures).  The auditor verifies each receipt against its signing
    configuration first, so an honest run must audit ``consistent`` with
    no uPoM and no rejected receipt."""
    from repro.audit import Auditor
    from repro.enforcement import make_enforcer
    from repro.errors import AuditError

    dep = scn.dep
    receipts = list(scn.load.receipts.values())
    gc.collect()
    t0 = time.process_time()
    try:
        result = Auditor(dep.registry, dep.params, backend=dep.backend).audit(
            receipts, [scn.load.gov_chain], make_enforcer(dep)
        )
    except AuditError as exc:  # e.g. a receipt that does not verify
        return time.process_time() - t0, [f"audit rejected the run's receipts: {exc}"]
    seconds = time.process_time() - t0
    failures = []
    if not result.consistent:
        failures.append("audit not consistent")
    if result.upoms:
        failures.append(f"audit produced {len(result.upoms)} uPoMs")
    return seconds, failures
