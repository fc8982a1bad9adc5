"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload lan-smallbank --seed 1 --seconds 6 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs the workload untraced and then traced, checks that the
two runs' simulated outcomes are identical, and prints every per-layer
metric.  Each metric is printed as ``name value unit`` on its own line; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record —
identity, every metric and the sample counts — is written to
``.perfbench/``, and a traced run also writes its spans there.  The exit
code is 1 when any correctness check fails.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
SETUPS = 3  # least set-ups per run; setup_s is their median
SETUP_CPU_S = 1.0  # cheap set-ups repeat until they have used this much CPU
MAX_SETUPS = 50
MAX_REPEATS = 5  # most simulated runs per invocation


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _load_spec() -> dict:
    try:
        with open(ROOT / "BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        _fail(f"cannot read BENCHMARK.json: {exc}")


def _import_program():
    """Put the repository's ``src`` on the path and import the benchmark's
    modules; exits non-zero when the program is not there."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        _fail(f"no program source under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    try:
        import layers
        import scenarios
    except ImportError as exc:
        _fail(f"cannot import the program: {exc}")
    return scenarios, layers


def identity(wl, seed: int, trace: int, seconds: int) -> dict:
    """What a result must be stored with to be comparable."""
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode())
        src.update(path.read_bytes())
    return {
        **wl.identity(),
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "git_revision": _git_revision(),
        "source_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
    }


def _git_revision() -> str | None:
    """HEAD's commit id read from ``.git`` (None outside a git checkout)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- the untraced run: end-to-end metrics ------------------------------------------


def measure_end_to_end(
    scenarios, wl, seed: int, seconds: float, startup_s: float
) -> tuple[dict, dict, list]:
    """Set up at least ``SETUPS`` times (more while set-ups are cheap),
    then run the workload until the runs have used ``seconds`` of process
    CPU (at least once, at most ``MAX_REPEATS`` times); host metrics are
    medians.  ``setup_s`` runs from process start to the first simulated
    event: ``startup_s`` (interpreter start-up and imports, paid once)
    plus the median set-up.  Repeat runs use the same seed and must
    reproduce the first run's simulated outcome exactly.  Returns
    (metrics, details, failures)."""
    setup_samples: list[float] = []
    scn = None
    while len(setup_samples) < SETUPS or (
            sum(setup_samples) < SETUP_CPU_S and len(setup_samples) < MAX_SETUPS):
        scn = None  # free the previous deployment before building the next
        scn = scenarios.setup(wl, seed)
        setup_samples.append(scn.setup_s)
    host_ratios: list[float] = []
    failures: list[str] = []
    first = None
    while True:
        if scn is None:
            scn = scenarios.setup(wl, seed)
            setup_samples.append(scn.setup_s)
        scenarios.run(scn)
        host_ratios.append(scn.run_cpu_s / wl.end)
        failures += scenarios.check(scn)
        sim = scenarios.sim_results(scn)
        if first is None:
            first = sim
            if wl.audit:
                failures += scenarios.audit(scn)[1]
        elif sim != first:
            failures.append("a repeat run with the same seed changed simulated outcomes")
        scn = None
        gc.collect()
        spent = sum(host_ratios) * wl.end
        if spent >= seconds or len(host_ratios) >= MAX_REPEATS:
            break
    metrics = {
        "goodput_tps": first["goodput_tps"],
        "latency_p50_ms": first["latency_p50_ms"],
        "latency_p99_ms": first["latency_p99_ms"],
        "latency_p999_ms": first["latency_p999_ms"],
        "served_frac": first["served_frac"],
        "unavailable_s": first["unavailable_s"],
        "host_s_per_sim_s": statistics.median(host_ratios),
        "setup_s": startup_s + statistics.median(setup_samples),
        "peak_rss_mb": peak_rss_mb(),
    }
    details = {
        "sim": first,
        "host_s_per_sim_s_samples": host_ratios,
        "startup_s": startup_s,
        "setup_s_samples": setup_samples,
        "runs": len(host_ratios),
    }
    return metrics, details, failures


# -- the traced run: per-layer metrics ---------------------------------------------


def measure_layers(scenarios, layers, wl, seed: int, spans_path: Path) -> tuple[dict, dict, list]:
    """Run untraced, then traced with every layer wrapped and the
    deployment's span tracer on; the simulated outcomes must match."""
    from repro.obs.export import STAGE_NAMES
    from repro.statesync.client import StateSyncClient

    failures: list[str] = []
    scn = scenarios.setup(wl, seed)
    scenarios.run(scn)
    untraced_cpu = scn.run_cpu_s
    untraced = scenarios.sim_results(scn)
    untraced_events = scn.dep.net.scheduler.events_processed
    failures += scenarios.check(scn)
    scn = None
    gc.collect()

    scn = scenarios.setup(wl, seed)
    rec = layers.SpanRecorder()
    layers.install(rec)
    layers.instrument_network(rec, scn.dep.net)
    sync_done: list[tuple[int, float]] = []
    finish = StateSyncClient._finish  # noqa: SLF001 - passive completion probe

    def finish_probe(client, *args, **kwargs):
        result = finish(client, *args, **kwargs)
        sync_done.append((client.replica.id, client.replica.now))
        return result

    StateSyncClient._finish = finish_probe  # noqa: SLF001
    tracer = scn.dep.enable_tracing()
    try:
        scenarios.run(scn)
        run_totals = rec.totals()
        traced = scenarios.sim_results(scn)
        failures += scenarios.check(scn)
        if traced != untraced:
            diff = sorted(k for k in traced if traced[k] != untraced.get(k))
            failures.append(f"traced run changed simulated outcomes: {diff}")
        audit_cpu_s, audit_failures = scenarios.audit(scn)
        failures += audit_failures
        audit_totals = rec.totals()
    finally:
        StateSyncClient._finish = finish  # noqa: SLF001
        rec.unpatch()

    dep = scn.dep
    primary = dep.primary()
    n_tx = max(1, len(scn.completed))

    def total(prefix: str, field: int, totals=run_totals) -> float:
        return sum(v[field] for k, v in totals.items() if k == prefix or k.startswith(prefix + "."))

    def audit_incl(name: str) -> float:
        return audit_totals.get(name, (0, 0, 0.0, 0))[2] - run_totals.get(name, (0, 0, 0.0, 0))[2]

    def counter(name: str) -> float:
        return sum(r.metrics.counters.get(name, 0) for r in dep.replicas)

    busy = primary.cpu.busy_by_kind()
    lanes = primary.cpu.busy_seconds()
    stages, stage_requests = stage_means(tracer.spans)
    client = scn.load.metrics.counters
    handler_kinds = ("request", "pre-prepare", "prepare", "commit", "get-replyx",
                     "view-change", "new-view")
    handlers = {k: v for k, v in run_totals.items() if k.startswith("lpbft.handler.")}
    known = {f"lpbft.handler.{k}" for k in handler_kinds}
    verified = counter("signatures_verified")
    catchup = 0.0
    if scn.recover_instant is not None:
        done = [t for rid, t in sync_done if rid == 0 and t >= scn.recover_instant]
        catchup = (max(done) - scn.recover_instant) if done else 0.0
        if not done:
            failures.append("the recovered replica never completed a state sync")
    metrics = {
        "codec.calls": total("codec", 0),
        "codec.self_s": total("codec", 1),
        "codec.bytes": total("codec", 3),
        "crypto.hash.calls": total("crypto.hash", 0),
        "crypto.hash.self_s": total("crypto.hash", 1),
        "crypto.sign.calls": total("crypto.sign", 0),
        "crypto.verify.calls": total("crypto.verify.backend", 0) + total("crypto.verify.aggregate", 0),
        "crypto.verify.self_s": total("crypto.verify", 1),
        "crypto.verify_cache.hit_rate": (
            dep.verify_cache.stats.hit_rate() if dep.verify_cache is not None else 0.0),
        "crypto.verify_lane_busy_s": busy.get("verify", 0.0),
        "merkle.calls": total("merkle", 0),
        "merkle.self_s": total("merkle", 1),
        "kvstore.calls": total("kvstore", 0),
        "kvstore.self_s": total("kvstore", 1),
        "kvstore.execute_lane_busy_s": busy.get("execute", 0.0),
        "kvstore.initial_state_s": scn.initial_state_s,
        "ledger.append.calls": total("ledger.append", 0),
        "ledger.self_s": total("ledger", 1),
        "ledger.resident_entries": primary.ledger.resident_entries(),
        "ledger.entries_gced": primary.ledger.base_index,
        "network.messages_per_tx": dep.net.messages_sent / n_tx,
        "network.bytes_per_tx": dep.net.bytes_sent / n_tx,
        "network.size_of.self_s": total("network.size_of", 1),
        "network.self_s": total("network", 1),
        "network.messages_dropped": dep.net.messages_dropped,
        "sim.events": untraced_events,
        "sim.events_per_host_s": untraced_events / untraced_cpu,
        "sim.self_s": total("sim", 1),
        **{f"sim.lane_busy_s.{kind}": busy.get(kind, 0.0)
           for kind in ("verify", "hash", "aggregate", "message", "sign", "execute", "append")},
        "sim.lane_util_max": max(lanes) / wl.end,
        "sim.queue_delay_p50_ms": primary.metrics.queue_delay.p50() * 1e3,
        "sim.queue_delay_p90_ms": primary.metrics.queue_delay.p90() * 1e3,
        **{f"lpbft.handler.{k}.self_s": handlers.get(f"lpbft.handler.{k}", (0, 0.0))[1]
           for k in handler_kinds},
        "lpbft.handler.other.self_s": sum(v[1] for k, v in handlers.items() if k not in known),
        "lpbft.self_s": total("lpbft", 1),
        "lpbft.requests_per_batch": (
            primary.metrics.counters.get("requests_committed", 0)
            / max(1, primary.metrics.counters.get("batches_committed", 0))),
        "lpbft.batches_committed": primary.metrics.counters.get("batches_committed", 0),
        "lpbft.admitted_tps": counter("requests_admitted") / wl.stop,
        "lpbft.shed.overloaded": sum(
            r.metrics.counter_value("requests_shed", reason="overloaded") for r in dep.replicas),
        "lpbft.shed.window_full": sum(
            r.metrics.counter_value("requests_shed", reason="window_full") for r in dep.replicas),
        "lpbft.deadline_dropped": counter("requests_deadline_dropped"),
        "lpbft.wasted_verify_s": sum(r.wasted_verify_seconds() for r in dep.replicas),
        "lpbft.useful_verify_ratio": counter("requests_committed") / verified if verified else 0.0,
        "lpbft.view_changes": max(r.view for r in dep.replicas),
        "receipts.self_s": total("receipts", 1),
        "receipts.verify.calls": total("receipts.verify_receipt", 0),
        "statesync.sessions": counter("sync_sessions_completed"),
        "statesync.catchup_s": catchup,
        "statesync.self_s": total("statesync", 1),
        "audit.chains_s": audit_incl("audit.verify_chain"),
        "audit.receipts_s": audit_incl("receipts.verify_receipt"),
        "audit.package_s": audit_incl("audit.build_ledger_package"),
        "audit.replay_s": audit_incl("audit.replay_ledger"),
        "audit.total_s": audit_cpu_s,
        **{f"stage.{name}_ms": stages[name] * 1e3 for name in STAGE_NAMES},
        "obs.trace_overhead": scn.run_cpu_s / untraced_cpu,
        "client.retries": client.get("request_retries", 0),
        "client.rejected": client.get("requests_rejected", 0),
        "client.abandoned": client.get("requests_abandoned", 0),
        "client.generator_lag_p99_ms": traced["generator_lag_p99_ms"],
    }
    n_spans = rec.write(spans_path)
    details = {
        "sim": untraced,
        "untraced_cpu_s": untraced_cpu,
        "traced_cpu_s": scn.run_cpu_s,
        "spans_written": n_spans,
        "spans_aggregated_only": rec.dropped,
        "stage_requests": stage_requests,
        "layer_totals": {k: list(v) for k, v in sorted(audit_totals.items())},
    }
    return metrics, details, failures


def stage_means(spans) -> tuple[dict[str, float], int]:
    """Mean seconds per request stage over every completed request trace,
    as :func:`repro.obs.export.request_stages` splits them (the stages of
    one request sum to its end-to-end latency, so the means do too).  The
    quorum-span lookup is handed only the quorum spans, in their original
    order, which finds the same span as a search over every span."""
    from repro.obs.export import STAGE_NAMES, request_stages

    by_trace: dict[int, list] = {}
    quorum = []
    for span in spans:
        by_trace.setdefault(span.trace_id, []).append(span)
        if span.name == "quorum":
            quorum.append(span)
    sums = dict.fromkeys(STAGE_NAMES, 0.0)
    n = 0
    for trace_spans in by_trace.values():
        row = request_stages(trace_spans, quorum)
        if row is None:
            continue
        n += 1
        for name, seconds in row["stages"].items():
            sums[name] += seconds
    return {name: total / n if n else 0.0 for name, total in sums.items()}, n


def main(argv=None) -> int:
    spec = _load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    scenarios, layers = _import_program()
    startup_s = time.process_time()  # the process's CPU so far: start-up and imports
    OUT_DIR.mkdir(exist_ok=True)
    wl = scenarios.WORKLOADS[args.workload]
    ident = identity(wl, args.seed, args.trace, args.seconds)
    print("identity " + json.dumps(ident, sort_keys=True))
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        declared = spec["per_layer"]
        metrics, details, failures = measure_layers(
            scenarios, layers, wl, args.seed, OUT_DIR / f"{wl.name}.spans")
    else:
        declared = spec["end_to_end"]
        metrics, details, failures = measure_end_to_end(
            scenarios, wl, args.seed, args.seconds, startup_s)
    sim = details["sim"]
    if set(metrics) != {m["name"] for m in declared}:
        failures.append(
            f"metric set differs from BENCHMARK.json: {sorted(set(metrics) ^ {m['name'] for m in declared})}")
    out = {}
    for m in declared:
        value = metrics.get(m["name"])
        if value is None:
            continue
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']} {value:.6g} {m['unit']}")
    print(f"latency_samples {sim['latency_samples']} count")
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    correct = not failures
    record = {"identity": ident, "correct": correct, "failures": failures,
              "metrics": out, "details": details}
    with open(OUT_DIR / f"{tag}.json", "w") as f:
        json.dump(record, f, indent=1, sort_keys=True, default=str)
    print(json.dumps({
        "correct": correct,
        "attempted": sim["attempted"],
        "failed": sim["failed"],
        "metrics": out,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
