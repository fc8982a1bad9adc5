"""Summarize stored benchmark records into a baseline file.

Usage (from the repository root, after running the benchmark)::

    python3 perfbench/baseline.py perfbench/baseline.json

Reads every record in ``.perfbench/`` and writes, per workload, each
end-to-end metric's median, quartiles and spread (interquartile range as a
share of the median, from ``statistics.quantiles(values, n=4)``) over the
untraced runs, the per-layer metrics of the traced runs, and the identity
fields the records share.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

RECORDS = Path(__file__).resolve().parent.parent / ".perfbench"


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "runs": len(values),
    }


def main(out_path: str) -> None:
    records = [json.loads(p.read_text()) for p in sorted(RECORDS.glob("*-trace[01].json"))]
    workloads: dict = {}
    for rec in records:
        ident = rec["identity"]
        entry = workloads.setdefault(ident["workload"], {"seeds": {}, "metrics": {}, "per_layer": {}})
        if not rec["correct"]:
            raise SystemExit(f"refusing a failed record: {ident['workload']} seed {ident['seed']}")
        if ident["trace"]:
            entry["per_layer"][str(ident["seed"])] = {k: v["value"] for k, v in rec["metrics"].items()}
            continue
        entry["seeds"][str(ident["seed"])] = rec["details"]["sim"]["latency_samples"]
        for name, metric in rec["metrics"].items():
            entry["metrics"].setdefault(name, {"unit": metric["unit"], "values": []})
            entry["metrics"][name]["values"].append(metric["value"])
    for entry in workloads.values():
        for metric in entry["metrics"].values():
            metric.update(summarize(metric["values"]))
    shared = ("git_revision", "source_sha256", "nproc", "python")
    baseline = {
        "identity": {k: records[0]["identity"][k] for k in shared} if records else {},
        "workloads": workloads,
    }
    Path(out_path).write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    main(sys.argv[1])
