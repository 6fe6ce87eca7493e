#!/usr/bin/env python3
"""Tiny-size self-check of the end-to-end benchmark.

    python3 perfbench/selftest.py [--binary PATH]

Runs every workload on tiny topologies for a few rounds, each in its own
process, untraced and traced. Asserts that the correctness gate passes
(exit code 0, "correct": true, no failed operation) and that every named
metric is printed by name with its unit, both in the human-readable
report and in the JSON result line. Without --binary it builds the
harness the way run.py does.
"""
import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("stanford_steady", "internet2_churn", "fattree_faults")

# Metric -> unit, per workload kind. Update-path metrics exist only with
# rule churn, localizer metrics only with switch faults.
E2E = {"setup_s": "s", "e2e_reports_per_s": "1/s",
       "server_reports_per_s": "1/s", "par_reports_per_s": "1/s",
       "peak_rss_mb": "MB", "error_rate": "ratio"}
E2E_CHURN = {"update_p50_ms": "ms", "update_p90_ms": "ms",
             "publish_p50_ms": "ms", "publish_p90_ms": "ms"}
E2E_FAULTS = {"localize_p50_us": "us", "localize_p99_us": "us"}
LAYER = {"dataplane.ns_per_pkt": "ns", "wire.encode_ns": "ns",
         "channel.ns_per_datagram": "ns", "channel.sent": "count",
         "channel.delivered": "count", "channel.dropped": "count",
         "channel.duplicated": "count", "channel.reordered": "count",
         "channel.corrupted": "count", "ingest.offer_ns": "ns",
         "ingest.deduped": "count", "ingest.quarantined": "count",
         "ingest.shed": "count", "ingest.lost_estimate": "count",
         "ingest.max_queue_depth": "count", "verifier.process_ns": "ns",
         "verifier.memo_hit_rate": "ratio", "parallel_server.submit_ns": "ns",
         "parallel_server.drain_ms": "ms",
         "parallel_server.queue_wait_ns": "ns", "parallel_server.busy_ns": "ns",
         "parallel_server.snapshot_loads": "count",
         "parallel_server.stolen_batches": "count",
         "parallel_server.batch_occupancy": "count", "bdd.node_count": "count",
         "trace.overhead_reports_per_s": "1/s"}
LAYER_CHURN = {"controller.event_ms": "ms", "parallel_server.publish_ms": "ms"}
LAYER_FAULTS = {"localizer.call_us": "us", "localizer.hit_rate": "ratio"}
SPANS = ("round", "dataplane.inject", "wire.encode", "channel.carry",
         "ingest.offer", "verifier.process", "parallel_server.submit",
         "parallel_server.drain")
SPANS_CHURN = ("rule_event", "controller.event", "server.table",
               "parallel_server.publish", "controller.deploy")
SPANS_FAULTS = ("localizer.localize",)


def expected(workload, trace):
    churn = workload == "internet2_churn"
    faults = workload == "fattree_faults"
    want = dict(E2E)
    want.update(E2E_CHURN if churn else {})
    want.update(E2E_FAULTS if faults else {})
    if trace:
        want.update(LAYER)
        want.update(LAYER_CHURN if churn else {})
        want.update(LAYER_FAULTS if faults else {})
    return want


def check(binary, workload, trace, contract):
    cmd = [binary, "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=300)
    problems = []
    lines = proc.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    text = "\n".join(lines[:-1])
    if proc.returncode != 0 or not result["correct"] or result["failed"] != 0:
        problems.append(f"gate: exit {proc.returncode}, correct "
                        f"{result['correct']}, failed {result['failed']}")
    if result["attempted"] < 1:
        problems.append("no operation attempted")
    for name, unit in expected(workload, trace).items():
        got = result["metrics"].get(name)
        if got is None or got["unit"] != unit:
            problems.append(f"JSON lacks {name} [{unit}]: {got}")
        if not re.search(rf"^\s+{re.escape(name)}\s+\S+ {re.escape(unit)}$",
                         text, re.M):
            problems.append(f"report does not print {name} with unit {unit}")
    for name in contract:
        if name not in result["metrics"]:
            problems.append(f"BENCHMARK.json metric {name} missing")
    if trace:
        spans = SPANS + (SPANS_CHURN if workload == "internet2_churn" else ()) \
            + (SPANS_FAULTS if workload == "fattree_faults" else ())
        for span in spans:
            if not re.search(rf"^\s+{re.escape(span)}\s+\d+\s+\d+", text, re.M):
                problems.append(f"self-time table lacks {span}")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--binary")
    args = ap.parse_args()
    binary = args.binary
    if binary is None:
        sys.path.insert(0, str(HERE))
        import run
        run.build()
        binary = str(run.BINARY)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    failures = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            contract = [m["name"] for m in
                        spec["per_layer" if trace else "end_to_end"]]
            problems = check(binary, workload, trace, contract)
            print(f"{workload} trace={trace}: "
                  f"{'ok' if not problems else 'FAILED'}")
            for p in problems:
                print(f"  {p}")
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
