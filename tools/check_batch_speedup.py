#!/usr/bin/env python3
"""CI gate over BENCH_batch_kernels.json: fail when the batched
verification pipeline stops beating the memoized scalar path.

The gating metric is `verify_memo_miss.speedup` — single-thread
verify_epoch_aware_batch over a unique (every-probe-misses) stream,
divided by the memoized scalar verify_epoch_aware rate on the same
stream. It is a ratio measured on one host in one process, so it is
meaningful on slow shared CI runners where absolute reports/s are not;
only the ratio is gated by default. The absolute-rate floor from the
acceptance criteria (>= 5M reports/s) is opt-in via --min-rate because
it only holds on a full (non-quick) run on dedicated hardware.

Usage:
  check_batch_speedup.py BENCH_batch_kernels.json
  check_batch_speedup.py out.json --min-ratio 1.5
  check_batch_speedup.py out.json --min-ratio 1.5 --min-rate 5e6
"""
import argparse
import json
import sys


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("json_path")
    ap.add_argument("--min-ratio", type=float, default=1.5,
                    help="required batched/scalar speedup on the "
                         "memo-miss verify metric (default: 1.5)")
    ap.add_argument("--min-rate", type=float, default=0.0,
                    help="optional absolute floor on batched reports/s "
                         "(default: 0 = not gated; the acceptance run "
                         "uses 5e6)")
    args = ap.parse_args()

    with open(args.json_path) as f:
        doc = json.load(f)

    gate = doc.get("verify_memo_miss")
    if not gate:
        print("FAIL: no verify_memo_miss section in the JSON")
        return 1

    ratio = float(gate["speedup"])
    rate = float(gate["batch_reports_per_s"])
    quick = bool(doc.get("quick", False))
    print(f"{gate.get('setup', '?')} memo-miss"
          f"{' (quick run)' if quick else ''}: "
          f"scalar {float(gate['scalar_reports_per_s']):.0f}/s, "
          f"batched({gate.get('batch_size', '?')}) {rate:.0f}/s "
          f"= {ratio:.2f}x, floor {args.min_ratio:.2f}x")

    ok = True
    if ratio < args.min_ratio:
        print("FAIL: the batched pipeline no longer beats the scalar "
              "path")
        ok = False
    if args.min_rate > 0 and rate < args.min_rate:
        print(f"FAIL: batched rate {rate:.0f}/s below the "
              f"{args.min_rate:.0f}/s floor")
        ok = False
    if ok:
        print("OK")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
