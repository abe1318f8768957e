#!/usr/bin/env python3
"""Gate on the shard-scaling bench JSON (BENCH_shard.json).

The bench's headline curve — modeled QPS, computed from per-shard service
times under a one-core-per-shard assumption — is machine-independent, but
measured wall-clock QPS is not: a single-core CI runner physically cannot
run 8 shard tasks at once. So the gate normalizes by the cores the runner
actually has before comparing:

    achievable_qps = modeled_qps * min(cores, shards) / shards
    measured_qps >= achievable_qps / SLACK            (scheduling gate)

and additionally requires the core-independent dispatch efficiency the
bench emits (total backend service time / machine-time available) to stay
above a floor — this is the number the chunked/work-stealing scheduler
actually moves, and it catches regressions even when QPS noise would not.

Exit code 0 = pass. Nonzero = regression (or an unreadable/incomplete
bench file), always with a one-line FAIL message — never a traceback: this
runs as a CI gate, and "the bench crashed before writing its JSON" must
read as exactly that, not as a KeyError.

Usage: check_shard_bench.py BENCH_shard.json [--shards 8]
       [--qps-slack 1.5] [--min-efficiency 0.5]
"""

import argparse
import json
import sys


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("json_path")
    parser.add_argument("--shards", type=int, default=8,
                        help="shard count of the gated row (default 8)")
    parser.add_argument("--qps-slack", type=float, default=1.5,
                        help="allowed measured-vs-achievable QPS factor")
    parser.add_argument("--min-efficiency", type=float, default=0.5,
                        help="dispatch-efficiency floor for the gated row")
    args = parser.parse_args()

    try:
        with open(args.json_path) as fh:
            data = json.load(fh)
    except OSError as err:
        print(f"FAIL: cannot read {args.json_path}: {err.strerror or err} "
              "(did bench_shard_scaling run and write its JSON?)")
        return 1
    except json.JSONDecodeError as err:
        print(f"FAIL: {args.json_path} is not valid JSON ({err}) — "
              "truncated or partially written bench output?")
        return 1
    if not isinstance(data, dict) or not data.get("rows"):
        print(f"FAIL: {args.json_path} has no 'rows' — empty or "
              "incomplete bench output")
        return 1

    try:
        cores = int(data.get("cores", 1))
    except (TypeError, ValueError):
        print(f"FAIL: non-numeric 'cores' field: {data.get('cores')!r}")
        return 1
    if cores <= 0:
        print(f"FAIL: cores={cores} — the bench wrote a zero-core row, so "
              "the achievable-QPS normalization is undefined "
              "(hardware_concurrency() returned 0?)")
        return 1

    rows = data["rows"]
    row = next((r for r in rows if isinstance(r, dict)
                and r.get("shards") == args.shards), None)
    if row is None:
        have = sorted(r.get("shards") for r in rows if isinstance(r, dict))
        print(f"FAIL: no row with shards={args.shards} in {args.json_path} "
              f"(rows present: {have})")
        return 1

    try:
        measured = float(row["measured_qps"])
        modeled = float(row["modeled_qps"])
        efficiency = float(row["efficiency"])
    except KeyError as err:
        print(f"FAIL: shards={args.shards} row is missing field {err} — "
              "bench output from an older format?")
        return 1
    except (TypeError, ValueError) as err:
        print(f"FAIL: shards={args.shards} row has a non-numeric field: "
              f"{err}")
        return 1
    if modeled <= 0:
        print(f"FAIL: modeled_qps={modeled} in the shards={args.shards} "
              "row — the bench measured nothing")
        return 1
    achievable = modeled * min(cores, args.shards) / args.shards
    floor = achievable / args.qps_slack

    print(f"shards={args.shards} cores={cores} measured={measured:.1f} "
          f"modeled={modeled:.1f} achievable={achievable:.1f} "
          f"floor={floor:.1f} efficiency={efficiency:.3f}")

    ok = True
    if measured < floor:
        print(f"FAIL: measured_qps {measured:.1f} < {floor:.1f} "
              f"(achievable {achievable:.1f} / slack {args.qps_slack})")
        ok = False
    if efficiency < args.min_efficiency:
        print(f"FAIL: efficiency {efficiency:.3f} < "
              f"{args.min_efficiency:.3f}")
        ok = False

    print("PASS" if ok else "check_shard_bench: regression detected")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
