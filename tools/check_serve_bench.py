#!/usr/bin/env python3
"""Gate on the serving-path bench JSON (BENCH_serve.json).

Three properties of the serving stack are machine-independent enough to
gate in CI, and all are behaviors the bench is constructed to force:

  1. Under light load (the sweep's FIRST row), the end-to-end p99 — measured
     from the open-loop schedule, so queueing counts — stays under
     --light-p99-us. Batching and hedging must not push the tail out on
     their own.
  2. The closed-loop p50 is at most 4x the light-load row's p50. Four
     closed-loop clients never fill a batch, so a batcher that waits for
     more requests to arrive shows up here as a p50 many times the
     light-load one.
  3. Past saturation (the sweep's LAST row, offered far beyond capacity),
     admission control actually sheds: busy > 0. A server that never says
     BUSY under overload is queueing unboundedly, which is the failure mode
     the admission budget exists to prevent.

Also requires zero transport errors everywhere, a nonzero closed-loop
baseline, and that the Zipf reuse actually exercised the result cache
(cache_hits > 0).

Exit code 0 = pass. Nonzero = regression (or an unreadable/incomplete bench
file), always with a one-line FAIL message — never a traceback: this runs
as a CI gate, and "the bench crashed before writing its JSON" must read as
exactly that, not as a KeyError.

Usage: check_serve_bench.py BENCH_serve.json [--light-p99-us 30000]
"""

import argparse
import json
import sys

# Ceiling on closed-loop p50 / light-load p50 (property 2 above).
CLOSED_TO_LIGHT_P50 = 4.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("json_path")
    parser.add_argument("--light-p99-us", type=float, default=30000,
                        help="ceiling on the light-load row's p99")
    args = parser.parse_args()

    try:
        with open(args.json_path) as fh:
            data = json.load(fh)
    except OSError as err:
        print(f"FAIL: cannot read {args.json_path}: {err.strerror or err} "
              "(did bench_serve run and write its JSON?)")
        return 1
    except json.JSONDecodeError as err:
        print(f"FAIL: {args.json_path} is not valid JSON ({err}) — "
              "truncated or partially written bench output?")
        return 1
    if not isinstance(data, dict) or not data.get("rows"):
        print(f"FAIL: {args.json_path} has no 'rows' — empty or "
              "incomplete bench output")
        return 1

    rows = [r for r in data["rows"] if isinstance(r, dict)]
    if len(rows) < 2:
        print(f"FAIL: need at least 2 sweep rows (light load + saturation), "
              f"got {len(rows)}")
        return 1

    try:
        closed_qps = float(data.get("closed_loop", {}).get("qps", 0))
        closed_p50 = float(data["closed_loop"]["p50_us"])
        cache_hits = int(data.get("cache_hits", 0))
        light, saturated = rows[0], rows[-1]
        light_p50 = float(light["p50_us"])
        light_p99 = float(light["p99_us"])
        light_ok = int(light["ok"])
        saturated_busy = int(saturated["busy"])
        total_errors = sum(int(r.get("errors", 0)) for r in rows)
        total_errors += int(data.get("closed_loop", {}).get("errors", 0))
    except KeyError as err:
        print(f"FAIL: bench output is missing field {err} — output from an "
              "older format?")
        return 1
    except (TypeError, ValueError) as err:
        print(f"FAIL: bench output has a non-numeric field: {err}")
        return 1

    print(f"closed_loop={closed_qps:.0f} qps p50={closed_p50:.0f}us  "
          f"light: offered={light.get('offered_qps')} ok={light_ok} "
          f"p50={light_p50:.0f}us p99={light_p99:.0f}us "
          f"(ceiling {args.light_p99_us:.0f}us)  "
          f"saturated: offered={saturated.get('offered_qps')} "
          f"busy={saturated_busy}  cache_hits={cache_hits}")

    ok = True
    if closed_qps <= 0:
        print("FAIL: closed-loop baseline measured 0 qps — the server "
              "answered nothing")
        ok = False
    if light_ok <= 0:
        print("FAIL: light-load row completed 0 requests")
        ok = False
    else:
        if light_p99 > args.light_p99_us:
            print(f"FAIL: light-load p99 {light_p99:.0f}us > "
                  f"{args.light_p99_us:.0f}us — batching/hedging is "
                  "pushing the tail out under light load")
            ok = False
        if closed_p50 > CLOSED_TO_LIGHT_P50 * light_p50:
            print(f"FAIL: closed-loop p50 {closed_p50:.0f}us > "
                  f"{CLOSED_TO_LIGHT_P50:g} x light-load p50 "
                  f"{light_p50:.0f}us — requests are waiting for company "
                  "instead of running")
            ok = False
    if saturated_busy <= 0:
        print("FAIL: saturation row shed nothing (busy=0) — admission "
              "control never engaged past the in-flight budget")
        ok = False
    if total_errors > 0:
        print(f"FAIL: {total_errors} transport error(s) across the sweep")
        ok = False
    if cache_hits <= 0:
        print("FAIL: cache_hits=0 — the Zipf workload never hit the "
              "result cache")
        ok = False

    print("PASS" if ok else "check_serve_bench: regression detected")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
