#!/usr/bin/env python3
"""Gate on a bench's JSON output: check_bench.py FILE

The file's basename picks the table of rules it must pass:

  BENCH_shard.json (bench_shard_scaling)
    - the 8-shard row's dispatch efficiency, the fraction of the machine
      the lanes kept busy doing query work, is at least 0.5. It does not
      depend on the runner's core count, as raw QPS does.
  BENCH_join.json (bench_join)
    - every row reports the same nonzero pair count: a backend that wins
      by emitting fewer pairs is wrong, not fast;
    - PRETTI's pairs/s is at least the tree-vs-tree baseline's (a ratio on
      one machine, so no absolute floor);
    - `sharded_matches` is true: the sharded merge stayed byte-identical
      to the single-index join.
  BENCH_serve.json (bench_serve)
    - the light-load (first sweep) row's p99, timed from the open-loop
      schedule so queueing counts, is at most 30000 us;
    - the closed-loop p50 is at most 4x the light-load p50: four
      closed-loop clients never fill a batch, so a batcher that waits for
      company shows here;
    - past saturation (the last sweep row) admission control sheds:
      busy > 0;
    - no transport errors, a nonzero closed-loop QPS, and a Zipf workload
      that hit the result cache.

Exit 0 = pass. Exit 1 = a rule failed, or the file is missing, unreadable
or incomplete. Exit 2 = bad usage. Every failure is one `FAIL:` line,
never a traceback: this runs as a CI gate, and "the bench crashed before
writing its JSON" must read as exactly that, not as a KeyError.
"""

import json
import os
import sys

SHARD_ROW = 8            # Shard count of the gated bench_shard_scaling row.
MIN_EFFICIENCY = 0.5     # Dispatch-efficiency floor of that row.
MIN_SPEEDUP = 1.0        # Required PRETTI / tree pairs-per-second ratio.
LIGHT_P99_US = 30000.0   # Ceiling on the light-load row's p99.
CLOSED_TO_LIGHT_P50 = 4.0  # Ceiling on closed-loop p50 / light-load p50.


class Refusal(Exception):
    """A file the rules cannot be applied to; the message is one line."""


def number(obj, key, where, kind=float):
    try:
        return kind(obj[key])
    except KeyError as err:
        raise Refusal(f"{where} is missing field {err} — output from an "
                      "older format?") from None
    except (TypeError, ValueError) as err:
        raise Refusal(f"{where} has a non-numeric field: {err}") from None


def shard_rules(data):
    rows = [r for r in data["rows"] if isinstance(r, dict)]
    row = next((r for r in rows if r.get("shards") == SHARD_ROW), None)
    if row is None:
        have = sorted(r.get("shards") for r in rows)
        raise Refusal(f"no row with shards={SHARD_ROW} (rows present: "
                      f"{have})")
    where = f"shards={SHARD_ROW} row"
    measured = number(row, "measured_qps", where)
    efficiency = number(row, "efficiency", where)
    summary = (f"shards={SHARD_ROW} cores={data.get('cores')} "
               f"measured={measured:.1f} efficiency={efficiency:.3f}")
    return summary, [
        (efficiency >= MIN_EFFICIENCY,
         f"efficiency {efficiency:.3f} < {MIN_EFFICIENCY:.3f}"),
    ]


def join_rules(data):
    rows = {}
    for row in data["rows"]:
        if not isinstance(row, dict) or "algo" not in row:
            raise Refusal(f"malformed bench row {row!r}")
        rows[row["algo"]] = row
    missing = [a for a in ("tree", "pretti") if a not in rows]
    if missing:
        raise Refusal(f"bench rows missing algorithms: {', '.join(missing)}")
    pair_counts = {a: rows[a].get("pairs") for a in rows}
    tree_rate = number(rows["tree"], "pairs_per_sec", "tree row")
    pretti_rate = number(rows["pretti"], "pairs_per_sec", "pretti row")
    speedup = pretti_rate / tree_rate if tree_rate > 0 else 0.0
    matches = data.get("sharded_matches")
    summary = (f"pretti {pretti_rate:.0f} pairs/s = {speedup:.2f}x the tree "
               f"baseline ({tree_rate:.0f} pairs/s); pairs {pair_counts}; "
               f"sharded_matches={matches!r}")
    return summary, [
        (len(set(pair_counts.values())) == 1,
         f"algorithms disagree on the pair count: {pair_counts} — a join "
         "backend is dropping or inventing pairs"),
        (bool(pair_counts["tree"]),
         "the join produced zero pairs — the workload cannot distinguish "
         "the backends"),
        (matches is True,
         "sharded join merge is not byte-identical to the single-index join "
         f"(sharded_matches = {matches!r})"),
        (tree_rate > 0,
         f"tree baseline reported non-positive pairs_per_sec ({tree_rate})"),
        (tree_rate <= 0 or speedup >= MIN_SPEEDUP,
         f"pretti ({pretti_rate:.0f} pairs/s) is only {speedup:.2f}x the "
         f"tree baseline ({tree_rate:.0f} pairs/s); required "
         f">= {MIN_SPEEDUP:.2f}x"),
    ]


def serve_rules(data):
    rows = [r for r in data["rows"] if isinstance(r, dict)]
    if len(rows) < 2:
        raise Refusal("need at least 2 sweep rows (light load + "
                      f"saturation), got {len(rows)}")
    light, saturated = rows[0], rows[-1]
    closed = data.get("closed_loop")
    if not isinstance(closed, dict):
        raise Refusal("bench output is missing field 'closed_loop' — "
                      "output from an older format?")
    closed_qps = number(closed, "qps", "closed_loop")
    closed_p50 = number(closed, "p50_us", "closed_loop")
    light_p50 = number(light, "p50_us", "light-load row")
    light_p99 = number(light, "p99_us", "light-load row")
    light_ok = number(light, "ok", "light-load row", int)
    busy = number(saturated, "busy", "saturation row", int)
    cache_hits = number(data, "cache_hits", "bench output", int)
    errors = sum(number(r, "errors", "sweep row", int)
                 for r in rows + [closed] if "errors" in r)
    summary = (f"closed_loop={closed_qps:.0f} qps p50={closed_p50:.0f}us  "
               f"light: offered={light.get('offered_qps')} ok={light_ok} "
               f"p50={light_p50:.0f}us p99={light_p99:.0f}us  "
               f"saturated: offered={saturated.get('offered_qps')} "
               f"busy={busy}  cache_hits={cache_hits}")
    return summary, [
        (closed_qps > 0, "closed-loop baseline measured 0 qps — the server "
         "answered nothing"),
        (light_ok > 0, "light-load row completed 0 requests"),
        (light_ok <= 0 or light_p99 <= LIGHT_P99_US,
         f"light-load p99 {light_p99:.0f}us > {LIGHT_P99_US:.0f}us — "
         "batching is pushing the tail out under light load"),
        (light_ok <= 0 or closed_p50 <= CLOSED_TO_LIGHT_P50 * light_p50,
         f"closed-loop p50 {closed_p50:.0f}us > {CLOSED_TO_LIGHT_P50:g} x "
         f"light-load p50 {light_p50:.0f}us — requests are waiting for "
         "company instead of running"),
        (busy > 0, "saturation row shed nothing (busy=0) — admission "
         "control never engaged past the in-flight budget"),
        (errors == 0, f"{errors} transport error(s) across the sweep"),
        (cache_hits > 0, "cache_hits=0 — the Zipf workload never hit the "
         "result cache"),
    ]


# Basename -> (the bench that writes the file, its table of rules).
GATES = {
    "BENCH_shard.json": ("bench_shard_scaling", shard_rules),
    "BENCH_join.json": ("bench_join", join_rules),
    "BENCH_serve.json": ("bench_serve", serve_rules),
}


def check(path):
    """Returns the output lines and whether every rule passed."""
    name = os.path.basename(path)
    if name not in GATES:
        return [f"FAIL: no rules for {name} (expected one of: "
                f"{', '.join(GATES)})"], False
    bench, rules = GATES[name]
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as err:
        return [f"FAIL: cannot read {path}: {err.strerror or err} "
                f"(did {bench} run and write its JSON?)"], False
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        return [f"FAIL: {path} is not valid JSON ({err}) — truncated or "
                "partially written bench output?"], False
    if not isinstance(data, dict) or not isinstance(data.get("rows"), list) \
            or not data["rows"]:
        return [f"FAIL: {path} has no 'rows' — empty or incomplete bench "
                "output"], False
    try:
        summary, table = rules(data)
    except Refusal as err:
        return [f"FAIL: {err}"], False
    failures = [f"FAIL: {message}" for ok, message in table if not ok]
    return [summary] + (failures or ["PASS"]), not failures


def main(argv):
    if len(argv) != 2:
        print(f"usage: {argv[0]} FILE")
        return 2
    lines, ok = check(argv[1])
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
