#!/usr/bin/env python3
"""Validate a stats document against the stable schema (DESIGN.md
section 14 / src/service/stats.h).

Usage: check_stats_schema.py <file> [--min-requests N] [--shards N]

The document is the last non-empty line of <file>, so the output of
`mdesc stat --json`, `mdesc batch --json` (request summaries precede the
document) and `mdesc serve --json` can be checked as written. Every
section must be present; every series' buckets must sum to its count;
`errors` must sum to `lifetime.errors`; `lifetime.shed` must equal
`errors.overloaded`; `scheduling.checks_per_attempt` must equal
`resource_checks / attempts` (0 without attempts).

With --shards N the document must be a fleet view: "shards" plus
"stale_shards" must account for N processes, and "per_shard" (one row
per shard with its pid, restarts and state) and "supervision" must be
present. Exits non-zero with a message naming the first violated
expectation.
"""

import argparse
import json
import sys

STAGES = ("queue", "compile", "workload", "schedule", "verify")
NUMBER = (int, float)


def fail(msg):
    print(f"stats schema violation: {msg}", file=sys.stderr)
    sys.exit(1)


def require(obj, key, kinds, where):
    if key not in obj:
        fail(f"missing '{where}.{key}'")
    value = obj[key]
    # bool is an int in Python, but a flag is never a number.
    if not isinstance(value, kinds) or \
            (isinstance(value, bool) and kinds is not bool):
        fail(f"'{where}.{key}' is {type(value).__name__}, wanted {kinds}")
    return value


def counts(obj, keys, where):
    for key in keys:
        value = require(obj, key, int, where)
        if not 0 <= value < 2 ** 64:
            fail(f"'{where}.{key}' = {value} is not a u64")


def check_buckets(obj, where, limit=None):
    buckets = require(obj, "buckets", list, where)
    if limit is not None and len(buckets) > limit:
        fail(f"'{where}': {len(buckets)} buckets, at most {limit}")
    if not all(isinstance(b, int) and b >= 0 for b in buckets):
        fail(f"'{where}': a bucket is not a count")
    if sum(buckets) != obj["count"]:
        fail(f"'{where}': bucket sum {sum(buckets)} != count "
             f"{obj['count']}")


def check_series(obj, where):
    counts(obj, ("count", "total_us", "max_us", "p50_us", "p95_us",
                 "p99_us"), where)
    require(obj, "mean_us", NUMBER, where)
    check_buckets(obj, where, limit=65)


def check_view(obj, where):
    counts(obj, ("horizon_s", "requests", "ok", "errors", "shed",
                 "p50_us", "p95_us", "p99_us", "max_us"), where)
    for key in ("rate_per_s", "mean_us"):
        require(obj, key, NUMBER, where)
    if obj["requests"] != obj["ok"] + obj["errors"]:
        fail(f"'{where}': requests != ok + errors")


def section(doc, key, where=""):
    return require(doc, key, dict, where)


def check_metrics(doc):
    lifetime = section(doc, "lifetime")
    counts(lifetime, ("requests", "ok", "errors", "shed"), "lifetime")
    check_series(lifetime, "lifetime")
    if lifetime["requests"] != lifetime["ok"] + lifetime["errors"]:
        fail("'lifetime': requests != ok + errors")

    errors = section(doc, "errors")
    counts(errors, errors.keys(), "errors")
    if sum(errors.values()) != lifetime["errors"]:
        fail(f"errors sum {sum(errors.values())} != lifetime.errors "
             f"{lifetime['errors']}")
    if lifetime["shed"] != require(errors, "overloaded", int, "errors"):
        fail(f"lifetime.shed {lifetime['shed']} != errors.overloaded "
             f"{errors['overloaded']}")

    cache = section(doc, "cache")
    counts(cache, ("hits", "misses", "compiles", "evictions", "size",
                   "capacity"), "cache")
    require(cache, "hit_rate", NUMBER, "cache")
    disk = section(cache, "disk", "cache")
    require(disk, "enabled", bool, "cache.disk")
    counts(disk, ("hits", "misses", "stores", "corrupt", "stale",
                  "evictions", "retries"), "cache.disk")
    require(disk, "hit_rate", NUMBER, "cache.disk")

    robustness = section(doc, "robustness")
    counts(robustness, ("requests_shed", "degraded_responses", "retries",
                        "breaker_trips", "breaker_fast_fails",
                        "degraded_compiles"), "robustness")
    if robustness["requests_shed"] != lifetime["shed"]:
        fail("robustness.requests_shed != lifetime.shed")
    sites = section(robustness, "fault_sites", "robustness")
    for name, site in sites.items():
        where = f"robustness.fault_sites.{name}"
        counts(site, ("evaluations", "fires"), where)
        if site["fires"] > site["evaluations"]:
            fail(f"'{where}': more fires than evaluations")

    latency = section(doc, "latency")
    for stage in STAGES:
        check_series(section(latency, stage, "latency"), f"latency.{stage}")
    if "total" in latency:
        fail("'latency.total' repeats the lifetime series")

    windows = section(doc, "windows")
    slots = require(windows, "slots", list, "windows")
    for i, slot in enumerate(slots):
        counts(slot, ("epoch", "requests", "ok", "errors", "shed"),
               f"windows.slots[{i}]")
        check_series(slot, f"windows.slots[{i}]")
    check_view(section(windows, "w10", "windows"), "windows.w10")
    check_view(section(windows, "w60", "windows"), "windows.w60")
    if windows["w10"]["horizon_s"] != 10 or \
            windows["w60"]["horizon_s"] != 60:
        fail("window horizons are not 10/60")

    scheduling = section(doc, "scheduling")
    counts(scheduling,
           ("ops_scheduled", "blocks_scheduled", "total_schedule_length",
            "attempts", "resource_checks", "prefilter_hits",
            "probe_fastpath"), "scheduling")
    ratio = require(scheduling, "checks_per_attempt", NUMBER, "scheduling")
    attempts = scheduling["attempts"]
    want = scheduling["resource_checks"] / attempts if attempts else 0
    if abs(ratio - want) > 1e-9 * abs(want):
        fail(f"scheduling.checks_per_attempt {ratio} != resource_checks / "
             f"attempts {want}")

    exact = section(doc, "exact")
    counts(exact, ("blocks", "proven_optimal", "root_proofs",
                   "budget_exhausted", "gap_cycles", "nodes",
                   "bound_prunes", "dominance_prunes", "probes"), "exact")
    if exact["root_proofs"] > exact["proven_optimal"]:
        fail("'exact': more root proofs than proven blocks")
    counts(section(exact, "wins", "exact"),
           ("list", "backward", "modulo", "exact"), "exact.wins")

    trace = section(doc, "trace")
    effects = section(trace, "transform_effects", "trace")
    counts(effects, ("merged_options", "merged_or_trees", "merged_trees",
                     "removed_dead", "redundant_options_removed",
                     "trees_reordered", "usages_hoisted",
                     "resources_shifted"), "trace.transform_effects")
    apo = section(trace, "attempts_per_op", "trace")
    counts(apo, ("count", "max"), "trace.attempts_per_op")
    require(apo, "mean", NUMBER, "trace.attempts_per_op")
    check_buckets(apo, "trace.attempts_per_op")
    conflicts = section(trace, "resource_conflicts", "trace")
    counts(conflicts, conflicts.keys(), "trace.resource_conflicts")

    net = section(doc, "net")
    require(net, "enabled", bool, "net")
    counts(net, ("accepted", "closed", "active", "resets", "frames_in",
                 "frames_out", "bytes_in", "bytes_out", "protocol_errors",
                 "bad_requests", "shed", "deadline_expired",
                 "backpressure_stalls", "cancelled_on_close",
                 "stats_requests", "stats_coalesced", "draining_shed"),
           "net")
    return lifetime, windows


def check_fleet(doc, shards, stale, expected):
    if shards + stale != expected:
        fail(f"shards {shards} + stale {stale} != {expected}")
    per_shard = require(doc, "per_shard", list, "")
    if len(per_shard) != expected:
        fail(f"per_shard has {len(per_shard)} rows, wanted {expected}")
    for i, row in enumerate(per_shard):
        where = f"per_shard[{i}]"
        counts(row, ("shard", "requests", "w60_requests", "w60_p99_us",
                     "restarts"), where)
        require(row, "stale", bool, where)
        require(row, "w60_rate_per_s", NUMBER, where)
        require(row, "pid", int, where)
        state = require(row, "state", str, where)
        if state not in ("live", "backoff", "quarantined", "exited",
                         "stale"):
            fail(f"{where}.state '{state}' is not one "
                 "of live/backoff/quarantined/exited/stale")
    if sum(row["requests"] for row in per_shard) != \
            doc["lifetime"]["requests"]:
        fail("per_shard requests do not sum to lifetime.requests")

    sup = section(doc, "supervision")
    health = require(sup, "health", str, "supervision")
    if health not in ("ready", "draining", "degraded"):
        fail(f"supervision.health '{health}' is not one of "
             "ready/draining/degraded")
    counts(sup, ("restarts", "crashes", "wedged_shards", "quarantined"),
           "supervision")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("path")
    ap.add_argument("--min-requests", type=int, default=0)
    ap.add_argument("--shards", type=int, default=0)
    args = ap.parse_args()

    with open(args.path) as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    if not lines:
        fail(f"{args.path} is empty")
    doc = json.loads(lines[-1])

    counts(doc, ("now_s", "shards", "stale_shards"), "")
    shards, stale = doc["shards"], doc["stale_shards"]
    lifetime, windows = check_metrics(doc)
    if lifetime["requests"] < args.min_requests:
        fail(f"lifetime.requests {lifetime['requests']} < "
             f"{args.min_requests}")

    if args.shards:
        check_fleet(doc, shards, stale, args.shards)

    print(f"stats schema ok: {lifetime['requests']} requests, "
          f"{shards} shard(s), {stale} stale, "
          f"w60 p99 {windows['w60']['p99_us']}us")


if __name__ == "__main__":
    main()
