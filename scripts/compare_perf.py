#!/usr/bin/env python3
"""Gate perf-bench results against the committed baseline.

Usage: compare_perf.py BASELINE.json CURRENT.json [CURRENT2.json ...]

Each file is a BENCH_perf.json written by `bench_perf_checker --json`
or `bench_perf_scheduler --json` (see bench/perf_json.h). The gate:

  - every benchmark in the baseline must be present in some current
    file, and every current result must have a baseline entry (a new
    benchmark is gated from the change that adds it, never silently
    skipped);
  - fingerprints must match bit-for-bit (the engines made identical
    scheduling decisions - wall-time wins must not change behavior);
    entries without a fingerprint (e.g. bench_store_coldstart's
    disk/memory wall ratio, whose schedule identity is asserted
    in-process) skip this check;
  - the checks-per-work metric (checks_per_attempt / checks_per_op)
    must not regress by more than TOLERANCE (5%);
  - a baseline entry carrying "band": [lo, hi] gates its metric inside
    that inclusive range instead - bench_net_throughput's shed_rate
    uses this, since a rate is sane within a band rather than
    monotonically better when smaller.

Wall time and throughput are reported but not gated: CI machines are
too noisy for a hard wall-clock threshold, while check counts and
fingerprints are deterministic.
"""

import json
import sys

TOLERANCE = 0.05

METRICS = ("checks_per_attempt", "checks_per_op", "shed_rate",
           "exact_rate", "disk_memory_ratio")


def load(path):
    with open(path) as f:
        doc = json.load(f)
    out = {}
    for entry in doc["results"]:
        out[entry["name"]] = entry
    return out


def metric(entry):
    for name in METRICS:
        if name in entry:
            return name, float(entry[name])
    raise KeyError(f"no checks metric in {entry['name']}: {entry}")


def main(argv):
    if len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    baseline = load(argv[1])
    current = {}
    for path in argv[2:]:
        current.update(load(path))

    failures = [f"{name}: no baseline entry (record one in the baseline "
                "so the result is gated)"
                for name in sorted(current.keys() - baseline.keys())]
    for name, base in sorted(baseline.items()):
        cur = current.get(name)
        if cur is None:
            failures.append(f"{name}: missing from current results")
            continue
        if "fingerprint" in base and \
                str(base["fingerprint"]) != str(cur.get("fingerprint")):
            failures.append(
                f"{name}: fingerprint changed "
                f"{base['fingerprint']} -> {cur['fingerprint']} "
                "(scheduling decisions are no longer bit-identical)")
        mname, bval = metric(base)
        _, cval = metric(cur)
        if "band" in base:
            lo, hi = (float(v) for v in base["band"])
            bad = not (lo <= cval <= hi)
            status = "FAIL" if bad else "ok"
            print(f"{status:4} {name:40} {mname} {cval:.4f} "
                  f"(band [{lo:.4f}, {hi:.4f}])  wall "
                  f"{base['wall_ms']:.3f}ms -> {cur['wall_ms']:.3f}ms")
            if bad:
                failures.append(
                    f"{name}: {mname} {cval:.4f} outside sanity band "
                    f"[{lo:.4f}, {hi:.4f}]")
            continue
        limit = bval * (1 + TOLERANCE)
        status = "FAIL" if cval > limit else "ok"
        print(f"{status:4} {name:40} {mname} {bval:.4f} -> {cval:.4f} "
              f"(limit {limit:.4f})  wall {base['wall_ms']:.3f}ms -> "
              f"{cur['wall_ms']:.3f}ms")
        if cval > limit:
            failures.append(
                f"{name}: {mname} regressed {bval:.4f} -> {cval:.4f} "
                f"(> {TOLERANCE:.0%} over baseline)")

    if failures:
        print("\nperf gate FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"\nperf gate passed: {len(baseline)} benchmarks within "
          f"{TOLERANCE:.0%} of baseline, fingerprints identical")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
