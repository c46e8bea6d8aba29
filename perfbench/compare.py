#!/usr/bin/env python3
"""Compare benchmark results written by perfbench/run.py.

    python3 perfbench/compare.py --base A.json [A2.json ...] --new B.json [B2.json ...]

Each side's files must be runs of one workload and one --trace mode
(.bench_build/results/<workload>-seed<N>-trace<T>.json). The tool prints,
per metric, each side's median and the change as a share of the base
median. Wall-clock metrics (times and rates) are compared only when
every file carries the same host fingerprint: core count, CPU model,
SIMD backend, exec worker count, graph runners and service dispatchers.
Across different fingerprints it refuses them and compares only the
counts and ratios, and exits with status 3.
"""

import argparse
import json
import statistics
import sys

FINGERPRINT = ("nproc", "cpu_model", "simd", "exec_threads", "graph_runners",
               "service_dispatchers")
WALL_CLOCK_UNITS = {"s", "ms", "ns", "1/s", "points/s"}


def load(paths):
    records = []
    for path in paths:
        with open(path) as f:
            records.append(json.load(f))
    kinds = {(r["workload"], r["trace"]) for r in records}
    if len(kinds) != 1:
        sys.exit(f"compare.py: mixed workloads or trace modes: {sorted(kinds)}")
    return records


def fingerprint(record):
    return tuple(record["host"].get(k, "?") for k in FINGERPRINT)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    base, new = load(args.base), load(args.new)
    if (base[0]["workload"], base[0]["trace"]) != (new[0]["workload"],
                                                   new[0]["trace"]):
        sys.exit("compare.py: base and new are different workloads or modes")

    prints = {fingerprint(r) for r in base + new}
    same_host = len(prints) == 1
    if not same_host:
        print("host fingerprints differ; wall-clock metrics refused:")
        for p in sorted(prints):
            print("  " + ", ".join(f"{k}={v}" for k, v in zip(FINGERPRINT, p)))

    refused = 0
    names = sorted(set(base[0]["metrics"]) & set(new[0]["metrics"]))
    print(f"{'metric':44s} {'base':>14s} {'new':>14s} {'change':>9s}")
    for name in names:
        unit = base[0]["metrics"][name]["unit"]
        if unit in WALL_CLOCK_UNITS and not same_host:
            refused += 1
            continue
        b = statistics.median(r["metrics"][name]["value"] for r in base
                              if name in r["metrics"])
        n = statistics.median(r["metrics"][name]["value"] for r in new
                              if name in r["metrics"])
        change = f"{(n - b) / b:+.1%}" if b else "n/a"
        print(f"{name:44s} {b:14.6g} {n:14.6g} {change:>9s} {unit}")
    for side, records in (("base", base), ("new", new)):
        failed = sum(r["failed"] for r in records)
        attempted = sum(r["attempted"] for r in records)
        print(f"{side}: {len(records)} runs, failed {failed} of {attempted}")
    if refused:
        print(f"refused {refused} wall-clock metrics across host fingerprints")
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
