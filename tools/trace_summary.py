#!/usr/bin/env python3
"""Summarize (or schema-check) a Chrome trace written by FDBSCAN_TRACE.

The exec runtime (src/exec/trace.h, DESIGN.md §8) emits one trace-event
JSON per run: kernel slices (cat "kernel", with args.kind in
worker/launch/inline and args.chunks) on one track per runtime thread,
nested under the algorithm-phase spans (cat "phase") and bench-entry
spans (cat "entry"), plus counter samples (ph "C", e.g. device_memory).
This tool turns that file into the tables the paper-style analysis
needs:

  * top-N kernels by total wall time, with launch counts, chunk counts,
    worker counts and load imbalance (busiest / mean busy worker — read
    together with workers: imbalance 1.0 on 1 worker is the degenerate
    single-thread case, not balance);
  * a per-phase critical path: for each phase span, the busy time of the
    busiest thread inside the span's window is the lower bound on the
    phase's runtime no amount of extra balance can beat;
  * counter peaks (device_memory -> peak bytes charged to the
    MemoryTracker);
  * a service breakdown when the trace carries cat "service" spans (the
    ClusterService dispatcher tracks): queue-wait vs run time per span
    name — how much of a request's latency was spent waiting for a
    dispatcher versus clustering;
  * with --per-request, the same spans grouped by the request id the
    service stamps into args.rid (obs::RequestScope, DESIGN.md §13):
    per-request queue-wait / run / shard-wave breakdowns, so one slow
    request can be told apart from uniformly slow traffic.

--validate additionally checks the id contract: every cat "service"
span must carry a positive integer args.rid — a service span without
one means a dispatch path lost its RequestScope.

Usage:
  trace_summary.py TRACE.json [--top N] [--per-request]
  trace_summary.py --validate TRACE.json [TRACE.json...]

Exit codes: 0 ok, 2 usage or schema error.

Stdlib only — no third-party dependencies.
"""

import argparse
import json
import sys
from collections import defaultdict

KERNEL_KINDS = ("worker", "launch", "inline")


class SchemaError(Exception):
    pass


def _expect(cond, msg):
    if not cond:
        raise SchemaError(msg)


def load_events(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON: {exc}") from exc
    _expect(isinstance(doc, dict), f"{path}: top level is not an object")
    events = doc.get("traceEvents")
    _expect(isinstance(events, list), f"{path}: missing traceEvents array")
    return events


def pair_slices(events, path="<trace>"):
    """Replays the per-tid B/E streams into completed slices, validating
    stack discipline (balanced, name-matched pairs) and per-tid timestamp
    monotonicity along the way.

    Returns (slices, counters): slices are dicts with tid/name/cat/begin/
    end/args (ts in microseconds); counters are (tid, ts, name, value).
    """
    stacks = defaultdict(list)   # tid -> [(name, ts, cat, args)]
    last_ts = {}                 # tid -> last B/E timestamp seen
    slices = []
    counters = []
    for i, ev in enumerate(events):
        where = f"{path}: traceEvents[{i}]"
        _expect(isinstance(ev, dict), f"{where} is not an object")
        ph = ev.get("ph")
        _expect(ph in ("B", "E", "M", "C"),
                f"{where}: unexpected ph {ph!r}")
        if ph == "M":
            _expect(isinstance(ev.get("name"), str), f"{where}: missing name")
            continue
        tid = ev.get("tid")
        _expect(isinstance(tid, int), f"{where}: missing tid")
        ts = ev.get("ts")
        _expect(isinstance(ts, (int, float)), f"{where}: missing ts")
        if ph == "C":
            args = ev.get("args")
            _expect(isinstance(args, dict) and "value" in args,
                    f"{where}: counter without args.value")
            counters.append((tid, ts, ev.get("name"), args["value"]))
            continue
        name = ev.get("name")
        _expect(isinstance(name, str) and name, f"{where}: missing name")
        _expect(ts >= last_ts.get(tid, 0.0),
                f"{where}: ts {ts} goes backwards on tid {tid}")
        last_ts[tid] = ts
        if ph == "B":
            cat = ev.get("cat")
            _expect(isinstance(cat, str) and cat, f"{where}: B without cat")
            if cat == "kernel":
                args = ev.get("args")
                _expect(isinstance(args, dict)
                        and args.get("kind") in KERNEL_KINDS
                        and isinstance(args.get("chunks"), int),
                        f"{where}: kernel B without args.kind/args.chunks")
            stacks[tid].append((name, ts, cat, ev.get("args") or {}))
        else:  # E
            _expect(stacks[tid],
                    f"{where}: E {name!r} on tid {tid} with empty stack")
            bname, bts, cat, args = stacks[tid].pop()
            _expect(bname == name,
                    f"{where}: E {name!r} does not match open B {bname!r} "
                    f"on tid {tid}")
            slices.append({"tid": tid, "name": name, "cat": cat,
                           "begin": bts, "end": ts, "args": args})
    for tid, stack in stacks.items():
        _expect(not stack,
                f"{path}: tid {tid} ends with unclosed slices "
                f"{[s[0] for s in stack]!r}")
    return slices, counters


def busy_union_ms(intervals):
    """Total measure of a union of [begin, end) intervals, in ms. Handles
    the nesting of inline slices inside worker slices without double
    counting."""
    total = 0.0
    end = -1.0
    for b, e in sorted(intervals):
        if b > end:
            total += e - b
            end = e
        elif e > end:
            total += e - end
            end = e
    return total / 1000.0


def kernel_table(slices):
    """Per-kernel aggregates, mirroring exec::trace_kernel_aggregates():
    wall stats from launch/inline slices (launches serialize, so their
    walls sum to the kernel's wall share), busy from worker/inline."""
    aggs = defaultdict(lambda: {"count": 0, "chunks": 0, "total_ms": 0.0,
                                "max_ms": 0.0, "busy": defaultdict(float)})
    for s in slices:
        if s["cat"] != "kernel":
            continue
        a = aggs[s["name"]]
        ms = (s["end"] - s["begin"]) / 1000.0
        kind = s["args"]["kind"]
        if kind != "worker":
            a["count"] += 1
            a["chunks"] += s["args"]["chunks"]
            a["total_ms"] += ms
            a["max_ms"] = max(a["max_ms"], ms)
        if kind != "launch":
            a["busy"][s["tid"]] += ms
    rows = []
    for name, a in aggs.items():
        busy = a["busy"].values()
        workers = len(busy)
        imbalance = (max(busy) * workers / sum(busy)
                     if workers and sum(busy) > 0 else 0.0)
        rows.append({"name": name, "count": a["count"], "chunks": a["chunks"],
                     "total_ms": a["total_ms"], "max_ms": a["max_ms"],
                     "workers": workers, "imbalance": imbalance})
    rows.sort(key=lambda r: -r["total_ms"])
    return rows


def phase_table(slices):
    """Per-phase critical path. For every phase span, clips each thread's
    busy kernel slices (worker/inline; launch windows include dispatcher
    wait and are excluded) to the span's window and takes the interval
    union per tid. The busiest thread's clipped busy is the critical
    path: the phase cannot run faster than that thread, however the rest
    of the work is balanced."""
    phases = defaultdict(lambda: {"wall_ms": 0.0, "spans": 0,
                                  "busy_ms": 0.0, "critical_ms": 0.0})
    busy_slices = [s for s in slices if s["cat"] == "kernel"
                   and s["args"]["kind"] != "launch"]
    for span in slices:
        if span["cat"] != "phase":
            continue
        p = phases[span["name"]]
        p["spans"] += 1
        p["wall_ms"] += (span["end"] - span["begin"]) / 1000.0
        per_tid = defaultdict(list)
        for s in busy_slices:
            b = max(s["begin"], span["begin"])
            e = min(s["end"], span["end"])
            if e > b:
                per_tid[s["tid"]].append((b, e))
        busy = {tid: busy_union_ms(iv) for tid, iv in per_tid.items()}
        p["busy_ms"] += sum(busy.values())
        p["critical_ms"] += max(busy.values(), default=0.0)
    rows = [{"name": name, **p} for name, p in phases.items()]
    rows.sort(key=lambda r: -r["wall_ms"])
    return rows


def service_table(slices):
    """Per-name aggregates over the ClusterService dispatcher spans
    (cat "service": service/queue-wait and service/run). Queue-wait spans
    are clamped to their dispatcher track (the true waits live in the
    service metrics histograms), so this reads as a per-track timeline
    breakdown: dispatcher time spent waiting for work vs running it."""
    aggs = defaultdict(lambda: {"count": 0, "total_ms": 0.0, "max_ms": 0.0})
    for s in slices:
        if s["cat"] != "service":
            continue
        a = aggs[s["name"]]
        ms = (s["end"] - s["begin"]) / 1000.0
        a["count"] += 1
        a["total_ms"] += ms
        a["max_ms"] = max(a["max_ms"], ms)
    rows = [{"name": name, **a} for name, a in sorted(aggs.items())]
    return rows


def check_request_ids(slices, path="<trace>"):
    """The id contract: every service span carries a positive args.rid.
    Other categories may or may not (spans recorded outside any request
    context legitimately have none)."""
    for s in slices:
        if s["cat"] != "service":
            continue
        rid = s["args"].get("rid")
        _expect(isinstance(rid, int) and rid > 0,
                f"{path}: service span {s['name']!r} on tid {s['tid']} "
                f"carries rid {rid!r} — a dispatch path lost its "
                "RequestScope")


def per_request_table(slices):
    """Groups spans by args.rid. Returns rows sorted by rid: per request,
    the queue-wait / run walls from its service spans and the count and
    summed wall of every other span category recorded in its context
    (phase spans, graph node spans)."""
    requests = defaultdict(lambda: defaultdict(
        lambda: {"count": 0, "total_ms": 0.0}))
    for s in slices:
        rid = s["args"].get("rid")
        if not isinstance(rid, int) or rid <= 0:
            continue
        key = (s["cat"], s["name"])
        cell = requests[rid][key]
        cell["count"] += 1
        cell["total_ms"] += (s["end"] - s["begin"]) / 1000.0
    rows = []
    for rid in sorted(requests):
        spans = requests[rid]
        wait = spans.get(("service", "service/queue-wait"),
                         {"total_ms": 0.0})["total_ms"]
        run = spans.get(("service", "service/run"),
                        {"total_ms": 0.0})["total_ms"]
        other = {f"{cat}:{name}": cell for (cat, name), cell in
                 sorted(spans.items()) if cat != "service"}
        rows.append({"rid": rid, "queue_wait_ms": wait, "run_ms": run,
                     "other": other})
    return rows


def print_per_request(slices):
    rows = per_request_table(slices)
    if not rows:
        print("\nno rid-tagged spans (run under a ClusterService with "
              "FDBSCAN_TRACE to get per-request breakdowns)")
        return
    print(f"\nper-request breakdown ({len(rows)} requests):")
    print(f"  {'rid':>6} {'wait ms':>9} {'run ms':>9}  spans in context")
    for r in rows:
        detail = ", ".join(
            f"{key} x{cell['count']} ({cell['total_ms']:.3f} ms)"
            for key, cell in r["other"].items())
        print(f"  {r['rid']:>6} {r['queue_wait_ms']:>9.3f} "
              f"{r['run_ms']:>9.3f}  {detail if detail else '-'}")


def print_summary(path, top, per_request=False):
    events = load_events(path)
    slices, counters = pair_slices(events, path)

    kernels = kernel_table(slices)
    total_ms = sum(r["total_ms"] for r in kernels)
    print(f"{path}: {len(events)} events, {len(kernels)} kernels, "
          f"{total_ms:.3f} ms total kernel wall")

    print(f"\ntop {min(top, len(kernels))} kernels by total wall time:")
    print(f"  {'kernel':<36} {'count':>6} {'chunks':>9} {'total ms':>10} "
          f"{'max ms':>9} {'wrk':>4} {'imbal':>6}")
    for r in kernels[:top]:
        print(f"  {r['name']:<36} {r['count']:>6} {r['chunks']:>9} "
              f"{r['total_ms']:>10.3f} {r['max_ms']:>9.3f} "
              f"{r['workers']:>4} {r['imbalance']:>6.2f}")

    phases = phase_table(slices)
    if phases:
        print("\nper-phase critical path (busiest thread inside the span; "
              "the floor on the phase's runtime):")
        print(f"  {'phase':<28} {'spans':>6} {'wall ms':>10} "
              f"{'busy ms':>10} {'crit ms':>9} {'par':>5}")
        for r in phases:
            par = r["busy_ms"] / r["critical_ms"] if r["critical_ms"] else 0.0
            print(f"  {r['name']:<28} {r['spans']:>6} {r['wall_ms']:>10.3f} "
                  f"{r['busy_ms']:>10.3f} {r['critical_ms']:>9.3f} "
                  f"{par:>5.2f}")

    service = service_table(slices)
    if service:
        print("\nservice spans (dispatcher-track queue-wait vs run):")
        print(f"  {'span':<28} {'count':>6} {'total ms':>10} {'mean ms':>9} "
              f"{'max ms':>9}")
        for r in service:
            mean = r["total_ms"] / r["count"] if r["count"] else 0.0
            print(f"  {r['name']:<28} {r['count']:>6} {r['total_ms']:>10.3f} "
                  f"{mean:>9.3f} {r['max_ms']:>9.3f}")

    if counters:
        peaks = defaultdict(int)
        for _, _, name, value in counters:
            peaks[name] = max(peaks[name], value)
        print("\ncounter peaks:")
        for name, peak in sorted(peaks.items()):
            if name == "device_memory":
                print(f"  {name}: {peak} bytes "
                      f"({peak / (1024.0 * 1024.0):.2f} MB peak)")
            else:
                print(f"  {name}: {peak}")

    if per_request:
        print_per_request(slices)

    unnamed = [r for r in kernels if r["name"] == "<unnamed>"]
    if unnamed:
        print(f"\nnote: {unnamed[0]['count']} launches are <unnamed> — "
              "route them through the labeled parallel_for overloads")


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("files", nargs="+", metavar="TRACE",
                        help="Chrome trace JSON written by FDBSCAN_TRACE")
    parser.add_argument("--validate", action="store_true",
                        help="only schema-check the given traces")
    parser.add_argument("--top", type=int, default=10, metavar="N",
                        help="kernels to show in the summary (default 10)")
    parser.add_argument("--per-request", action="store_true",
                        help="group service/phase/shard spans by their "
                             "args.rid request id")
    args = parser.parse_args(argv)

    try:
        if args.validate:
            for path in args.files:
                events = load_events(path)
                slices, counters = pair_slices(events, path)
                check_request_ids(slices, path)
                service = sum(1 for s in slices if s["cat"] == "service")
                print(f"ok: {path} ({len(events)} events, "
                      f"{len(slices)} slices, {len(counters)} counter "
                      f"samples, {service} service spans id-tagged)")
            return 0
        for path in args.files:
            print_summary(path, args.top, args.per_request)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
