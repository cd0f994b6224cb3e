"""Helpers of the end-to-end benchmark: percentiles, span folding, VmHWM.

Kept free of I/O so test_benchlib.py can pin each rule on small inputs.
"""

import math


def percentile(samples, p):
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def reportable_percentile(n, wanted):
    """The percentile to report for a wanted one over n samples: `wanted`
    when at least ten samples lie beyond it, else the highest percentile
    (to 0.1) that keeps ten beyond, and never below the median."""
    def beyond(p):
        return n - max(1, math.ceil(p / 100.0 * n))

    if beyond(wanted) >= 10:
        return wanted
    p = math.floor(1000.0 * (n - 10) / n) / 10.0 if n > 10 else 50.0
    while p > 50.0 and beyond(p) < 10:
        p = round(p - 0.1, 1)
    return max(p, 50.0)


def tail(samples, wanted):
    """(value, percentile used) under reportable_percentile."""
    p = reportable_percentile(len(samples), wanted)
    return percentile(samples, p), p


def fold_spans(events):
    """Folds Chrome trace "X" events into per-name self and inclusive time.

    Each event carries args.span / args.parent ids (per pid).  A span's self
    time is its duration minus the union of its children's intervals,
    clipped to the span.  A span still open when the trace was written has
    dur 0; it is taken to end where its last child ends.

    Returns {name: {"count", "incl_us", "self_us", "self": [per-span self]}}.
    """
    spans = {}
    children = {}
    for e in events:
        if e.get("ph") != "X":
            continue
        key = (e.get("pid", 0), e["args"]["span"])
        spans[key] = {"name": e["name"], "start": float(e["ts"]),
                      "end": float(e["ts"]) + float(e["dur"])}
        parent = e["args"].get("parent", 0)
        if parent:
            children.setdefault((key[0], parent), []).append(key)

    def end_of(key):
        span = spans[key]
        if span["end"] <= span["start"] and key in children:
            span["end"] = max(end_of(c) for c in children[key] if c in spans)
        return span["end"]

    folded = {}
    for key, span in spans.items():
        end = end_of(key)
        covered = 0.0
        reach = span["start"]
        intervals = sorted((spans[c]["start"], end_of(c))
                           for c in children.get(key, []) if c in spans)
        for lo, hi in intervals:
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        incl = end - span["start"]
        entry = folded.setdefault(span["name"],
                                  {"count": 0, "incl_us": 0.0, "self_us": 0.0, "self": []})
        entry["count"] += 1
        entry["incl_us"] += incl
        entry["self_us"] += incl - covered
        entry["self"].append(incl - covered)
    return folded


def spans_dropped(events, capacity=1 << 18):
    """True when a span log hit its capacity cap before it was rendered:
    ids are assigned to every opened span, so a stored span count below
    the highest id, or a full log, means records were refused."""
    ids = [e["args"]["span"] for e in events if e.get("ph") == "X"]
    instants = sum(1 for e in events if e.get("ph") == "i")
    if not ids:
        return False
    return max(ids) > len(ids) or len(ids) >= capacity or instants >= capacity


def parse_vmhwm_mb(status_text):
    """Peak resident set size (VmHWM) in MB from /proc/<pid>/status text."""
    for line in status_text.splitlines():
        if line.startswith("VmHWM:"):
            value, unit = line.split()[1:3]
            if unit != "kB":
                raise ValueError("unexpected VmHWM unit: " + unit)
            return int(value) / 1024.0
    raise ValueError("no VmHWM line in status text")
