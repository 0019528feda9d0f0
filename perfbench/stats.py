"""Statistics of the stfw benchmark: percentiles and trace self time.

Used by run.py to turn the raw measurements of stfw_perfbench into metrics,
and runnable on its own to summarise a trace:

    python3 perfbench/stats.py .bench_build/runs/dynamic_bl_k128.trace.json
"""

import json
import math
import sys

# Percentiles the tail rule picks from, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def nearest_rank(n, pct):
    """1-based rank of the nearest-rank pct of n samples (n >= 1). The small
    slack keeps 99.9% of 10000 at rank 9990 despite float rounding."""
    return max(1, math.ceil(pct * n / 100.0 - 1e-9))


def percentile(values, pct):
    """Nearest-rank percentile: the smallest sample with at least pct% of
    the samples at or below it. Returns a measured sample, never an
    interpolation. Empty input gives None."""
    if not values:
        return None
    ordered = sorted(values)
    return ordered[nearest_rank(len(ordered), pct) - 1]


def samples_beyond(n, pct):
    """How many of n samples lie above the nearest-rank pct."""
    return n - nearest_rank(n, pct) if n else 0


def tail_percentile(n):
    """The highest candidate percentile with at least MIN_BEYOND of n samples
    beyond it, or None when even the median has fewer."""
    for pct in TAIL_CANDIDATES:
        if samples_beyond(n, pct) >= MIN_BEYOND:
            return pct
    return None


def median(values):
    return percentile(values, 50.0)


def covered_length(start, end, intervals):
    """Length of [start, end] covered by the union of `intervals`."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals
                     if b > start and a < end)
    covered = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                covered += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        covered += cur_b - cur_a
    return covered


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    that the union of its children covers. Children may sit on other tracks
    (a rank's exchange under the main thread's Cluster::run) and may overlap
    each other. `spans` is a list of dicts with id, parent, ts and dur;
    returns {id: self time}, in the unit of ts and dur."""
    children = {}
    for s in spans:
        if s["parent"]:
            children.setdefault(s["parent"], []).append((s["ts"], s["ts"] + s["dur"]))
    out = {}
    for s in spans:
        kids = children.get(s["id"], ())
        out[s["id"]] = s["dur"] - covered_length(s["ts"], s["ts"] + s["dur"], kids)
    return out


def load_spans(trace):
    """Complete ("X") events of a Chrome trace written by stfw_perfbench."""
    spans = []
    for e in trace["traceEvents"]:
        if e.get("ph") != "X":
            continue
        args = e.get("args", {})
        spans.append({"id": args.get("id", 0), "parent": args.get("parent", 0),
                      "op": args.get("op", -1), "name": e["name"], "tid": e["tid"],
                      "ts": e["ts"], "dur": e["dur"]})
    return spans


def summarise(spans, only_ops=True):
    """Per span name: count, total and self time in ms. With only_ops, spans
    outside a timed op (set-up, probes) are left out."""
    selfs = self_times(spans)
    out = {}
    for s in spans:
        if only_ops and s["op"] < 0:
            continue
        row = out.setdefault(s["name"], {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
        row["count"] += 1
        row["total_ms"] += s["dur"] / 1e3
        row["self_ms"] += selfs[s["id"]] / 1e3
    return out


def layer_self_ms(summary):
    """Self time per layer: span names are '<layer>.<call>'."""
    out = {}
    for name, row in summary.items():
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + row["self_ms"]
    return out


def format_summary(summary, ops):
    lines = ["%-28s %8s %12s %12s %14s" % ("span", "count", "total_ms", "self_ms",
                                            "self_ms/op")]
    for name, row in sorted(summary.items(), key=lambda kv: -kv[1]["self_ms"]):
        lines.append("%-28s %8d %12.3f %12.3f %14.4f" % (
            name, row["count"], row["total_ms"], row["self_ms"],
            row["self_ms"] / ops if ops else 0.0))
    return "\n".join(lines)


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        trace = json.load(f)
    spans = load_spans(trace)
    ops = trace.get("metadata", {}).get("traced_ops", 0)
    print("timed-op spans (self time excludes child spans, summed over tracks):")
    print(format_summary(summarise(spans), ops))
    print("\nall spans, set-up and probes included:")
    print(format_summary(summarise(spans, only_ops=False), ops))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
