#!/usr/bin/env python3
"""Validate and diff BENCH_<name>.json perf-regression files.

Schema check (CI's bench-smoke job):

    python3 tools/compare_bench.py --schema BENCH_micro_exchange.json ...

Regression diff between a baseline run and a candidate run:

    python3 tools/compare_bench.py baseline.json candidate.json [--tolerance 0.25]

Overlap gate (CI's bench-smoke job, on BENCH_overlap.json):

    python3 tools/compare_bench.py --overlap-gate BENCH_overlap.json [--tolerance 0.05]

The gate picks the largest K present and fails if the "overlap" row's
wall_ns_per_iter is slower than the "sync" (overlap-off) row's beyond the
tolerance — communication/computation overlap must never cost time.

Rows are matched by their "name" key. Time-like metrics (keys ending in _ns,
_us or _ms, or named *time*) are regression-only: the candidate may be faster
by any amount, but slower than baseline by more than the tolerance fails.
Other numeric metrics must match within the tolerance in both directions.
Missing or extra rows fail. Exit status 0 = pass, 1 = regression/mismatch,
2 = malformed input. Missing files, globs that match nothing, and empty
"results" arrays are malformed input: a silent pass over an absent or empty
bench file would defeat the regression gate. Schema: docs/performance.md.
"""

import argparse
import glob
import json
import math
import sys

SCHEMA_VERSION = 1


def expand_paths(patterns):
    """Expand shell-style globs that reached us unexpanded.

    CI invokes this as `compare_bench.py --schema bench-json/BENCH_*.json`; if
    the bench never ran (or wrote nowhere), some shells hand us the literal
    pattern and a bare open() error ("No such file or directory:
    'BENCH_*.json'") buries the real cause. Expand here and fail loudly when a
    pattern matches nothing.
    """
    paths = []
    for pattern in patterns:
        if any(ch in pattern for ch in "*?["):
            matches = sorted(glob.glob(pattern))
            if not matches:
                print(f"error: {pattern!r} matched no files -- did the benchmark "
                      f"run and write its BENCH_*.json (STFW_BENCH_JSON_DIR)?",
                      file=sys.stderr)
                sys.exit(2)
            paths.extend(matches)
        else:
            paths.append(pattern)
    return paths


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except FileNotFoundError:
        print(f"error: {path} does not exist -- did the benchmark run and write "
              f"its BENCH_*.json (STFW_BENCH_JSON_DIR)?", file=sys.stderr)
        sys.exit(2)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def check_schema(path, doc):
    """Return a list of problems (empty = schema-valid)."""
    problems = []
    if not isinstance(doc, dict):
        return [f"{path}: top level is not an object"]
    for key, kind in (("bench", str), ("schema_version", int),
                      ("config", dict), ("results", list)):
        if key not in doc:
            problems.append(f"{path}: missing key {key!r}")
        elif not isinstance(doc[key], kind):
            problems.append(f"{path}: {key!r} is not a {kind.__name__}")
    if problems:
        return problems
    if doc["schema_version"] != SCHEMA_VERSION:
        problems.append(f"{path}: schema_version {doc['schema_version']} != {SCHEMA_VERSION}")
    if not doc["results"]:
        problems.append(f"{path}: 'results' is empty -- the benchmark produced no "
                        f"rows, which would make any regression diff vacuously pass")
    seen = set()
    for i, row in enumerate(doc["results"]):
        where = f"{path}: results[{i}]"
        if not isinstance(row, dict):
            problems.append(f"{where} is not an object")
            continue
        name = row.get("name")
        if not isinstance(name, str) or not name:
            problems.append(f"{where} has no string 'name'")
            continue
        if name in seen:
            problems.append(f"{where}: duplicate row name {name!r}")
        seen.add(name)
        for key, value in row.items():
            if key == "name":
                continue
            if isinstance(value, bool) or not isinstance(value, (int, float, str)):
                problems.append(f"{where} ({name}): metric {key!r} has unsupported type "
                                f"{type(value).__name__}")
            elif isinstance(value, float) and not math.isfinite(value):
                problems.append(f"{where} ({name}): metric {key!r} is not finite")
    return problems


def is_time_metric(key):
    tokens = key.lower().split("_")
    return any(t in ("ns", "us", "ms", "time") for t in tokens)


def rows_by_name(doc):
    return {row["name"]: row for row in doc["results"]}


def compare(base_path, cand_path, base, cand, tolerance):
    """Return a list of failures (empty = candidate within tolerance)."""
    failures = []
    base_rows, cand_rows = rows_by_name(base), rows_by_name(cand)
    for name in base_rows:
        if name not in cand_rows:
            failures.append(f"row {name!r} present in {base_path} but missing from {cand_path}")
    for name in cand_rows:
        if name not in base_rows:
            failures.append(f"row {name!r} appeared in {cand_path} but not in {base_path}")

    for name in sorted(set(base_rows) & set(cand_rows)):
        b, c = base_rows[name], cand_rows[name]
        for key in sorted(set(b) | set(c)):
            if key == "name":
                continue
            if key not in b or key not in c:
                failures.append(f"{name}: metric {key!r} present in only one run")
                continue
            bv, cv = b[key], c[key]
            if isinstance(bv, str) or isinstance(cv, str):
                if bv != cv:
                    failures.append(f"{name}: {key} changed {bv!r} -> {cv!r}")
                continue
            if bv == cv:
                continue
            scale = max(abs(bv), abs(cv), 1e-12)
            rel = (cv - bv) / scale
            if is_time_metric(key):
                if rel > tolerance:  # slower than baseline beyond tolerance
                    failures.append(f"{name}: {key} regressed {bv:g} -> {cv:g} "
                                    f"(+{rel * 100:.1f}% > {tolerance * 100:.0f}%)")
            elif abs(rel) > tolerance:
                failures.append(f"{name}: {key} drifted {bv:g} -> {cv:g} "
                                f"({rel * 100:+.1f}% beyond {tolerance * 100:.0f}%)")
    return failures


def overlap_gate(path, doc, tolerance):
    """Return a list of failures (empty = overlap pays for itself).

    Operates on one BENCH_overlap.json: at the largest K present, the
    "overlap" schedule must not be slower than the "sync" (overlap-off)
    schedule beyond the tolerance. Structural problems (no such rows, no
    timing metric) are reported as failures too -- a gate that cannot find
    its rows must not pass.
    """
    rows = [r for r in doc["results"] if isinstance(r.get("ranks"), int)
            and not isinstance(r.get("ranks"), bool)]
    if not rows:
        return [f"{path}: no rows carry an integer 'ranks' metric"]
    k = max(r["ranks"] for r in rows)
    by_mode = {r.get("mode"): r for r in rows if r["ranks"] == k}
    missing = [m for m in ("sync", "overlap") if m not in by_mode]
    if missing:
        return [f"{path}: no {m!r} row at K={k}" for m in missing]
    times = {}
    for mode in ("sync", "overlap"):
        v = by_mode[mode].get("wall_ns_per_iter")
        if isinstance(v, bool) or not isinstance(v, (int, float)) or v <= 0:
            return [f"{path}: {mode!r} row at K={k} has no positive 'wall_ns_per_iter'"]
        times[mode] = v
    rel = times["overlap"] / times["sync"] - 1.0
    if rel > tolerance:
        return [f"{path}: overlap slower than sync at K={k}: "
                f"{times['overlap']:g} ns vs {times['sync']:g} ns "
                f"(+{rel * 100:.1f}% > {tolerance * 100:.0f}%)"]
    print(f"ok: {path} overlap gate at K={k}: {times['overlap']:g} ns vs "
          f"{times['sync']:g} ns sync ({-rel * 100:+.1f}% faster)")
    return []


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("files", nargs="+", metavar="JSON",
                    help="--schema: one or more files; diff: baseline then candidate")
    ap.add_argument("--schema", action="store_true",
                    help="only validate the files against the BENCH_*.json schema")
    ap.add_argument("--overlap-gate", action="store_true",
                    help="gate each file: 'overlap' must not be slower than "
                         "'sync' at the largest K present")
    ap.add_argument("--tolerance", type=float, default=0.25,
                    help="relative tolerance for the diff (default 0.25)")
    args = ap.parse_args()

    docs = [(path, load(path)) for path in expand_paths(args.files)]
    problems = []
    for path, doc in docs:
        problems += check_schema(path, doc)
    if problems:
        for p in problems:
            print(f"SCHEMA FAIL: {p}", file=sys.stderr)
        sys.exit(2)

    if args.schema:
        for path, doc in docs:
            print(f"ok: {path} ({doc['bench']}, {len(doc['results'])} rows)")
        return

    if args.overlap_gate:
        if args.tolerance < 0:
            print("error: tolerance must be >= 0", file=sys.stderr)
            sys.exit(2)
        failures = []
        for path, doc in docs:
            failures += overlap_gate(path, doc, args.tolerance)
        if failures:
            for f in failures:
                print(f"FAIL: {f}", file=sys.stderr)
            sys.exit(1)
        return

    if len(docs) != 2:
        print("error: diff mode needs exactly two files (baseline candidate)", file=sys.stderr)
        sys.exit(2)
    if args.tolerance < 0:
        print("error: tolerance must be >= 0", file=sys.stderr)
        sys.exit(2)
    (base_path, base), (cand_path, cand) = docs
    failures = compare(base_path, cand_path, base, cand, args.tolerance)
    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        print(f"{len(failures)} failure(s) comparing {cand_path} against {base_path}",
              file=sys.stderr)
        sys.exit(1)
    common = len(set(r["name"] for r in base["results"]))
    print(f"ok: {cand_path} within {args.tolerance * 100:.0f}% of {base_path} ({common} rows)")


if __name__ == "__main__":
    main()
