#!/usr/bin/env python3
"""The stfw benchmark: one command for every workload in BENCHMARK.json.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

Builds perfbench/ (the stfw libraries plus the stfw_perfbench binary, a
Release CMake build under $CARGO_TARGET_DIR or .bench_build), runs the
requested workloads, prints every metric by name with its unit, the run
fingerprint, and as the last line one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 reports the end-to-end metrics;
--trace 1 reruns the workload with spans and reports the per-layer metrics,
a per-span self-time summary and the tracing overhead, and leaves a Chrome
trace under <build dir>/runs/. Exits 1 when any output was wrong, 2 when the
benchmark could not run (and then prints no result). See perfbench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402

SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
# Layers whose spans sit inside timed ops (see src/trace.hpp for the names).
SELF_TIME_LAYERS = ("bench", "spmv", "runtime")


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_root():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return base if os.path.isabs(base) else os.path.join(ROOT, base)


def call(cmd, timeout):
    try:
        subprocess.run(cmd, check=True, timeout=timeout, stdout=sys.stderr, cwd=ROOT)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        raise BenchError("%s: %s" % (os.path.basename(cmd[0]), e))


def build():
    """Configures (once) and builds stfw_perfbench; returns its path."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("stfw sources (src/) not found next to perfbench/")
    cmake = shutil.which("cmake")
    if cmake is None:
        raise BenchError("cmake not found")
    bdir = os.path.join(build_root(), "perfbench")
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        call([cmake, "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"] + gen,
             BUILD_TIMEOUT_S)
    call([cmake, "--build", bdir, "-j", str(min(4, os.cpu_count() or 1))], BUILD_TIMEOUT_S)
    return os.path.join(bdir, "stfw_perfbench")


def run_binary(binary, workload, seed, seconds, trace):
    runs = os.path.join(build_root(), "runs")
    os.makedirs(runs, exist_ok=True)
    out = os.path.join(runs, "%s.seed%d.trace%d.raw.json" % (workload, seed, trace))
    trace_file = os.path.join(runs, "%s.trace.json" % workload)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds",
           repr(float(seconds)), "--trace", str(trace), "--out", out]
    if trace:
        cmd += ["--trace-file", trace_file]
    if os.path.exists(out):
        os.remove(out)
    call(cmd, RUN_TIMEOUT_S)
    with open(out) as f:
        return json.load(f), (trace_file if trace else None)


def end_to_end(raw):
    """{metric: (value, sample count)} of an untraced run."""
    ops = raw["op_ms"]
    done = raw["timed_ops"]
    if not ops or done <= 0:
        raise BenchError("no op completed; first failure: %s" % raw["first_mismatch"])
    return {
        "setup_s": (stats.median(raw["setup_s"]), len(raw["setup_s"])),
        "op_ms_p50": (stats.percentile(ops, 50), len(ops)),
        "ops_per_s": (done / raw["timed_s"], done),
        "cpu_ms_per_op": (1e3 * (raw["cpu_user_s"] + raw["cpu_sys_s"]) / done, done),
        "peak_rss_mb": (raw["peak_rss_mb"], 1),
    }


def cpu_split(raw):
    """User and sys CPU per completed op of the untraced timed loop. Kept
    out of the end-to-end set because sys time reads 0 on the simulator."""
    done = raw["timed_ops"]
    return {"cpu.user_ms_per_op": (1e3 * raw["cpu_user_s"] / done if done else None, done),
            "cpu.sys_ms_per_op": (1e3 * raw["cpu_sys_s"] / done if done else None, done)}


def per_layer(raw, trace_file):
    """{metric: (value, sample count)} of a traced run, plus the self-time
    summary of its timed ops."""
    out = {k: (v, None) for k, v in raw["layer"].items()}
    for name, values in raw["samples"].items():
        if name == "runtime.exchange_us":
            out[name + "_p50"] = (stats.percentile(values, 50), len(values))
            out[name + "_p95"] = (stats.percentile(values, 95), len(values))
        else:
            out[name] = (stats.median(values), len(values))
    out["op_ms_p95"] = (stats.percentile(raw["op_ms"], 95), len(raw["op_ms"]))
    untraced = stats.median(raw["op_ms"])
    traced = stats.median(raw["traced_op_ms"])
    overhead = traced / untraced - 1 if untraced and traced else None
    out["bench.trace_overhead_frac"] = (overhead, len(raw["traced_op_ms"]))
    out.update(cpu_split(raw))
    with open(trace_file) as f:
        summary = stats.summarise(stats.load_spans(json.load(f)))
    ops = raw["traced_ops"]
    layer_ms = stats.layer_self_ms(summary)
    for layer in SELF_TIME_LAYERS:
        out["self_ms_per_op." + layer] = (layer_ms.get(layer, 0.0) / ops if ops else None, ops)
    return out, summary, (untraced, traced)


def fmt(v):
    return "%.6g" % v


def run_one(binary, spec, workload, seed, seconds, trace):
    raw, trace_file = run_binary(binary, workload, seed, seconds, trace)
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    if trace:
        measured, summary, (untraced, traced) = per_layer(raw, trace_file)
    else:
        measured = end_to_end(raw)
    names = {m["name"] for m in declared}
    if set(measured) != names:
        raise BenchError("metrics out of step with BENCHMARK.json: missing %s, undeclared %s"
                         % (sorted(names - set(measured)), sorted(set(measured) - names)))

    print("== %s  seed %d  %gs  trace %d ==" % (workload, seed, seconds, trace))
    metrics = {}
    counts = {}
    for m in declared:
        value, n = measured[m["name"]]
        value = 0.0 if value is None else float(value)
        if not math.isfinite(value):
            raise BenchError("%s is not finite" % m["name"])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        counts[m["name"]] = n
        print("  %-40s %14s %-8s%s" % (m["name"], fmt(value), m["unit"],
                                       "" if n is None else "  (n=%d)" % n))
    attempted, failed = raw["attempted"], raw["failed"]
    print("  %-40s %14s %-8s  (%d of %d ops)" % (
        "failed_frac", fmt(failed / attempted if attempted else 1.0), "ratio", failed, attempted))
    if not trace:
        # Reported unbounded: on a shared machine, bursts of load swing the
        # tail of a 20 s run by more than any bound could tolerate.
        ops = raw["op_ms"]
        tail = stats.tail_percentile(len(ops))
        if tail is not None:
            print("  %-40s %14s %-8s  (unbounded; %d of %d samples beyond it)" % (
                "op_ms_p%g" % tail, fmt(stats.percentile(ops, tail)), "ms",
                stats.samples_beyond(len(ops), tail), len(ops)))
        for name, (value, _) in cpu_split(raw).items():
            print("  %-40s %14s %-8s  (unbounded)" % (name, fmt(value), "ms"))
    else:
        print("  tracing overhead: traced op_ms_p50 %s ms vs untraced %s ms (%+.2f%%)" % (
            fmt(traced), fmt(untraced), 100 * (traced / untraced - 1)))
        print("  timed-op spans, self time summed over tracks (trace: %s):" % trace_file)
        for line in stats.format_summary(summary, raw["traced_ops"]).splitlines():
            print("    " + line)
    if raw["first_mismatch"]:
        print("  FIRST MISMATCH: " + raw["first_mismatch"])
    fingerprint = dict(raw["fingerprint"], samples=counts)
    print("fingerprint: " + json.dumps(fingerprint, sort_keys=True))
    result = {"correct": failed == 0 and attempted >= 1, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    with open(os.path.join(build_root(), "runs", "%s.seed%d.trace%d.result.json"
                           % (workload, seed, trace)), "w") as f:
        json.dump({"fingerprint": fingerprint, "result": result}, f, indent=1)
    return result


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=workloads + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds is not None and args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def main(argv):
    try:
        with open(SPEC_PATH) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        log("run.py: cannot read %s: %s" % (SPEC_PATH, e))
        return 2
    workloads = [w["name"] for w in spec["workloads"]]
    args = parse_args(argv, workloads)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    chosen = workloads if args.workload == "all" else [args.workload]
    try:
        binary = build()
        results = {w: run_one(binary, spec, w, args.seed, seconds, args.trace) for w in chosen}
    except BenchError as e:
        log("run.py: " + str(e))
        return 2
    if len(chosen) == 1:
        final = results[chosen[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {"%s.%s" % (w, k): v for w, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
