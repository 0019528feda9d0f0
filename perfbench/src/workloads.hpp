#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

/// \file workloads.hpp
/// The three closed-loop workloads of the stfw benchmark (see
/// perfbench/README.md for what each one exercises and why).
///
/// A workload sets itself up several times (setup_s is the median), then
/// runs ops back to back for the requested number of seconds, checking
/// every op's output against an oracle. With tracing on, untraced and traced
/// batches of ops alternate (the difference is the tracing overhead), and
/// probes of single layers run afterwards.

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_path;  // Chrome trace-event JSON, written when trace is on
};

/// Raw measurements of one run; perfbench/stats.py turns them into metrics.
struct Result {
  /// Run fingerprint, values already JSON-encoded.
  std::vector<std::pair<std::string, std::string>> fingerprint;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::string first_mismatch;

  std::vector<double> setup_s;       // one per setup repetition
  std::vector<double> op_ms;         // per op, untraced batches
  std::vector<double> traced_op_ms;  // per op, traced batches (trace mode)
  std::int64_t timed_ops = 0;        // ops completed in untraced batches
  std::int64_t traced_ops = 0;       // ops attempted in traced batches
  double timed_s = 0.0;              // wall time of the untraced batches
  double cpu_user_s = 0.0;           // getrusage over the same batches
  double cpu_sys_s = 0.0;

  /// Per-layer scalars (counts, ratios); every name is always present.
  std::map<std::string, double> layer;
  /// Per-layer timing samples, reduced to medians/percentiles by stats.py;
  /// every name is always present, empty where the layer does not run.
  std::map<std::string, std::vector<double>> samples;

  /// Records a failed op; keeps the first diagnostic.
  void fail(const std::string& what, std::int64_t ops = 1);
  void note(const std::string& key, const std::string& json_value) {
    fingerprint.emplace_back(key, json_value);
  }
};

/// Names of the workloads, in the order `--workload all` runs them.
const std::vector<std::string>& workload_names();

/// Runs one workload; throws std::invalid_argument on an unknown name.
Result run_workload(const Options& options);

}  // namespace perfbench
