#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/vpt.hpp"
#include "netsim/machine.hpp"
#include "sim/bsp_simulator.hpp"
#include "sparse/generators.hpp"

/// \file bench_util.hpp
/// Shared plumbing for the table/figure reproduction harnesses.
///
/// Every harness regenerates one table or figure of the paper on synthetic
/// stand-ins for the SuiteSparse matrices. Instances are scaled so the whole
/// suite runs on one laptop core: STFW_BENCH_SCALE (default 0.08) multiplies
/// rows/nnz of every Table 1 matrix, and STFW_BENCH_NNZ_CAP (default 600000)
/// caps the per-instance nonzero count. Absolute numbers therefore differ
/// from the paper; the shapes (who wins, by what factor, where the best VPT
/// dimension sits) are what EXPERIMENTS.md compares.

namespace stfw::bench {

/// Environment-tunable scaling of the paper instances.
double bench_scale();
std::int64_t bench_nnz_cap();
std::uint64_t bench_seed();

/// Bytes shipped per communicated x entry (STFW_BENCH_ENTRY_BYTES, default
/// 8 = one double, the paper's SpMV). Larger values emulate the SpMM /
/// multiple-vector regime with proportionally heavier volume — useful to
/// reproduce the paper's large-scale crossover where the highest VPT
/// dimensions start losing to the middle ones on bandwidth.
std::uint32_t bench_entry_bytes();

/// A generated-and-partitioned instance, partitioned once at `max_ranks`
/// (power of two) by the multilevel hypergraph partitioner; partitions for
/// any smaller power-of-two rank count derive from the bisection tree.
struct Instance {
  std::string name;
  sparse::MatrixSpec original;  // the unscaled Table 1 spec
  sparse::MatrixSpec spec;      // the scaled spec actually generated
  sparse::Csr matrix;
  core::Rank max_ranks = 0;
  std::vector<std::int32_t> parts_at_max;

  std::vector<std::int32_t> parts(core::Rank num_ranks) const;
};

/// Generate + partition one paper matrix for rank counts up to `max_ranks`.
Instance make_instance(const std::string& name, core::Rank max_ranks);

/// All metrics of one (instance, scheme, K) cell of Table 2 / Table 3.
struct SchemeResult {
  std::string scheme;  // "BL" or "STFWn"
  std::int64_t mmax = 0;
  double mavg = 0.0;
  double vavg = 0.0;       // words
  double comm_us = 0.0;    // simulated communication time
  double spmv_us = 0.0;    // comm + compute model
  double buffer_kb = 0.0;  // max over ranks
};

/// Run BL (n = 1) or STFW (n > 1) for one instance at K ranks.
[[nodiscard]] SchemeResult run_scheme(const Instance& inst, core::Rank num_ranks, int vpt_dim,
                                      const netsim::Machine& machine);

/// Geometric mean (values must be positive; zeros are clamped to `floor`).
double geomean(const std::vector<double>& values, double floor = 1e-9);

/// "STFW4" / "BL" label for a VPT dimension.
std::string scheme_name(int vpt_dim);

/// Fixed-width table printing helpers.
void print_rule(int width);
std::string fmt(double v, int precision = 1);

// --- perf-regression JSON output -------------------------------------------
//
// Every harness can emit one machine-readable BENCH_<name>.json next to its
// human-readable table so runs are diffable across commits
// (tools/compare_bench.py). Schema (docs/performance.md):
//   { "bench": <name>, "schema_version": 1,
//     "fingerprint": { "nproc", "compiler", "build_type" },
//     "config": { knob: value, ... },
//     "results": [ { "name": <row key>, <numeric metrics>... }, ... ] }

/// Minimal ordered JSON value tree (objects keep insertion order).
class Json {
public:
  Json() = default;  // null
  static Json object();
  static Json array();
  static Json number(double v);
  static Json integer(std::int64_t v);
  static Json string(std::string v);
  static Json boolean(bool v);

  /// Object member set / array append; both return *this for chaining and
  /// throw core::Error on kind misuse.
  Json& set(const std::string& key, Json v);
  Json& push(Json v);

  std::string dump(int indent = 2) const;

private:
  enum class Kind { kNull, kBool, kInt, kNumber, kString, kArray, kObject };
  void write(std::string& out, int indent, int depth) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double number_ = 0.0;
  std::string string_;
  std::vector<Json> items_;
  std::vector<std::pair<std::string, Json>> members_;
};

/// The standard top-level envelope: bench name, schema_version, the shared
/// bench_* knobs under "config", and an empty "results" array.
[[nodiscard]] Json bench_json_envelope(const std::string& bench_name);

/// Write `payload` as BENCH_<name>.json into $STFW_BENCH_JSON_DIR (default:
/// current directory). Returns the path written.
std::string write_bench_json(const std::string& bench_name, const Json& payload);

}  // namespace stfw::bench
