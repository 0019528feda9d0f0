#include "bench_util.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include <unistd.h>

#include "core/env.hpp"
#include "core/error.hpp"
#include "partition/partitioner.hpp"
#include "spmv/distributed.hpp"

namespace stfw::bench {

// Knob parsing is strict (core/env.hpp): STFW_BENCH_SCALE=0.1x is a loud
// core::ValidationError, not a silently truncated 0.1.

double bench_scale() {
  return std::clamp(core::env_double("STFW_BENCH_SCALE", 0.08), 1e-4, 1.0);
}

std::int64_t bench_nnz_cap() { return core::env_int("STFW_BENCH_NNZ_CAP", 600'000); }

std::uint64_t bench_seed() { return core::env_u64("STFW_BENCH_SEED", 20190717); }

std::uint32_t bench_entry_bytes() {
  return static_cast<std::uint32_t>(
      std::clamp<std::int64_t>(core::env_int("STFW_BENCH_ENTRY_BYTES", 8), 1, 65536));
}

std::vector<std::int32_t> Instance::parts(core::Rank num_ranks) const {
  core::require(num_ranks >= 1 && num_ranks <= max_ranks && max_ranks % num_ranks == 0,
                "Instance::parts: rank count must divide the partitioned maximum");
  return partition::derive_coarser(parts_at_max, max_ranks / num_ranks);
}

Instance make_instance(const std::string& name, core::Rank max_ranks) {
  const sparse::MatrixSpec& orig = sparse::find_paper_matrix(name);
  // Scale down, but keep at least ~4 rows per rank where the original had
  // them (instances smaller than the rank count stay at their true size).
  sparse::MatrixSpec spec =
      sparse::scaled_spec(orig, bench_scale(), std::min(orig.rows, 4 * max_ranks));
  if (spec.nnz > bench_nnz_cap()) {
    // Cap total work: thin the matrix, preserving rows and shape stats.
    const double thin = static_cast<double>(bench_nnz_cap()) / static_cast<double>(spec.nnz);
    spec.nnz = bench_nnz_cap();
    spec.max_degree = std::max<std::int64_t>(
        2, static_cast<std::int64_t>(static_cast<double>(spec.max_degree) * thin));
    spec.maxdr = static_cast<double>(spec.max_degree) / spec.rows;
  }

  Instance inst;
  inst.name = name;
  inst.original = orig;
  inst.spec = spec;
  inst.matrix = sparse::generate(spec, bench_seed() ^ std::hash<std::string>{}(name));
  inst.max_ranks = max_ranks;
  partition::PartitionOptions opts;
  opts.num_parts = max_ranks;
  opts.seed = bench_seed();
  inst.parts_at_max = partition::partition_rows(inst.matrix, opts);
  return inst;
}

SchemeResult run_scheme(const Instance& inst, core::Rank num_ranks, int vpt_dim,
                        const netsim::Machine& machine) {
  const auto parts = inst.parts(num_ranks);
  const spmv::SpmvProblem problem(inst.matrix, parts, num_ranks, /*build_plans=*/false);
  const auto pattern = problem.comm_pattern(bench_entry_bytes());
  const core::Vpt vpt =
      vpt_dim <= 1 ? core::Vpt::direct(num_ranks) : core::Vpt::balanced(num_ranks, vpt_dim);
  sim::SimOptions opts;
  opts.machine = &machine;
  const sim::SimResult r = sim::simulate_exchange(vpt, pattern, opts);

  SchemeResult out;
  out.scheme = scheme_name(vpt_dim);
  out.mmax = r.metrics.max_send_count();
  out.mavg = r.metrics.avg_send_count();
  out.vavg = r.metrics.avg_send_volume_words();
  out.comm_us = r.comm_time_us;
  // Compute phase at *paper* scale: the original matrix's nonzero count is
  // known exactly, so charge the slowest rank the measured partition
  // imbalance applied to the original work. This restores the paper's
  // compute-dominated-at-small-K strong-scaling shape, which the scaled
  // communication proxy alone cannot show.
  const double imbalance_frac = static_cast<double>(problem.max_local_nnz()) /
                                static_cast<double>(inst.matrix.num_nonzeros());
  out.spmv_us =
      r.comm_time_us + spmv::compute_time_us(static_cast<std::int64_t>(
                           imbalance_frac * static_cast<double>(inst.original.nnz)));
  out.buffer_kb = static_cast<double>(r.metrics.max_buffer_bytes()) / 1024.0;
  return out;
}

double geomean(const std::vector<double>& values, double floor) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(std::max(v, floor));
  return std::exp(log_sum / static_cast<double>(values.size()));
}

std::string scheme_name(int vpt_dim) {
  return vpt_dim <= 1 ? "BL" : "STFW" + std::to_string(vpt_dim);
}

void print_rule(int width) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

std::string fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

// --- perf-regression JSON output -------------------------------------------

Json Json::object() {
  Json j;
  j.kind_ = Kind::kObject;
  return j;
}

Json Json::array() {
  Json j;
  j.kind_ = Kind::kArray;
  return j;
}

Json Json::number(double v) {
  Json j;
  j.kind_ = Kind::kNumber;
  j.number_ = v;
  return j;
}

Json Json::integer(std::int64_t v) {
  Json j;
  j.kind_ = Kind::kInt;
  j.int_ = v;
  return j;
}

Json Json::string(std::string v) {
  Json j;
  j.kind_ = Kind::kString;
  j.string_ = std::move(v);
  return j;
}

Json Json::boolean(bool v) {
  Json j;
  j.kind_ = Kind::kBool;
  j.bool_ = v;
  return j;
}

Json& Json::set(const std::string& key, Json v) {
  core::require(kind_ == Kind::kObject, "Json::set: not an object");
  for (auto& [k, existing] : members_) {
    if (k == key) {
      existing = std::move(v);
      return *this;
    }
  }
  members_.emplace_back(key, std::move(v));
  return *this;
}

Json& Json::push(Json v) {
  core::require(kind_ == Kind::kArray, "Json::push: not an array");
  items_.push_back(std::move(v));
  return *this;
}

namespace {

void write_json_string(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

}  // namespace

void Json::write(std::string& out, int indent, int depth) const {
  const std::string pad(static_cast<std::size_t>(indent) * static_cast<std::size_t>(depth + 1),
                        ' ');
  const std::string close_pad(static_cast<std::size_t>(indent) * static_cast<std::size_t>(depth),
                              ' ');
  switch (kind_) {
    case Kind::kNull: out += "null"; break;
    case Kind::kBool: out += bool_ ? "true" : "false"; break;
    case Kind::kInt: out += std::to_string(int_); break;
    case Kind::kNumber: {
      if (!std::isfinite(number_)) {
        out += "null";  // JSON has no NaN/Inf
        break;
      }
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.12g", number_);
      out += buf;
      break;
    }
    case Kind::kString: write_json_string(out, string_); break;
    case Kind::kArray: {
      if (items_.empty()) {
        out += "[]";
        break;
      }
      out += "[\n";
      for (std::size_t i = 0; i < items_.size(); ++i) {
        out += pad;
        items_[i].write(out, indent, depth + 1);
        if (i + 1 < items_.size()) out += ',';
        out += '\n';
      }
      out += close_pad + "]";
      break;
    }
    case Kind::kObject: {
      if (members_.empty()) {
        out += "{}";
        break;
      }
      out += "{\n";
      for (std::size_t i = 0; i < members_.size(); ++i) {
        out += pad;
        write_json_string(out, members_[i].first);
        out += ": ";
        members_[i].second.write(out, indent, depth + 1);
        if (i + 1 < members_.size()) out += ',';
        out += '\n';
      }
      out += close_pad + "}";
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  write(out, indent, 0);
  out += '\n';
  return out;
}

Json bench_json_envelope(const std::string& bench_name) {
  Json config = Json::object();
  config.set("scale", Json::number(bench_scale()));
  config.set("nnz_cap", Json::integer(bench_nnz_cap()));
  config.set("seed", Json::integer(static_cast<std::int64_t>(bench_seed())));
  config.set("entry_bytes", Json::integer(bench_entry_bytes()));

  Json root = Json::object();
  root.set("bench", Json::string(bench_name));
  root.set("schema_version", Json::integer(1));
  root.set("fingerprint",
           Json::object()
               .set("nproc", Json::integer(sysconf(_SC_NPROCESSORS_ONLN)))
               .set("compiler", Json::string(STFW_BENCH_COMPILER))
               .set("build_type", Json::string(STFW_BENCH_BUILD_TYPE)));
  root.set("config", std::move(config));
  root.set("results", Json::array());
  return root;
}

std::string write_bench_json(const std::string& bench_name, const Json& payload) {
  std::string path = core::env_string("STFW_BENCH_JSON_DIR", ".");
  if (path.back() != '/') path += '/';
  path += "BENCH_" + bench_name + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  core::require(f != nullptr, "write_bench_json: cannot open " + path);
  const std::string text = payload.dump();
  const std::size_t written = std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  core::require(written == text.size(), "write_bench_json: short write to " + path);
  return path;
}

}  // namespace stfw::bench
