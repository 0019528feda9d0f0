// stfw_perfbench: runs one benchmark workload and writes its raw
// measurements as JSON. perfbench/run.py builds and drives this binary and
// turns the raw numbers into metrics; see perfbench/README.md.
//
//   stfw_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  --out RESULT.json [--trace-file TRACE.json]

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "json.hpp"
#include "workloads.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: stfw_perfbench --workload NAME --seed N --seconds S --trace 0|1 "
               "--out FILE [--trace-file FILE]\nworkloads:");
  for (const std::string& w : perfbench::workload_names()) std::fprintf(stderr, " %s", w.c_str());
  std::fprintf(stderr, "\n");
}

bool write_result(const std::string& path, const perfbench::Result& r, double peak_rss_mb) {
  using perfbench::json_array;
  using perfbench::json_num;
  using perfbench::json_str;
  std::vector<std::pair<std::string, std::string>> members = {
      {"fingerprint", perfbench::json_object(r.fingerprint)},
      {"attempted", std::to_string(r.attempted)},
      {"failed", std::to_string(r.failed)},
      {"first_mismatch", json_str(r.first_mismatch)},
      {"setup_s", json_array(r.setup_s)},
      {"op_ms", json_array(r.op_ms)},
      {"traced_op_ms", json_array(r.traced_op_ms)},
      {"timed_ops", std::to_string(r.timed_ops)},
      {"traced_ops", std::to_string(r.traced_ops)},
      {"timed_s", json_num(r.timed_s)},
      {"cpu_user_s", json_num(r.cpu_user_s)},
      {"cpu_sys_s", json_num(r.cpu_sys_s)},
      {"peak_rss_mb", json_num(peak_rss_mb)}};
  std::vector<std::pair<std::string, std::string>> layer;
  for (const auto& [k, v] : r.layer) layer.emplace_back(k, json_num(v));
  members.emplace_back("layer", perfbench::json_object(layer));
  std::vector<std::pair<std::string, std::string>> samples;
  for (const auto& [k, v] : r.samples) samples.emplace_back(k, json_array(v));
  members.emplace_back("samples", perfbench::json_object(samples));
  const std::string s = perfbench::json_object(members) + "\n";
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(std::fopen(path.c_str(), "w"), &std::fclose);
  if (!f) return false;
  return std::fwrite(s.data(), 1, s.size(), f.get()) == s.size();
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  std::string out;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val.c_str(), &end, 10);
      have_seed = end != nullptr && *end == '\0' && !val.empty() && val[0] != '-';
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(val.c_str(), &end);
      have_seconds = end != nullptr && *end == '\0' && opt.seconds > 0;
    } else if (key == "--trace") {
      have_trace = val == "0" || val == "1";
      opt.trace = val == "1";
    } else if (key == "--out") {
      out = val;
    } else if (key == "--trace-file") {
      opt.trace_path = val;
    } else {
      usage();
      return 2;
    }
  }
  if (argc % 2 != 1 || opt.workload.empty() || out.empty() || !have_seed || !have_seconds ||
      !have_trace || (opt.trace && opt.trace_path.empty())) {
    usage();
    return 2;
  }

  try {
    perfbench::Result r = perfbench::run_workload(opt);
    r.fingerprint.insert(
        r.fingerprint.begin(),
        {{"workload", perfbench::json_str(opt.workload)},
         {"seed", std::to_string(opt.seed)},
         {"seconds", perfbench::json_num(opt.seconds)},
         {"trace", opt.trace ? "true" : "false"},
         {"nproc", std::to_string(std::thread::hardware_concurrency())},
         {"compiler", perfbench::json_str(PERFBENCH_COMPILER)},
         {"build_type", perfbench::json_str(PERFBENCH_BUILD_TYPE)}});
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    if (!write_result(out, r, static_cast<double>(ru.ru_maxrss) / 1024.0)) {
      std::fprintf(stderr, "stfw_perfbench: cannot write %s\n", out.c_str());
      return 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "stfw_perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
