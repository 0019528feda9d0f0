// Recording miss vs cached replay of exchange() on one send pattern.
//
// The iterative-solver loop (spmv::run_distributed) re-issues the same send
// pattern every iteration; exchange()'s plan cache trades the per-exchange
// route derivation and frame assembly for a one-time recording. This harness
// measures that trade at several K on one skewed pattern per K:
//
//   unplanned  a fresh StfwCommunicator per timed iteration, so every
//              exchange is a cache miss that runs Algorithm 1 and records a
//              plan — what a pattern that never repeats pays
//   cached     one communicator: a warm-up records, the timed iterations
//              replay the cached plan
//
// Rows land in BENCH_micro_exchange.json (schema: docs/performance.md) for
// tools/compare_bench.py. Knobs: STFW_BENCH_MICRO_KMAX (default 512),
// STFW_BENCH_MICRO_ITERS (timed iterations, default 16),
// STFW_BENCH_MICRO_BYTES (base payload size, default 64).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/env.hpp"
#include "core/error.hpp"
#include "core/vpt.hpp"
#include "runtime/comm.hpp"
#include "runtime/stfw_communicator.hpp"

namespace {

using stfw::core::Rank;

/// splitmix64 — deterministic pattern generation, no <random> state.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Skewed fixed pattern: every rank sends to ~12 pseudo-random peers with
/// sizes in [base, 4*base); rank 0 additionally sends to everyone (the
/// high-fan-out row that makes BL mmax explode in the paper).
std::vector<std::vector<stfw::OutboundMessage>> build_pattern(Rank num_ranks,
                                                              std::uint32_t base_bytes,
                                                              std::uint64_t seed) {
  const auto nK = static_cast<std::size_t>(num_ranks);
  std::vector<std::vector<stfw::OutboundMessage>> sends(nK);
  for (Rank r = 0; r < num_ranks; ++r) {
    std::vector<bool> chosen(nK, false);
    auto add = [&](Rank dest) -> bool {
      if (dest == r || chosen[static_cast<std::size_t>(dest)]) return false;
      chosen[static_cast<std::size_t>(dest)] = true;
      const std::uint64_t h =
          mix(seed ^ (static_cast<std::uint64_t>(r) << 32) ^ static_cast<std::uint64_t>(dest));
      const std::uint32_t size = base_bytes * (1u + static_cast<std::uint32_t>(h % 4));
      stfw::OutboundMessage m;
      m.dest = dest;
      m.bytes.assign(size, std::byte{static_cast<unsigned char>(h)});
      sends[static_cast<std::size_t>(r)].push_back(std::move(m));
      return true;
    };
    if (r == 0) {
      for (Rank d = 1; d < num_ranks; ++d) add(d);
    } else {
      const int fanout = std::min<int>(12, num_ranks - 1);
      std::uint64_t h = mix(seed ^ static_cast<std::uint64_t>(r));
      int added = 0;
      for (int attempts = 0; added < fanout && attempts < 16 * fanout; ++attempts) {
        h = mix(h);
        if (add(static_cast<Rank>(h % static_cast<std::uint64_t>(num_ranks)))) ++added;
      }
    }
  }
  return sends;
}

enum class Mode { kUnplanned, kCached };

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kUnplanned: return "unplanned";
    case Mode::kCached: return "cached";
  }
  return "?";
}

struct ModeResult {
  double ns_per_exchange = 0.0;
  double plan_hit_rate = 0.0;
};

std::atomic<std::uint64_t> g_sink{0};  // defeats dead-code elimination

ModeResult run_mode(stfw::runtime::Cluster& cluster, const stfw::core::Vpt& vpt,
                    const std::vector<std::vector<stfw::OutboundMessage>>& pattern, int iters,
                    Mode mode) {
  double wall_ns = 0.0;
  std::atomic<std::int64_t> hits{0};
  cluster.run([&](stfw::runtime::Comm& comm) {
    stfw::StfwCommunicator communicator(comm, vpt);
    const auto& sends = pattern[static_cast<std::size_t>(comm.rank())];
    if (mode == Mode::kCached) (void)communicator.exchange(sends);  // warm-up records
    comm.barrier();
    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t received = 0;
    std::int64_t my_hits = 0;
    const auto exchange_once = [&](stfw::StfwCommunicator& c) {
      for (const stfw::InboundMessage& m : c.exchange(sends)) received += m.bytes.size();
      my_hits += c.last_stats().plan_hits;
    };
    for (int it = 0; it < iters; ++it) {
      if (mode == Mode::kUnplanned) {
        stfw::StfwCommunicator fresh(comm, vpt);
        exchange_once(fresh);
      } else {
        exchange_once(communicator);
      }
    }
    comm.barrier();
    const auto t1 = std::chrono::steady_clock::now();
    g_sink.fetch_add(received, std::memory_order_relaxed);
    hits.fetch_add(my_hits, std::memory_order_relaxed);
    if (comm.rank() == 0)
      wall_ns = static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  });
  ModeResult out;
  out.ns_per_exchange = wall_ns / static_cast<double>(iters);
  out.plan_hit_rate = static_cast<double>(hits.load()) /
                      static_cast<double>(static_cast<std::int64_t>(cluster.size()) * iters);
  return out;
}

}  // namespace

int main() {
  using stfw::bench::Json;
  using stfw::bench::fmt;

  const int kmax = static_cast<int>(
      std::clamp<std::int64_t>(stfw::core::env_int("STFW_BENCH_MICRO_KMAX", 512), 4, 4096));
  const int iters = static_cast<int>(
      std::clamp<std::int64_t>(stfw::core::env_int("STFW_BENCH_MICRO_ITERS", 16), 1, 100000));
  const auto base_bytes = static_cast<std::uint32_t>(
      std::clamp<std::int64_t>(stfw::core::env_int("STFW_BENCH_MICRO_BYTES", 64), 1, 1 << 20));

  Json root = stfw::bench::bench_json_envelope("micro_exchange");
  root.set("config", Json::object()
                         .set("kmax", Json::integer(kmax))
                         .set("iters", Json::integer(iters))
                         .set("payload_base_bytes", Json::integer(base_bytes))
                         .set("seed", Json::integer(static_cast<std::int64_t>(
                                          stfw::bench::bench_seed()))));
  Json results = Json::array();

  std::printf("recording miss vs cached replay, %d timed iterations per mode\n", iters);
  std::printf("%6s %10s %6s %12s %14s %9s %9s\n", "K", "mode", "mmax", "volume_B",
              "ns/exchange", "hit_rate", "speedup");
  stfw::bench::print_rule(74);

  for (const Rank num_ranks : {32, 64, 128, 256, 512}) {
    if (num_ranks > kmax) break;
    const stfw::core::Vpt vpt = stfw::core::Vpt::balanced(num_ranks, 2);
    const auto pattern =
        build_pattern(num_ranks, base_bytes, stfw::bench::bench_seed() ^
                                                 static_cast<std::uint64_t>(num_ranks));
    std::int64_t mmax = 0;
    std::uint64_t volume = 0;
    for (const auto& sends : pattern) {
      mmax = std::max(mmax, static_cast<std::int64_t>(sends.size()));
      for (const auto& s : sends) volume += s.bytes.size();
    }

    stfw::runtime::Cluster cluster(num_ranks);
    double unplanned_ns = 0.0;
    for (const Mode mode : {Mode::kUnplanned, Mode::kCached}) {
      const ModeResult r = run_mode(cluster, vpt, pattern, iters, mode);
      if (mode == Mode::kUnplanned) unplanned_ns = r.ns_per_exchange;
      const double speedup =
          r.ns_per_exchange > 0.0 ? unplanned_ns / r.ns_per_exchange : 0.0;
      std::printf("%6d %10s %6lld %12llu %14.0f %9.2f %9s\n", num_ranks, mode_name(mode),
                  static_cast<long long>(mmax), static_cast<unsigned long long>(volume),
                  r.ns_per_exchange, r.plan_hit_rate, (fmt(speedup, 2) + "x").c_str());
      std::string row_name = "K";
      row_name += std::to_string(num_ranks);
      row_name += '/';
      row_name += mode_name(mode);
      results.push(Json::object()
                       .set("name", Json::string(std::move(row_name)))
                       .set("mode", Json::string(mode_name(mode)))
                       .set("scheme", Json::string(stfw::bench::scheme_name(2)))
                       .set("ranks", Json::integer(num_ranks))
                       .set("iters", Json::integer(iters))
                       .set("mmax", Json::integer(mmax))
                       .set("volume_bytes", Json::integer(static_cast<std::int64_t>(volume)))
                       .set("wall_ns_per_exchange", Json::number(r.ns_per_exchange))
                       .set("plan_hit_rate", Json::number(r.plan_hit_rate))
                       .set("speedup_vs_unplanned", Json::number(speedup)));
    }
  }

  root.set("results", std::move(results));
  const std::string path = stfw::bench::write_bench_json("micro_exchange", root);
  std::printf("\nwrote %s (sink %llu)\n", path.c_str(),
              static_cast<unsigned long long>(g_sink.load()));
  return 0;
}
