// Cost of surviving a rank failure: healthy vs degraded resilient exchanges.
//
// After a survivable rank crash, exchange_resilient() routes every seed from
// the shrunken membership view: detours around the dead rank go over the
// side lane, straight to their destinations. This harness prices those
// degraded exchanges against the all-alive baseline on one skewed pattern
// per K:
//
//   healthy    all K ranks alive; the timed iterations run
//              exchange_resilient() on the fixed pattern
//   crash      a FaultInjector crashes rank 1 survivably at stage 0 of one
//              resilient exchange; that single exchange is timed, from a
//              barrier of all K ranks to a barrier of the K-1 survivors
//   degraded   after the crash exchange, the timed iterations run among the
//              K-1 survivors, on the pattern minus its sends to the dead rank
//
// The crash exchange pays one-off detection costs (retransmit timeouts
// toward the dead rank, the epoch bump); a stall in failure handling shows
// there and nowhere else. The steady state an iterative solver lives in
// afterwards is what the degraded rows measure. Every timed exchange must
// come back fully_recovered on every rank that runs it; one that does not
// (a survivor that waited out the settlement valve, say) makes the harness
// exit non-zero. Rows land in BENCH_degraded_exchange.json for
// tools/compare_bench.py. Knobs:
// STFW_BENCH_DEGRADED_KMAX (default 128), STFW_BENCH_DEGRADED_ITERS (timed
// iterations, default 16), STFW_BENCH_DEGRADED_BYTES (base payload, 64).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/env.hpp"
#include "core/vpt.hpp"
#include "fault/fault_injector.hpp"
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
/// sizes in [base, 4*base); rank 0 additionally sends to everyone. The
/// pattern is held constant across modes and iterations; the degraded rows
/// leave out only the sends to the dead rank, which could never be
/// delivered and would make every degraded exchange report a loss.
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

enum class Mode { kHealthy, kCrash, kDegraded };

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kHealthy: return "healthy";
    case Mode::kCrash: return "crash";
    case Mode::kDegraded: return "degraded";
  }
  return "?";
}

constexpr Rank kCrashRank = 1;

struct ModeResult {
  Mode mode = Mode::kHealthy;
  int iters = 0;
  double ns_per_exchange = 0.0;
  std::int64_t relay_submessages = 0;  // over the timed iterations and survivors
  std::int64_t unrecovered = 0;  // timed exchanges a rank ended not fully_recovered
  std::int64_t live_ranks = 0;
  std::uint32_t epoch = 0;  // membership epoch rank 0 ended the timed part at
};

std::atomic<std::uint64_t> g_sink{0};  // defeats dead-code elimination

/// Tight enough that the crash exchange's retransmits toward the dead rank
/// resolve quickly, loose enough that healthy replay never trips a retry.
stfw::ResilienceOptions bench_options() {
  stfw::ResilienceOptions opt;
  opt.retransmit_timeout = std::chrono::milliseconds(5);
  opt.max_attempts = 8;
  opt.stage_deadline = std::chrono::milliseconds(2000);
  return opt;
}

/// Runs one cluster: the healthy rows alone, or the crash exchange followed
/// by the degraded rows.
std::vector<ModeResult> run_cluster(const stfw::core::Vpt& vpt,
                                    const std::vector<std::vector<stfw::OutboundMessage>>& pattern,
                                    int iters, bool crash, std::uint64_t seed) {
  const Rank num_ranks = vpt.size();
  stfw::runtime::Cluster cluster(num_ranks);
  std::shared_ptr<stfw::fault::FaultInjector> injector;
  if (crash) {
    stfw::fault::FaultConfig cfg;
    cfg.seed = seed;
    cfg.crash_rank = kCrashRank;
    cfg.crash_visit = 0;  // stage 0 of the crash exchange
    cfg.crash_survivable = true;
    injector = std::make_shared<stfw::fault::FaultInjector>(cfg);
    cluster.set_fault_injector(injector);
  }

  double crash_ns = 0.0;
  double wall_ns = 0.0;
  std::atomic<std::int64_t> crash_relays{0};
  std::atomic<std::int64_t> relays{0};
  std::atomic<std::int64_t> unrecovered{0};
  std::uint32_t crash_epoch = 0;
  std::atomic<std::uint32_t> epoch{0};
  const stfw::ResilienceOptions opt = bench_options();
  cluster.run([&](stfw::runtime::Comm& comm) {
    stfw::StfwCommunicator communicator(comm, vpt);
    std::vector<stfw::OutboundMessage> sends = pattern[static_cast<std::size_t>(comm.rank())];
    std::chrono::steady_clock::time_point c0;
    if (crash) {
      // The crash exchange: rank kCrashRank dies at stage 0, survivors
      // detect the death and bump the epoch.
      comm.barrier();
      c0 = std::chrono::steady_clock::now();
      (void)communicator.exchange_resilient(sends, opt);
      crash_relays.fetch_add(communicator.last_stats().relay_submessages,
                             std::memory_order_relaxed);
    }
    if (crash)
      std::erase_if(sends, [](const stfw::OutboundMessage& m) { return m.dest == kCrashRank; });
    comm.barrier();  // alive-aware: released once every survivor arrives
    const auto t0 = std::chrono::steady_clock::now();
    if (crash && comm.rank() == 0) {
      crash_epoch = communicator.last_stats().membership_epoch;
      crash_ns = static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t0 - c0).count());
    }
    std::uint64_t received = 0;
    std::int64_t my_relays = 0;
    std::int64_t my_unrecovered = 0;
    for (int it = 0; it < iters; ++it) {
      const stfw::ResilientExchangeResult result = communicator.exchange_resilient(sends, opt);
      for (const stfw::InboundMessage& m : result.delivered) received += m.bytes.size();
      my_relays += communicator.last_stats().relay_submessages;
      if (!result.fully_recovered) ++my_unrecovered;
    }
    comm.barrier();
    const auto t1 = std::chrono::steady_clock::now();
    g_sink.fetch_add(received, std::memory_order_relaxed);
    relays.fetch_add(my_relays, std::memory_order_relaxed);
    unrecovered.fetch_add(my_unrecovered, std::memory_order_relaxed);
    if (comm.rank() == 0) {
      epoch.store(communicator.last_stats().membership_epoch, std::memory_order_relaxed);
      wall_ns = static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
    }
  });
  cluster.set_fault_injector(nullptr);

  const std::int64_t live = num_ranks - static_cast<Rank>(cluster.membership().failed().size());
  std::vector<ModeResult> out;
  if (crash) {
    out.push_back({Mode::kCrash, 1, crash_ns, crash_relays.load(), 0, live, crash_epoch});
    if (injector->counters().crashes != 1)
      std::fprintf(stderr, "warning: K=%d expected 1 injected crash, saw %lld\n", num_ranks,
                   static_cast<long long>(injector->counters().crashes));
  }
  out.push_back({crash ? Mode::kDegraded : Mode::kHealthy, iters,
                 wall_ns / static_cast<double>(iters), relays.load(), unrecovered.load(), live,
                 epoch.load()});
  return out;
}

}  // namespace

int main() {
  using stfw::bench::Json;
  using stfw::bench::fmt;

  const int kmax = static_cast<int>(
      std::clamp<std::int64_t>(stfw::core::env_int("STFW_BENCH_DEGRADED_KMAX", 128), 4, 4096));
  const int iters = static_cast<int>(
      std::clamp<std::int64_t>(stfw::core::env_int("STFW_BENCH_DEGRADED_ITERS", 16), 1, 100000));
  const auto base_bytes = static_cast<std::uint32_t>(
      std::clamp<std::int64_t>(stfw::core::env_int("STFW_BENCH_DEGRADED_BYTES", 64), 1, 1 << 20));

  Json root = stfw::bench::bench_json_envelope("degraded_exchange");
  root.set("config", Json::object()
                         .set("kmax", Json::integer(kmax))
                         .set("iters", Json::integer(iters))
                         .set("payload_base_bytes", Json::integer(base_bytes))
                         .set("crash_rank", Json::integer(kCrashRank))
                         .set("seed", Json::integer(static_cast<std::int64_t>(
                                          stfw::bench::bench_seed()))));
  Json results = Json::array();

  std::printf("healthy vs one-rank-dead resilient exchange, %d timed iterations\n", iters);
  std::printf("%6s %10s %6s %14s %9s %10s\n", "K", "mode", "live", "ns/exchange", "relays",
              "overhead");
  stfw::bench::print_rule(60);

  std::int64_t unrecovered = 0;
  for (const Rank num_ranks : {16, 32, 64, 128, 256}) {
    if (num_ranks > kmax) break;
    const stfw::core::Vpt vpt = stfw::core::Vpt::balanced(num_ranks, 2);
    const std::uint64_t seed =
        stfw::bench::bench_seed() ^ static_cast<std::uint64_t>(num_ranks);
    const auto pattern = build_pattern(num_ranks, base_bytes, seed);

    std::vector<ModeResult> rows = run_cluster(vpt, pattern, iters, false, seed);
    const double healthy_ns = rows.front().ns_per_exchange;
    for (const ModeResult& r : run_cluster(vpt, pattern, iters, true, seed)) rows.push_back(r);
    for (const ModeResult& r : rows) {
      if (r.unrecovered > 0)
        std::fprintf(stderr, "error: K=%d %s: %lld timed exchange(s) not fully_recovered\n",
                     num_ranks, mode_name(r.mode), static_cast<long long>(r.unrecovered));
      unrecovered += r.unrecovered;
      const double overhead = healthy_ns > 0.0 ? r.ns_per_exchange / healthy_ns : 0.0;
      std::printf("%6d %10s %6lld %14.0f %9lld %10s\n", num_ranks, mode_name(r.mode),
                  static_cast<long long>(r.live_ranks), r.ns_per_exchange,
                  static_cast<long long>(r.relay_submessages), (fmt(overhead, 2) + "x").c_str());
      std::string row_name = "K";
      row_name += std::to_string(num_ranks);
      row_name += '/';
      row_name += mode_name(r.mode);
      results.push(Json::object()
                       .set("name", Json::string(std::move(row_name)))
                       .set("mode", Json::string(mode_name(r.mode)))
                       .set("scheme", Json::string(stfw::bench::scheme_name(2)))
                       .set("ranks", Json::integer(num_ranks))
                       .set("live_ranks", Json::integer(r.live_ranks))
                       .set("iters", Json::integer(r.iters))
                       .set("membership_epoch", Json::integer(r.epoch))
                       .set("relay_submessages", Json::integer(r.relay_submessages))
                       .set("wall_ns_per_exchange", Json::number(r.ns_per_exchange))
                       .set("overhead_vs_healthy", Json::number(overhead)));
    }
  }

  root.set("results", std::move(results));
  const std::string path = stfw::bench::write_bench_json("degraded_exchange", root);
  std::printf("\nwrote %s (sink %llu)\n", path.c_str(),
              static_cast<unsigned long long>(g_sink.load()));
  return unrecovered == 0 ? 0 : 1;
}
