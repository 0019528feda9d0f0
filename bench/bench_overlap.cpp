// Communication/computation overlap on the dependency-driven exchange.
//
// The solver loop does one exchange plus one local compute phase per
// iteration. Two schedules of that pair are timed on the same skewed
// pattern:
//
//   sync      dependency-driven stages (no barriers), compute after
//             the exchange returns (the baseline schedule)
//   overlap   dependency-driven stages with the compute phase run inside
//             the exchange's OverlapHook, i.e. between arriving at the
//             stage-0 group and waiting for its other members
//
// The in-process cluster has no wire: a message "travels" by moving between
// mailboxes under a mutex, so communication time is all CPU and there is
// nothing for compute to overlap *with*. The harness therefore models a
// slow peer with the fault injector's stall site: at stage 0 of every
// exchange, rank 1 is held for STFW_BENCH_OVERLAP_LAT_MS before it posts
// anything — real non-CPU time that every other rank waits out. The two
// schedules then read about the same in-process, because under `sync` the
// other ranks' compute of one iteration already runs while rank 1 stalls
// at the start of the next; the gate checks that the hook costs no time.
// The injector's message delays cannot model wire latency here: a plain
// exchange closes a stage on its group's arrival, so it refuses message
// faults (docs/fault_model.md).
//
// Rows land in BENCH_overlap.json (schema: docs/performance.md) for
// tools/compare_bench.py --overlap-gate. Knobs: STFW_BENCH_OVERLAP_KMAX
// (default 256), STFW_BENCH_OVERLAP_ITERS (timed iterations, default 12),
// STFW_BENCH_OVERLAP_BYTES (base payload size, default 64),
// STFW_BENCH_OVERLAP_WORK (compute-phase fma count per rank, default
// 65536), STFW_BENCH_OVERLAP_LAT_MS (the slow peer's stall per exchange,
// default 64, 0 = no slow peer).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
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

/// Skewed fixed pattern: every rank sends to ~8 pseudo-random peers with
/// sizes in [base, 4*base) — sparse enough that many (stage, neighbor)
/// slots carry no frame, the regime the barrier-free schedule targets.
std::vector<std::vector<stfw::OutboundMessage>> build_pattern(Rank num_ranks,
                                                              std::uint32_t base_bytes,
                                                              std::uint64_t seed) {
  const auto nK = static_cast<std::size_t>(num_ranks);
  std::vector<std::vector<stfw::OutboundMessage>> sends(nK);
  for (Rank r = 0; r < num_ranks; ++r) {
    std::vector<bool> chosen(nK, false);
    const int fanout = std::min<int>(8, num_ranks - 1);
    std::uint64_t h = mix(seed ^ static_cast<std::uint64_t>(r));
    int added = 0;
    for (int attempts = 0; added < fanout && attempts < 16 * fanout; ++attempts) {
      h = mix(h);
      const auto dest = static_cast<Rank>(h % static_cast<std::uint64_t>(num_ranks));
      if (dest == r || chosen[static_cast<std::size_t>(dest)]) continue;
      chosen[static_cast<std::size_t>(dest)] = true;
      const std::uint32_t size = base_bytes * (1u + static_cast<std::uint32_t>(h % 4));
      stfw::OutboundMessage m;
      m.dest = dest;
      m.bytes.assign(size, std::byte{static_cast<unsigned char>(h)});
      sends[static_cast<std::size_t>(r)].push_back(std::move(m));
      ++added;
    }
  }
  return sends;
}

enum class Mode { kSync, kOverlap };

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kSync: return "sync";
    case Mode::kOverlap: return "overlap";
  }
  return "?";
}

std::atomic<std::uint64_t> g_sink{0};  // defeats dead-code elimination

/// The per-iteration compute phase: `work` dependent fmas on rank-local
/// state. Stands in for the interior-row SpMV the solver overlaps. Yields
/// between chunks so the oversubscribed thread-per-rank scheduler can
/// interleave one rank's compute with the other ranks' frame posting — the
/// in-process analogue of compute running on its own core while the NIC
/// progresses the exchange; without the yields a hook would monopolize the
/// CPU and serialize ahead of every later rank's sends.
double compute_phase(std::uint64_t seed, int work) {
  double acc = 0.0;
  double x = 1.0 + static_cast<double>(seed % 1024) * 1e-6;
  constexpr int kChunk = 8192;
  for (int done = 0; done < work;) {
    const int end = std::min(work, done + kChunk);
    for (; done < end; ++done) {
      acc += x * 1.0000001;
      x = x * 0.9999999 + 1e-9;
    }
    std::this_thread::yield();
  }
  return acc + x;
}

double run_mode(stfw::runtime::Cluster& cluster, const stfw::core::Vpt& vpt,
                const std::vector<std::vector<stfw::OutboundMessage>>& pattern, int iters,
                int work, Mode mode) {
  double wall_ns = 0.0;
  cluster.run([&](stfw::runtime::Comm& comm) {
    stfw::StfwCommunicator communicator(comm, vpt);
    const auto& sends = pattern[static_cast<std::size_t>(comm.rank())];
    const auto seed = static_cast<std::uint64_t>(comm.rank());
    // Skewed compute, like an irregular partition's row distribution: every
    // fourth rank carries 4x the work. Dependency-driven progress lets light
    // ranks run ahead (per-exchange stage tags keep their early frames
    // apart), and inside the hook their wait soaks up the heavy ranks'
    // compute.
    const int my_work = work * (comm.rank() % 4 == 0 ? 4 : 1);
    (void)communicator.exchange(sends);  // warm-up records the plan
    comm.barrier();
    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t received = 0;
    double acc = 0.0;
    for (int it = 0; it < iters; ++it) {
      std::vector<stfw::InboundMessage> result;
      if (mode == Mode::kOverlap) {
        const stfw::OverlapHook hook = [&] { acc += compute_phase(seed, my_work); };
        result = communicator.exchange(sends, hook);
      } else {
        result = communicator.exchange(sends);
        acc += compute_phase(seed, my_work);
      }
      for (const stfw::InboundMessage& m : result) received += m.bytes.size();
    }
    comm.barrier();
    const auto t1 = std::chrono::steady_clock::now();
    g_sink.fetch_add(received + static_cast<std::uint64_t>(acc), std::memory_order_relaxed);
    if (comm.rank() == 0)
      wall_ns = static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  });
  return wall_ns / static_cast<double>(iters);
}

}  // namespace

int main() {
  using stfw::bench::Json;
  using stfw::bench::fmt;

  const int kmax = static_cast<int>(
      std::clamp<std::int64_t>(stfw::core::env_int("STFW_BENCH_OVERLAP_KMAX", 256), 4, 4096));
  const int iters = static_cast<int>(
      std::clamp<std::int64_t>(stfw::core::env_int("STFW_BENCH_OVERLAP_ITERS", 12), 1, 100000));
  const auto base_bytes = static_cast<std::uint32_t>(
      std::clamp<std::int64_t>(stfw::core::env_int("STFW_BENCH_OVERLAP_BYTES", 64), 1, 1 << 20));
  const int work = static_cast<int>(std::clamp<std::int64_t>(
      stfw::core::env_int("STFW_BENCH_OVERLAP_WORK", 65536), 0, 1 << 26));
  const auto lat_ms = std::clamp<std::int64_t>(
      stfw::core::env_int("STFW_BENCH_OVERLAP_LAT_MS", 64), 0, 1000);

  Json root = stfw::bench::bench_json_envelope("overlap");
  root.set("config", Json::object()
                         .set("kmax", Json::integer(kmax))
                         .set("iters", Json::integer(iters))
                         .set("payload_base_bytes", Json::integer(base_bytes))
                         .set("compute_work", Json::integer(work))
                         .set("slow_peer_stall_ms", Json::integer(lat_ms))
                         .set("seed", Json::integer(static_cast<std::int64_t>(
                                          stfw::bench::bench_seed()))));
  Json results = Json::array();

  std::printf("exchange + compute schedules, %d timed iterations per mode\n", iters);
  std::printf("%6s %9s %14s %9s\n", "K", "mode", "ns/iter", "speedup");
  stfw::bench::print_rule(42);

  for (const Rank num_ranks : {32, 64, 128, 256}) {
    if (num_ranks > kmax) break;
    const stfw::core::Vpt vpt = stfw::core::Vpt::balanced(num_ranks, 2);
    const auto pattern =
        build_pattern(num_ranks, base_bytes,
                      stfw::bench::bench_seed() ^ static_cast<std::uint64_t>(num_ranks));

    stfw::runtime::Cluster cluster(num_ranks);
    if (lat_ms > 0) {
      // The slow peer: a light rank (1 % 4 != 0) stalls lat_ms at stage 0
      // of every exchange, before it posts anything.
      stfw::fault::FaultConfig fc;
      fc.seed = stfw::bench::bench_seed();
      fc.stall_rank = 1;
      fc.stall_stage = 0;
      fc.stall_duration = std::chrono::milliseconds(lat_ms);
      cluster.set_fault_injector(std::make_shared<stfw::fault::FaultInjector>(fc));
    }
    double sync_ns = 0.0;
    for (const Mode mode : {Mode::kSync, Mode::kOverlap}) {
      const double ns = run_mode(cluster, vpt, pattern, iters, work, mode);
      if (mode == Mode::kSync) sync_ns = ns;
      const double speedup = ns > 0.0 ? sync_ns / ns : 0.0;
      std::printf("%6d %9s %14.0f %9s\n", num_ranks, mode_name(mode), ns,
                  (fmt(speedup, 2) + "x").c_str());
      std::string row_name = "K";
      row_name += std::to_string(num_ranks);
      row_name += '/';
      row_name += mode_name(mode);
      results.push(Json::object()
                       .set("name", Json::string(std::move(row_name)))
                       .set("mode", Json::string(mode_name(mode)))
                       .set("ranks", Json::integer(num_ranks))
                       .set("iters", Json::integer(iters))
                       .set("compute_work", Json::integer(work))
                       .set("wall_ns_per_iter", Json::number(ns))
                       .set("speedup_vs_sync", Json::number(speedup)));
    }
  }

  root.set("results", std::move(results));
  const std::string path = stfw::bench::write_bench_json("overlap", root);
  std::printf("\nwrote %s (sink %llu)\n", path.c_str(),
              static_cast<unsigned long long>(g_sink.load()));
  return 0;
}
