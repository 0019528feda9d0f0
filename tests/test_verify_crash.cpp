#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/env.hpp"
#include "core/vpt.hpp"
#include "fault/fault_injector.hpp"
#include "runtime/comm.hpp"
#include "runtime/stfw_communicator.hpp"
#include "verify/explore.hpp"
#include "verify/oracles.hpp"

/// Crash-schedule exploration (ISSUE 7): one rank is crashed survivably at a
/// chosen stage of the resilient exchange, and every explored interleaving
/// must leave the survivors with the degraded-mode contract intact —
/// exactly-once delivery among live pairs (check_exchange_delivery_survivors),
/// no fabricated or duplicated payloads even from the dead sender, every
/// survivor observing the membership-epoch transition in its stats, and no
/// survivor nacking a stage frame as late unless one of its stage deadlines
/// expired.

namespace stfw {
namespace {

using core::Rank;
using core::Vpt;

int schedule_count() {
  return static_cast<int>(core::env_int("STFW_VERIFY_SCHEDULES", 24));
}

std::vector<std::byte> encode(Rank src, Rank dest, std::uint32_t salt) {
  std::vector<std::byte> b(12);
  std::memcpy(b.data(), &src, 4);
  std::memcpy(b.data() + 4, &dest, 4);
  std::memcpy(b.data() + 8, &salt, 4);
  return b;
}

std::vector<std::vector<OutboundMessage>> two_message_sendsets(Rank K) {
  std::vector<std::vector<OutboundMessage>> sets(static_cast<std::size_t>(K));
  std::uint32_t salt = 0;
  for (Rank i = 0; i < K; ++i)
    for (Rank step = 1; step <= 2; ++step) {
      const Rank dest = (i + step) % K;
      sets[static_cast<std::size_t>(i)].push_back(
          OutboundMessage{dest, encode(i, dest, ++salt)});
    }
  return sets;
}

/// Body + oracle pair: each schedule runs one resilient exchange over `vpt`
/// with `crash_rank` crashing at `crash_stage` (and every frame dropped with
/// probability `drop_prob`), then the oracle checks the survivor contract
/// against what actually happened on that schedule.
struct CrashHarness {
  Vpt vpt;
  int crash_rank;
  int crash_stage;
  double drop_prob = 0.0;
  std::vector<std::vector<OutboundMessage>> sends;

  verify::ExchangeObservation obs;
  std::vector<std::uint8_t> alive;
  std::vector<std::uint8_t> degraded;          // per rank: result.degraded
  std::vector<std::uint32_t> observed_epoch;   // per rank: stats.membership_epoch
  std::vector<std::int64_t> late_refused;      // per rank: stats.late_frames_refused
  std::vector<std::size_t> missing;            // per rank: failure.missing.size()
  std::uint32_t epoch_before = 0;
  std::uint32_t epoch_after = 0;

  CrashHarness(Vpt v, int rank, int stage)
      : vpt(std::move(v)),
        crash_rank(rank),
        crash_stage(stage),
        sends(two_message_sendsets(vpt.size())) {}

  void run_once() {
    const Rank K = vpt.size();
    obs.reset(K);
    obs.sends = sends;
    alive.assign(static_cast<std::size_t>(K), 1);
    degraded.assign(static_cast<std::size_t>(K), 0);
    observed_epoch.assign(static_cast<std::size_t>(K), 0);
    late_refused.assign(static_cast<std::size_t>(K), 0);
    missing.assign(static_cast<std::size_t>(K), 0);

    runtime::Cluster cluster(K);
    epoch_before = cluster.membership().epoch();
    fault::FaultConfig fc;
    fc.crash_rank = crash_rank;
    fc.crash_stage = crash_stage;
    fc.crash_survivable = true;
    fc.drop_prob = drop_prob;
    cluster.set_fault_injector(std::make_shared<fault::FaultInjector>(fc));
    cluster.run([&](runtime::Comm& comm) {
      const auto me = static_cast<std::size_t>(comm.rank());
      StfwCommunicator communicator(comm, vpt);
      ResilienceOptions opts;
      opts.retransmit_timeout = std::chrono::milliseconds(5);
      opts.stage_deadline = std::chrono::milliseconds(2000);
      opts.max_attempts = 8;
      const ResilientExchangeResult result =
          communicator.exchange_resilient(sends[me], opts);
      obs.delivered[me] = result.delivered;
      degraded[me] = result.degraded ? 1 : 0;
      observed_epoch[me] = communicator.last_stats().membership_epoch;
      late_refused[me] = communicator.last_stats().late_frames_refused;
      missing[me] = result.failure.missing.size();
    });
    for (const Rank dead : cluster.membership().failed())
      alive[static_cast<std::size_t>(dead)] = 0;
    epoch_after = cluster.membership().epoch();
  }

  std::string check() const {
    if (alive[static_cast<std::size_t>(crash_rank)] != 0)
      return "rank " + std::to_string(crash_rank) + " was configured to crash "
             "but is still listed alive";
    if (epoch_after != epoch_before + 1)
      return "membership epoch moved " + std::to_string(epoch_before) + " -> " +
             std::to_string(epoch_after) + "; expected exactly one bump";
    for (Rank r = 0; r < vpt.size(); ++r) {
      const auto i = static_cast<std::size_t>(r);
      if (alive[i] == 0) continue;
      if (degraded[i] == 0)
        return "survivor " + std::to_string(r) +
               " did not report a degraded exchange";
      if (observed_epoch[i] != epoch_after)
        return "survivor " + std::to_string(r) + " finished at epoch " +
               std::to_string(observed_epoch[i]) + ", cluster is at " +
               std::to_string(epoch_after);
      // A stage closes early only on its deadline, which records the gap:
      // otherwise it waits for every live neighbor's frame to be decided.
      if (late_refused[i] > 0 && missing[i] == 0)
        return "survivor " + std::to_string(r) + " nacked " + std::to_string(late_refused[i]) +
               " stage frame(s) as late, but none of its stage deadlines expired";
    }
    return verify::check_exchange_delivery_survivors(obs, alive);
  }

  verify::ExploreBody body() {
    return [this] { run_once(); };
  }
  verify::ExploreOracle oracle() {
    return [this] { return check(); };
  }
};

TEST(VerifyCrash, ExhaustiveScheduleSweepAtOneCrashSite) {
  // The anchor sweep: K=4 with a real forwarding dimension, rank 1 dying at
  // stage 0, schedules enumerated exhaustively under a preemption bound. The
  // resilient path branches far more than the plain one (timers, acks,
  // nacks, relay frames), so the cap may truncate the space — every schedule
  // actually run must still be clean.
  CrashHarness h(Vpt({2, 2}), /*crash_rank=*/1, /*crash_stage=*/0);
  verify::ExploreConfig cfg;
  cfg.mode = verify::ExploreConfig::Mode::kExhaustive;
  cfg.max_preemptions = 1;
  cfg.max_schedules = 400;
  cfg.label = "crash-exhaustive-k4-r1s0";
  const verify::ExploreResult res = verify::explore(cfg, h.body(), h.oracle());
  EXPECT_TRUE(res.clean()) << res.summary();
  EXPECT_GT(res.schedules_run, 1u) << "no branch points were enumerated";
}

TEST(VerifyCrash, EveryCrashSiteSurvivesRandomSchedules) {
  // Exhaustive over crash *sites* — every (rank, stage) pair at K=4 — with a
  // small seeded random schedule sweep at each site.
  const Vpt vpt({2, 2});
  const int per_site = std::max(2, schedule_count() / 8);
  for (int rank = 0; rank < vpt.size(); ++rank) {
    for (int stage = 0; stage < vpt.dim(); ++stage) {
      CrashHarness h(vpt, rank, stage);
      verify::ExploreConfig cfg;
      cfg.mode = verify::ExploreConfig::Mode::kRandom;
      cfg.schedules = per_site;
      cfg.base_seed = static_cast<std::uint64_t>(1000 + rank * 16 + stage);
      cfg.label = "crash-site-r" + std::to_string(rank) + "s" + std::to_string(stage);
      const verify::ExploreResult res = verify::explore(cfg, h.body(), h.oracle());
      EXPECT_TRUE(res.clean()) << cfg.label << ": " << res.summary();
    }
  }
}

TEST(VerifyCrash, TransitDeathAfterSettledReportIsReinjected) {
  // Rank 2 forwards 3->0 at stage 1 and dies on entering it. On schedules
  // where rank 3 has already settled and reported before the death, its
  // reinjected copy of 3->0 is new work after its report: the root must not
  // close the exchange on that report while the copy is still in flight.
  CrashHarness h(Vpt({2, 2}), /*crash_rank=*/2, /*crash_stage=*/1);
  verify::ExploreConfig cfg;
  cfg.mode = verify::ExploreConfig::Mode::kRandom;
  cfg.schedules = 64;
  cfg.base_seed = 4242;
  cfg.label = "crash-random-k4-r2s1";
  const verify::ExploreResult res = verify::explore(cfg, h.body(), h.oracle());
  EXPECT_TRUE(res.clean()) << res.summary();
}

TEST(VerifyCrash, DeadNeighbourNeverStandsInForALiveOne) {
  // Ranks 0, 1 and 2 form a stage-0 group of T(3,2); rank 0 dies on
  // entering stage 1. Rank 1 may hear rank 0's stage-0 frame and then see
  // it die before rank 2's frame arrives, dropped on its first transmission.
  // Rank 1's stage 0 must still wait for rank 2: counting the heard, dead
  // rank 0 in its place would close the stage early without recording a
  // gap, and rank 2's retransmit, restamped with the new epoch, would be
  // nacked as late and degrade to a fallback. Seed 26 of this sweep did that
  // when completion counted heard senders against live neighbours.
  CrashHarness h(Vpt({3, 2}), /*crash_rank=*/0, /*crash_stage=*/1);
  h.drop_prob = 0.2;
  verify::ExploreConfig cfg;
  cfg.mode = verify::ExploreConfig::Mode::kRandom;
  cfg.schedules = 16;
  cfg.base_seed = 26;
  cfg.label = "crash-random-k6-r0s1-drops";
  const verify::ExploreResult res = verify::explore(cfg, h.body(), h.oracle());
  EXPECT_TRUE(res.clean()) << res.summary();
}

TEST(VerifyCrash, DeeperRandomSweepOnThreeDimensionalVpt) {
  // Three stages give the dead rank a transit role (traffic neither from nor
  // to it routes through it), exercising the relay detour under exploration.
  CrashHarness h(Vpt({2, 2, 2}), /*crash_rank=*/3, /*crash_stage=*/1);
  verify::ExploreConfig cfg;
  cfg.mode = verify::ExploreConfig::Mode::kRandom;
  cfg.schedules = std::min(schedule_count(), 12);
  cfg.base_seed = 77;
  cfg.label = "crash-random-k8-transit";
  const verify::ExploreResult res = verify::explore(cfg, h.body(), h.oracle());
  EXPECT_TRUE(res.clean()) << res.summary();
  if (!res.replayed) {  // STFW_VERIFY_SCHEDULE narrows the sweep to one seed
    EXPECT_EQ(res.schedules_run, static_cast<std::uint64_t>(cfg.schedules));
  }
}

}  // namespace
}  // namespace stfw
