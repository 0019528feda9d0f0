// Unit tests of the persistent exchange-plan layer (ISSUE 4 tentpole): the
// pattern-keyed transparent cache inside StfwCommunicator::exchange(), the
// explicit plan()/exchange(plan, payloads) API, and the plan-reuse counters
// surfaced through spmv::run_distributed.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "core/error.hpp"
#include "core/exchange_plan.hpp"
#include "core/sync.hpp"
#include "core/vpt.hpp"
#include "partition/partitioner.hpp"
#include "runtime/comm.hpp"
#include "runtime/stfw_communicator.hpp"
#include "sparse/generators.hpp"
#include "spmv/runner.hpp"

namespace stfw {
namespace {

using core::Rank;
using core::Vpt;

using SendSets = std::vector<std::vector<OutboundMessage>>;

std::vector<std::byte> payload(std::size_t len, int fill) {
  return std::vector<std::byte>(len, static_cast<std::byte>(fill));
}

/// Fixed ring pattern; `salt` varies payload contents only (same signature),
/// `extra_bytes` grows every rank's first message (a different signature on
/// all ranks, so the whole cluster misses or hits together).
SendSets ring_sendsets(Rank num_ranks, int salt, std::size_t extra_bytes = 0) {
  SendSets sets(static_cast<std::size_t>(num_ranks));
  for (Rank r = 0; r < num_ranks; ++r) {
    const std::size_t len = 16 + static_cast<std::size_t>(r) + extra_bytes;
    sets[static_cast<std::size_t>(r)].push_back(
        OutboundMessage{(r + 1) % num_ranks, payload(len, salt + r)});
    sets[static_cast<std::size_t>(r)].push_back(
        OutboundMessage{(r + 2) % num_ranks, payload(8, salt - r)});
  }
  return sets;
}

TEST(PatternSignature, KeyedOnDestsAndSizesNotOrderOrPayload) {
  using core::PatternSignature;
  const std::vector<std::pair<Rank, std::uint32_t>> a{{1, 16}, {2, 8}, {3, 0}};
  const std::vector<std::pair<Rank, std::uint32_t>> reordered{{3, 0}, {1, 16}, {2, 8}};
  const std::vector<std::pair<Rank, std::uint32_t>> resized{{1, 16}, {2, 9}, {3, 0}};
  const std::vector<std::pair<Rank, std::uint32_t>> redirected{{1, 16}, {4, 8}, {3, 0}};

  EXPECT_EQ(PatternSignature::of(a).key, PatternSignature::of(reordered).key);
  // Same key, but the order-preserving sequence distinguishes them: a cache
  // hit requires the exact send order (payload slots are positional).
  EXPECT_FALSE(PatternSignature::of(a) == PatternSignature::of(reordered));
  EXPECT_TRUE(PatternSignature::of(a) == PatternSignature::of(a));
  EXPECT_NE(PatternSignature::of(a).key, PatternSignature::of(resized).key);
  EXPECT_NE(PatternSignature::of(a).key, PatternSignature::of(redirected).key);
}

/// Drives one communicator per rank through a scripted sequence of
/// exchanges, recording (plan_builds, plan_hits, cache_size) after each.
struct StepStats {
  std::int64_t builds = 0;
  std::int64_t hits = 0;
  std::size_t cache_size = 0;
};

std::vector<StepStats> run_script(Rank num_ranks, const Vpt& vpt,
                                  const std::vector<SendSets>& script,
                                  std::size_t capacity) {
  runtime::Cluster cluster(num_ranks);
  std::vector<StepStats> steps(script.size());
  cluster.run([&](runtime::Comm& comm) {
    StfwCommunicator communicator(comm, vpt);
    communicator.set_plan_cache_capacity(capacity);
    for (std::size_t step = 0; step < script.size(); ++step) {
      (void)communicator.exchange(script[step][static_cast<std::size_t>(comm.rank())]);
      if (comm.rank() == 0) {
        steps[step].builds = communicator.last_stats().plan_builds;
        steps[step].hits = communicator.last_stats().plan_hits;
        steps[step].cache_size = communicator.plan_cache_size();
      }
    }
  });
  return steps;
}

TEST(PlanCache, HitsOnIdenticalPatternMissesOnChange) {
  constexpr Rank kRanks = 4;
  const Vpt vpt({2, 2});
  const SendSets a = ring_sendsets(kRanks, 10);
  const SendSets a2 = ring_sendsets(kRanks, 99);      // same signature, new bytes
  const SendSets bigger = ring_sendsets(kRanks, 10, 4);  // size change
  SendSets moved = ring_sendsets(kRanks, 10);
  moved[0][0].dest = (moved[0][0].dest + 1) % kRanks;  // dest-set change

  const auto steps = run_script(kRanks, vpt, {a, a2, bigger, moved, a2}, 8);
  // a: records. a2: identical signature -> replay. bigger/moved: new
  // signatures -> record. a2 again: the first plan is still cached.
  EXPECT_EQ(steps[0].builds, 1);
  EXPECT_EQ(steps[0].hits, 0);
  EXPECT_EQ(steps[1].builds, 0);
  EXPECT_EQ(steps[1].hits, 1);
  EXPECT_EQ(steps[2].builds, 1);
  EXPECT_EQ(steps[2].hits, 0);
  EXPECT_EQ(steps[3].builds, 1);
  EXPECT_EQ(steps[3].hits, 0);
  EXPECT_EQ(steps[4].builds, 0);
  EXPECT_EQ(steps[4].hits, 1);
  EXPECT_EQ(steps[4].cache_size, 3u);
}

TEST(PlanCache, EvictionBoundAndLruOrder) {
  constexpr Rank kRanks = 4;
  const Vpt vpt({4});
  const SendSets a = ring_sendsets(kRanks, 1);
  const SendSets b = ring_sendsets(kRanks, 1, 8);
  const SendSets c = ring_sendsets(kRanks, 1, 16);

  // Capacity 2: a, b fill it; touching a makes b the LRU victim when c
  // arrives; a then still hits while b must rebuild.
  const auto steps = run_script(kRanks, vpt, {a, b, a, c, a, b}, 2);
  EXPECT_EQ(steps[2].hits, 1);           // a touched
  EXPECT_EQ(steps[3].builds, 1);         // c evicts b
  EXPECT_EQ(steps[3].cache_size, 2u);    // never exceeds capacity
  EXPECT_EQ(steps[4].hits, 1);           // a survived
  EXPECT_EQ(steps[5].builds, 1);         // b was evicted
  EXPECT_EQ(steps[5].cache_size, 2u);
}

TEST(PlanCache, CapacityZeroDisablesCaching) {
  constexpr Rank kRanks = 4;
  const SendSets a = ring_sendsets(kRanks, 3);
  const auto steps = run_script(kRanks, Vpt({2, 2}), {a, a, a}, 0);
  for (const auto& s : steps) {
    EXPECT_EQ(s.builds, 0);
    EXPECT_EQ(s.hits, 0);
    EXPECT_EQ(s.cache_size, 0u);
  }
}

TEST(PlanCache, ShrinkingCapacityEvictsDownToBound) {
  constexpr Rank kRanks = 4;
  const Vpt vpt({2, 2});
  runtime::Cluster cluster(kRanks);
  cluster.run([&](runtime::Comm& comm) {
    StfwCommunicator communicator(comm, vpt);
    communicator.set_plan_cache_capacity(4);
    for (int i = 0; i < 3; ++i)
      (void)communicator.exchange(
          ring_sendsets(kRanks, 1, static_cast<std::size_t>(8 * i))[static_cast<std::size_t>(
              comm.rank())]);
    EXPECT_EQ(communicator.plan_cache_size(), 3u);
    communicator.set_plan_cache_capacity(1);
    EXPECT_EQ(communicator.plan_cache_size(), 1u);
  });
}

TEST(PlanCache, ExplicitPlanReplayMatchesPlainExchange) {
  constexpr Rank kRanks = 8;
  const Vpt vpt({2, 2, 2});
  const SendSets sets = ring_sendsets(kRanks, 21);
  runtime::Cluster cluster(kRanks);
  cluster.run([&](runtime::Comm& comm) {
    const auto me = static_cast<std::size_t>(comm.rank());
    StfwCommunicator communicator(comm, vpt);
    communicator.set_plan_cache_capacity(0);  // isolate the explicit API
    const auto plan = communicator.plan(sets[me]);
    EXPECT_TRUE(plan->signature() == core::PatternSignature::of([&] {
      std::vector<std::pair<Rank, std::uint32_t>> p;
      for (const auto& s : sets[me])
        p.emplace_back(s.dest, static_cast<std::uint32_t>(s.bytes.size()));
      return p;
    }()));
    const auto reference = communicator.exchange(sets[me]);
    const auto replayed = communicator.exchange(*plan, sets[me]);
    EXPECT_EQ(communicator.last_stats().plan_hits, 1);
    ASSERT_EQ(replayed.size(), reference.size());
    for (std::size_t i = 0; i < replayed.size(); ++i) {
      EXPECT_EQ(replayed[i].source, reference[i].source);
      EXPECT_TRUE(replayed[i].bytes == reference[i].bytes);
    }
  });
}

TEST(PlanCache, ExplicitReplayRejectsMismatchedPayloads) {
  constexpr Rank kRanks = 4;
  const Vpt vpt({2, 2});
  const SendSets sets = ring_sendsets(kRanks, 5);
  runtime::Cluster cluster(kRanks);
  cluster.run([&](runtime::Comm& comm) {
    const auto me = static_cast<std::size_t>(comm.rank());
    StfwCommunicator communicator(comm, vpt);
    const auto plan = communicator.plan(sets[me]);
    // Wrong payload size for slot 0: every rank's local validation throws
    // before anything reaches the wire, so the cluster stays consistent.
    auto wrong = sets[me];
    wrong[0].bytes.push_back(std::byte{0});
    bool threw = false;
    try {
      (void)communicator.exchange(*plan, wrong);
    } catch (const core::Error&) {
      threw = true;
    }
    EXPECT_TRUE(threw);
    // The communicator is still usable collectively afterwards.
    (void)communicator.exchange(*plan, sets[me]);
  });
}

TEST(PlanCache, RunDistributedReusesOnePlanAcrossIterations) {
  const sparse::Csr a = sparse::stencil_2d(12, 12);
  constexpr Rank kRanks = 4;
  partition::PartitionOptions opts;
  opts.num_parts = kRanks;
  const auto parts = partition::partition_rows(a, opts);
  const spmv::SpmvProblem problem(a, parts, kRanks);
  runtime::Cluster cluster(kRanks);
  std::vector<double> x0(static_cast<std::size_t>(a.num_rows()), 1.0);

  constexpr int kIterations = 5;
  std::vector<spmv::ExchangeStatsTotals> totals;
  (void)spmv::run_distributed(cluster, problem, Vpt({2, 2}), x0, kIterations, &totals);

  ASSERT_EQ(totals.size(), static_cast<std::size_t>(kRanks));
  for (std::size_t r = 0; r < totals.size(); ++r) {
    EXPECT_EQ(totals[r].exchanges, kIterations) << "rank " << r;
    EXPECT_EQ(totals[r].plan_builds, 1) << "rank " << r;
    EXPECT_EQ(totals[r].plan_hits, kIterations - 1) << "rank " << r;
    EXPECT_EQ(totals[r].plan_fallbacks, 0) << "rank " << r;
    EXPECT_GT(totals[r].messages_sent, 0) << "rank " << r;
  }
}

TEST(PlanCache, ResilientExchangeReusesSeedRouting) {
  constexpr Rank kRanks = 8;
  const Vpt vpt({2, 2, 2});
  const SendSets sets = ring_sendsets(kRanks, 31);
  runtime::Cluster cluster(kRanks);
  cluster.run([&](runtime::Comm& comm) {
    const auto me = static_cast<std::size_t>(comm.rank());
    StfwCommunicator communicator(comm, vpt);
    (void)communicator.exchange(sets[me]);  // records the plan
    const ResilientExchangeResult r = communicator.exchange_resilient(sets[me]);
    EXPECT_TRUE(r.fully_recovered);
    // The resilient path found the frozen routes in the cache.
    EXPECT_EQ(communicator.last_stats().plan_hits, 1);
  });
}

// The header lets a configuration thread resize the cache while the rank is
// mid-exchange, so exchange_resilient must read the bound under the cache
// mutex too. The ranks loop exchange_resilient alone: no plain exchange()
// between the calls takes the mutex and happens to order the read after the
// flips, so under TSan an unlocked read is a reported data race.
TEST(PlanCache, CapacityFlipsRaceResilientExchanges) {
  constexpr Rank kRanks = 4;
  const Vpt vpt({2, 2});
  const SendSets sets = ring_sendsets(kRanks, 41);
  runtime::Cluster cluster(kRanks);
  cluster.run([&](runtime::Comm& comm) {
    const auto me = static_cast<std::size_t>(comm.rank());
    StfwCommunicator communicator(comm, vpt);
    const std::vector<InboundMessage> reference = communicator.exchange(sets[me]);
    std::atomic<bool> stop{false};
    core::Thread config([&] {
      for (std::uint64_t flip = 0; !stop.load(std::memory_order_acquire); ++flip) {
        communicator.set_plan_cache_capacity(flip % 2 == 0 ? 0 : 4);
        std::this_thread::yield();
      }
    });
    struct StopAndJoin {  // also on a throwing exchange
      std::atomic<bool>& stop;
      core::Thread& thread;
      ~StopAndJoin() {
        stop.store(true, std::memory_order_release);
        thread.join();
      }
    } stop_config{stop, config};
    for (int i = 0; i < 30; ++i) {
      const ResilientExchangeResult r = communicator.exchange_resilient(sets[me]);
      EXPECT_TRUE(r.fully_recovered);
      EXPECT_EQ(r.delivered, reference) << "rank " << me << " exchange " << i;
    }
  });
}

}  // namespace
}  // namespace stfw
