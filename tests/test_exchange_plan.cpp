// Unit tests of the persistent exchange-plan layer: the pattern-keyed
// transparent cache inside StfwCommunicator::exchange() (hits, misses, LRU
// eviction at its constant capacity) and the plan-reuse counters surfaced
// through spmv::run_distributed.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/error.hpp"
#include "core/exchange_plan.hpp"
#include "core/vpt.hpp"
#include "partition/partitioner.hpp"
#include "runtime/comm.hpp"
#include "runtime/stfw_communicator.hpp"
#include "sparse/generators.hpp"
#include "spmv/runner.hpp"

namespace stfw {

/// Test access to StfwCommunicator's transparent plan cache.
struct PlanCacheProbe {
  static std::size_t size(const StfwCommunicator& stfw) { return stfw.plan_cache_.size(); }
  static constexpr std::size_t kCapacity = StfwCommunicator::kPlanCacheCapacity;
};

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

/// Drives one communicator per rank through a scripted sequence of
/// exchanges, recording (plan_builds, plan_hits, cache_size) after each.
struct StepStats {
  std::int64_t builds = 0;
  std::int64_t hits = 0;
  std::size_t cache_size = 0;
};

std::vector<StepStats> run_script(Rank num_ranks, const Vpt& vpt,
                                  const std::vector<SendSets>& script) {
  runtime::Cluster cluster(num_ranks);
  std::vector<StepStats> steps(script.size());
  cluster.run([&](runtime::Comm& comm) {
    StfwCommunicator communicator(comm, vpt);
    for (std::size_t step = 0; step < script.size(); ++step) {
      (void)communicator.exchange(script[step][static_cast<std::size_t>(comm.rank())]);
      if (comm.rank() == 0) {
        steps[step].builds = communicator.last_stats().plan_builds;
        steps[step].hits = communicator.last_stats().plan_hits;
        steps[step].cache_size = PlanCacheProbe::size(communicator);
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

  const auto steps = run_script(kRanks, vpt, {a, a2, bigger, moved, a2});
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

/// Send sets whose first message grows by `8 * i` bytes: a distinct pattern
/// for every `i`, on every rank.
SendSets nth_pattern(Rank num_ranks, int i) {
  return ring_sendsets(num_ranks, 1, static_cast<std::size_t>(8 * i));
}

TEST(PlanCache, EvictionBoundAndLruOrder) {
  constexpr Rank kRanks = 4;
  const Vpt vpt({4});
  ASSERT_EQ(PlanCacheProbe::kCapacity, 4u);
  const SendSets a = nth_pattern(kRanks, 0);
  const SendSets b = nth_pattern(kRanks, 1);
  const SendSets c = nth_pattern(kRanks, 2);
  const SendSets d = nth_pattern(kRanks, 3);
  const SendSets e = nth_pattern(kRanks, 4);

  // a..d fill the cache; touching a makes b the LRU victim when e arrives;
  // a then still hits while b must rebuild (evicting c, now the LRU).
  const auto steps = run_script(kRanks, vpt, {a, b, c, d, a, e, a, b, d});
  EXPECT_EQ(steps[3].cache_size, 4u);
  EXPECT_EQ(steps[4].hits, 1);           // a touched
  EXPECT_EQ(steps[5].builds, 1);         // e evicts b
  EXPECT_EQ(steps[5].cache_size, 4u);    // never exceeds capacity
  EXPECT_EQ(steps[6].hits, 1);           // a survived
  EXPECT_EQ(steps[7].builds, 1);         // b was evicted
  EXPECT_EQ(steps[7].cache_size, 4u);
  EXPECT_EQ(steps[8].hits, 1);           // d outlived c, the older of the two
}

TEST(PlanCache, FourPatternsStayCachedTogether) {
  constexpr Rank kRanks = 4;
  std::vector<SendSets> script;
  for (int round = 0; round < 3; ++round)
    for (int i = 0; i < 4; ++i) script.push_back(nth_pattern(kRanks, i));
  const auto steps = run_script(kRanks, Vpt({2, 2}), script);
  for (std::size_t step = 0; step < steps.size(); ++step) {
    const bool first_round = step < 4;
    EXPECT_EQ(steps[step].builds, first_round ? 1 : 0) << "step " << step;
    EXPECT_EQ(steps[step].hits, first_round ? 0 : 1) << "step " << step;
    EXPECT_EQ(steps[step].cache_size, first_round ? step + 1 : 4u) << "step " << step;
  }
}

/// Payload slots are positional, so a hit needs the exact (dest, size)
/// sequence: the same sends in another order are a new pattern that misses
/// and records, after which both orders hit.
TEST(PlanCache, SameSendsInANewOrderMissAndRecord) {
  constexpr Rank kRanks = 4;
  const SendSets a = ring_sendsets(kRanks, 7);
  SendSets swapped = a;
  for (auto& sends : swapped) std::swap(sends[0], sends[1]);
  const auto steps = run_script(kRanks, Vpt({2, 2}), {a, swapped, a, swapped});
  EXPECT_EQ(steps[0].builds, 1);
  EXPECT_EQ(steps[1].builds, 1);
  EXPECT_EQ(steps[1].hits, 0);
  EXPECT_EQ(steps[1].cache_size, 2u);
  EXPECT_EQ(steps[2].hits, 1);
  EXPECT_EQ(steps[3].hits, 1);
}

/// A pattern of zero-length messages still has a (dest, size) sequence:
/// it records once and then hits, delivering one empty message per send.
TEST(PlanCache, AllZeroLengthPatternHits) {
  constexpr Rank kRanks = 8;
  const Vpt vpt({2, 2, 2});
  runtime::Cluster cluster(kRanks);
  cluster.run([&](runtime::Comm& comm) {
    const auto me = static_cast<Rank>(comm.rank());
    StfwCommunicator communicator(comm, vpt);
    const std::vector<OutboundMessage> sends{{(me + 1) % kRanks, {}},
                                             {(me + 3) % kRanks, {}},
                                             {me, {}}};
    std::vector<InboundMessage> want{{(me + kRanks - 3) % kRanks, {}},
                                     {(me + kRanks - 1) % kRanks, {}},
                                     {me, {}}};
    std::ranges::sort(want, {}, &InboundMessage::source);
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(communicator.exchange(sends), want) << "rank " << me << " exchange " << i;
      EXPECT_EQ(communicator.last_stats().plan_builds, i == 0 ? 1 : 0) << "exchange " << i;
      EXPECT_EQ(communicator.last_stats().plan_hits, i == 0 ? 0 : 1) << "exchange " << i;
    }
  });
}

/// Every rank sending nothing is a pattern too: the empty sequence records
/// once and then hits, with nothing on the wire.
TEST(PlanCache, EmptySendListsHit) {
  const auto steps = run_script(4, Vpt({2, 2}), {SendSets(4), SendSets(4), SendSets(4)});
  EXPECT_EQ(steps[0].builds, 1);
  EXPECT_EQ(steps[1].hits, 1);
  EXPECT_EQ(steps[2].hits, 1);
  EXPECT_EQ(steps[2].cache_size, 1u);
}

/// A hit replays the recording's frozen counters: frames, payload and wire
/// bytes, and the paper's buffer metric all equal the recording exchange's.
TEST(PlanCache, ReplayReproducesTheRecordingsCounters) {
  constexpr Rank kRanks = 8;
  const Vpt vpt({4, 2});
  const SendSets first = ring_sendsets(kRanks, 11, 40);
  const SendSets again = ring_sendsets(kRanks, 12, 40);  // same pattern, new bytes
  runtime::Cluster cluster(kRanks);
  cluster.run([&](runtime::Comm& comm) {
    const auto me = static_cast<std::size_t>(comm.rank());
    StfwCommunicator communicator(comm, vpt);
    (void)communicator.exchange(first[me]);
    const LocalExchangeStats recorded = communicator.last_stats();
    (void)communicator.exchange(again[me]);
    const LocalExchangeStats& replayed = communicator.last_stats();
    ASSERT_EQ(replayed.plan_hits, 1);
    EXPECT_EQ(replayed.messages_sent, recorded.messages_sent) << "rank " << me;
    EXPECT_EQ(replayed.messages_received, recorded.messages_received) << "rank " << me;
    EXPECT_EQ(replayed.payload_bytes_sent, recorded.payload_bytes_sent) << "rank " << me;
    EXPECT_EQ(replayed.wire_bytes_sent, recorded.wire_bytes_sent) << "rank " << me;
    EXPECT_EQ(replayed.peak_buffer_bytes, recorded.peak_buffer_bytes) << "rank " << me;
  });
}

/// The cache belongs to one communicator: a second communicator over the
/// same Comm and VPT misses on a pattern the first one recorded.
TEST(PlanCache, TwoCommunicatorsKeepSeparateCaches) {
  constexpr Rank kRanks = 4;
  const Vpt vpt({2, 2});
  const SendSets sets = ring_sendsets(kRanks, 13);
  runtime::Cluster cluster(kRanks);
  cluster.run([&](runtime::Comm& comm) {
    const auto me = static_cast<std::size_t>(comm.rank());
    StfwCommunicator first(comm, vpt);
    StfwCommunicator second(comm, vpt);
    const std::vector<InboundMessage> want = first.exchange(sets[me]);
    EXPECT_EQ(second.exchange(sets[me]), want);
    EXPECT_EQ(second.last_stats().plan_builds, 1);
    EXPECT_EQ(first.exchange(sets[me]), want);
    EXPECT_EQ(first.last_stats().plan_hits, 1);
    EXPECT_EQ(PlanCacheProbe::size(first), 1u);
    EXPECT_EQ(PlanCacheProbe::size(second), 1u);
  });
}

/// A send list that every rank rejects before claiming tags leaves the
/// cache as it was: the recorded pattern still hits afterwards.
TEST(PlanCache, RejectedSendListLeavesTheCacheUsable) {
  constexpr Rank kRanks = 4;
  const Vpt vpt({2, 2});
  const SendSets sets = ring_sendsets(kRanks, 17);
  runtime::Cluster cluster(kRanks);
  cluster.run([&](runtime::Comm& comm) {
    const auto me = static_cast<std::size_t>(comm.rank());
    StfwCommunicator communicator(comm, vpt);
    const std::vector<InboundMessage> want = communicator.exchange(sets[me]);
    const std::vector<OutboundMessage> bad{{kRanks, {std::byte{1}}}};
    EXPECT_THROW((void)communicator.exchange(bad), core::Error);
    EXPECT_EQ(PlanCacheProbe::size(communicator), 1u);
    EXPECT_EQ(communicator.exchange(sets[me]), want) << "rank " << me;
    EXPECT_EQ(communicator.last_stats().plan_hits, 1);
  });
}

/// A drift fallback drops only the plan it fell back from: another pattern
/// recorded earlier stays cached and hits.
TEST(PlanCache, DriftFallbackDropsOnlyTheDriftedPlan) {
  constexpr Rank kRanks = 8;
  const Vpt vpt({2, 2, 2});
  const SendSets a = ring_sendsets(kRanks, 19);
  const SendSets b = ring_sendsets(kRanks, 19, 8);
  SendSets drift = a;
  drift[0][0].bytes.push_back(std::byte{0});  // rank 0 alone changes its pattern
  runtime::Cluster cluster(kRanks);
  std::vector<LocalExchangeStats> drifted(kRanks), after(kRanks);
  std::vector<std::size_t> sizes(kRanks);
  cluster.run([&](runtime::Comm& comm) {
    const auto me = static_cast<std::size_t>(comm.rank());
    StfwCommunicator communicator(comm, vpt);
    (void)communicator.exchange(b[me]);
    (void)communicator.exchange(a[me]);
    (void)communicator.exchange(drift[me]);
    drifted[me] = communicator.last_stats();
    sizes[me] = PlanCacheProbe::size(communicator);
    (void)communicator.exchange(b[me]);
    after[me] = communicator.last_stats();
  });
  int fallbacks = 0;
  for (std::size_t r = 0; r < kRanks; ++r) {
    const bool fell_back = drifted[r].plan_fallbacks == 1;
    fallbacks += fell_back ? 1 : 0;
    // Rank 0 recorded its third pattern; a peer that fell back kept only b.
    EXPECT_EQ(sizes[r], r == 0 ? 3u : (fell_back ? 1u : 2u)) << "rank " << r;
    EXPECT_EQ(after[r].plan_hits, 1) << "rank " << r;
    EXPECT_EQ(after[r].plan_fallbacks, 0) << "rank " << r;
  }
  EXPECT_GE(fallbacks, 1);
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

TEST(PlanCache, ResilientExchangeLeavesThePlanCacheAlone) {
  // exchange_resilient routes every seed from the membership view, so a
  // plan recorded by a plain exchange of the same pattern is neither looked
  // up, rebuilt nor evicted by it.
  constexpr Rank kRanks = 8;
  const Vpt vpt({2, 2, 2});
  const SendSets sets = ring_sendsets(kRanks, 31);
  runtime::Cluster cluster(kRanks);
  cluster.run([&](runtime::Comm& comm) {
    const auto me = static_cast<std::size_t>(comm.rank());
    StfwCommunicator communicator(comm, vpt);
    const std::vector<InboundMessage> plain = communicator.exchange(sets[me]);
    ASSERT_EQ(communicator.last_stats().plan_builds, 1);
    const std::size_t cached = PlanCacheProbe::size(communicator);
    const ResilientExchangeResult r = communicator.exchange_resilient(sets[me]);
    EXPECT_TRUE(r.fully_recovered);
    EXPECT_EQ(r.delivered, plain) << "rank " << me;
    EXPECT_EQ(communicator.last_stats().plan_hits, 0);
    EXPECT_EQ(communicator.last_stats().plan_builds, 0);
    EXPECT_EQ(PlanCacheProbe::size(communicator), cached);
  });
}

TEST(PlanCache, PlainExchangeAfterAResilientOneStillReplaysItsPlan) {
  // A resilient exchange in between reserves tags from the same Comm but
  // leaves the recorded plan in place: the next plain exchange of the same
  // pattern replays it and delivers what the recording exchange did.
  constexpr Rank kRanks = 8;
  const Vpt vpt({4, 2});
  const SendSets sets = ring_sendsets(kRanks, 37);
  runtime::Cluster cluster(kRanks);
  cluster.run([&](runtime::Comm& comm) {
    const auto me = static_cast<std::size_t>(comm.rank());
    StfwCommunicator communicator(comm, vpt);
    const std::vector<InboundMessage> recorded = communicator.exchange(sets[me]);
    ASSERT_EQ(communicator.last_stats().plan_builds, 1);
    const ResilientExchangeResult r = communicator.exchange_resilient(sets[me]);
    EXPECT_TRUE(r.fully_recovered);
    const std::vector<InboundMessage> replayed = communicator.exchange(sets[me]);
    EXPECT_EQ(communicator.last_stats().plan_hits, 1);
    EXPECT_EQ(communicator.last_stats().plan_builds, 0);
    EXPECT_EQ(replayed, recorded) << "rank " << me;
  });
}

// The recorder maps each payload's arena offset to its replay source. A
// payload it was never told about — an offset no seed or received frame
// produced, or a known offset with another size — must surface as the named
// plan-layout error, not as a library exception escaping the exchange.
TEST(PlanRecorder, UnrecordedPayloadSourceIsAPlanLayoutError) {
  const Vpt vpt = Vpt::direct(4);
  const core::Submessage unknown_offset{1, 2, 4, 8, 0};
  const core::Submessage wrong_size{1, 2, 0, 6, 0};
  for (const core::Submessage& sub : {unknown_offset, wrong_size}) {
    core::PlanRecorder rec(vpt, /*me=*/1, 1);
    rec.on_seed(2, 0, 8);
    try {
      rec.on_stage_send(0, 2, {&sub, 1});
      ADD_FAILURE() << "sub at offset " << sub.offset << " accepted";
    } catch (const core::ValidationError& e) {
      EXPECT_EQ(e.check(), "plan-layout");
    }
  }
}

}  // namespace
}  // namespace stfw
