// Differential test of every exchange implementation: the cached-replay
// fast path, the recording Algorithm 1 run of a cache miss, the resilient
// frame protocol and the BL/direct baseline must deliver byte-identical
// multisets of InboundMessages for the same send pattern. Any divergence
// between the recorded-plan replay and the paths it shortcuts is a routing
// bug.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "core/vpt.hpp"
#include "runtime/comm.hpp"
#include "runtime/stfw_communicator.hpp"

namespace stfw {
namespace {

using core::Rank;
using core::Vpt;

using SendSets = std::vector<std::vector<OutboundMessage>>;
/// received[r], sorted (source, bytes) — the order-insensitive multiset.
using Inboxes = std::vector<std::vector<InboundMessage>>;

/// Seeded skewed pattern: rank 0 fans out to everyone, a few "hub" ranks to
/// many, the rest to a handful; sizes span empty through `max_bytes`, with
/// at least one exactly-empty and one exactly-max message in the set.
SendSets skewed_sendsets(Rank num_ranks, std::uint64_t seed, std::size_t max_bytes) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> dest_dist(0, num_ranks - 1);
  std::uniform_int_distribution<std::size_t> len_dist(0, 96);
  std::uniform_int_distribution<int> byte_dist(0, 255);
  SendSets sets(static_cast<std::size_t>(num_ranks));
  auto add = [&](Rank src, Rank dest, std::size_t len) {
    if (dest == src) dest = (dest + 1) % num_ranks;  // SendSets exclude self
    OutboundMessage m;
    m.dest = dest;
    m.bytes.resize(len);
    for (std::byte& b : m.bytes) b = static_cast<std::byte>(byte_dist(rng));
    sets[static_cast<std::size_t>(src)].push_back(std::move(m));
  };
  for (Rank dest = 1; dest < num_ranks; ++dest) add(0, dest, len_dist(rng));
  for (Rank src = 1; src < num_ranks; ++src) {
    const int fanout = (src % 5 == 1) ? std::max(1, num_ranks / 2) : 1 + src % 4;
    for (int i = 0; i < fanout; ++i) add(src, dest_dist(rng), len_dist(rng));
  }
  // Edge payloads the generators above may have missed: an empty message, a
  // max-size message, and a duplicate (src, dest) pair.
  add(1 % num_ranks, num_ranks - 1, 0);
  add(num_ranks - 1, 0, max_bytes);
  add(1 % num_ranks, num_ranks - 1, 7);
  add(1 % num_ranks, num_ranks - 1, 7);
  return sets;
}

void sort_inbox(std::vector<InboundMessage>& inbox) {
  std::sort(inbox.begin(), inbox.end(), [](const InboundMessage& a, const InboundMessage& b) {
    return a.source != b.source ? a.source < b.source : a.bytes < b.bytes;
  });
}

enum class Mode { kUnplanned, kCachedReplay, kResilient };

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kUnplanned: return "unplanned";
    case Mode::kCachedReplay: return "cached-replay";
    case Mode::kResilient: return "resilient";
  }
  return "?";
}

/// One collective exchange in `mode`; returns per-rank sorted inboxes.
Inboxes run_mode(runtime::Cluster& cluster, const Vpt& vpt, const SendSets& sets, Mode mode) {
  Inboxes received(sets.size());
  cluster.run([&](runtime::Comm& comm) {
    StfwCommunicator communicator(comm, vpt);
    const auto& sends = sets[static_cast<std::size_t>(comm.rank())];
    std::vector<InboundMessage> inbox;
    switch (mode) {
      case Mode::kUnplanned:  // a fresh communicator's first exchange misses
        inbox = communicator.exchange(sends);
        break;
      case Mode::kCachedReplay:
        (void)communicator.exchange(sends);  // records the plan
        inbox = communicator.exchange(sends);
        EXPECT_EQ(communicator.last_stats().plan_hits, 1);
        break;
      case Mode::kResilient: {
        ResilientExchangeResult r = communicator.exchange_resilient(sends);
        EXPECT_TRUE(r.fully_recovered);
        EXPECT_TRUE(r.failure.empty());
        inbox = std::move(r.delivered);
        break;
      }
    }
    sort_inbox(inbox);
    received[static_cast<std::size_t>(comm.rank())] = std::move(inbox);
  });
  return received;
}

void expect_same_inboxes(const Inboxes& reference, const Inboxes& other, const char* label) {
  ASSERT_EQ(reference.size(), other.size());
  for (std::size_t r = 0; r < reference.size(); ++r) {
    ASSERT_EQ(reference[r].size(), other[r].size()) << label << ", rank " << r;
    for (std::size_t i = 0; i < reference[r].size(); ++i) {
      EXPECT_EQ(reference[r][i].source, other[r][i].source) << label << ", rank " << r;
      EXPECT_TRUE(reference[r][i].bytes == other[r][i].bytes)
          << label << ": payload bytes diverge at rank " << r << ", message " << i;
    }
  }
}

struct EquivalenceCase {
  Rank num_ranks;
  std::vector<int> dims;
  std::uint64_t seed;
  std::size_t max_bytes;
};

class ExchangeEquivalence : public ::testing::TestWithParam<EquivalenceCase> {};

TEST_P(ExchangeEquivalence, AllModesDeliverIdenticalMultisets) {
  const auto& param = GetParam();
  const Vpt vpt(param.dims);
  ASSERT_EQ(vpt.size(), param.num_ranks);
  const SendSets sets = skewed_sendsets(param.num_ranks, param.seed, param.max_bytes);

  runtime::Cluster cluster(param.num_ranks);
  const Inboxes reference = run_mode(cluster, Vpt::direct(param.num_ranks), sets,
                                     Mode::kUnplanned);  // BL baseline
  for (const Mode mode : {Mode::kUnplanned, Mode::kCachedReplay, Mode::kResilient}) {
    const Inboxes got = run_mode(cluster, vpt, sets, mode);
    expect_same_inboxes(reference, got, mode_name(mode));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ExchangeEquivalence,
    ::testing::Values(EquivalenceCase{8, {2, 2, 2}, 101, 4096},
                      EquivalenceCase{8, {4, 2}, 202, 65536},
                      EquivalenceCase{32, {4, 8}, 303, 4096},
                      EquivalenceCase{32, {2, 4, 4}, 404, 16384},
                      EquivalenceCase{128, {16, 8}, 505, 2048},
                      EquivalenceCase{128, {4, 4, 8}, 606, 2048}));

/// A rank that changes its pattern between iterations must not poison the
/// peers that kept theirs: their cached replays detect the drift mid-flight,
/// fall back to Algorithm 1, and everything is still delivered exactly once.
TEST(ExchangeEquivalence, MixedPatternDriftFallsBackCorrectly) {
  constexpr Rank kRanks = 8;
  const Vpt vpt({2, 2, 2});
  const SendSets first = skewed_sendsets(kRanks, 888, 1024);
  SendSets second = first;
  // Rank 0 grows one payload and adds a new destination; everyone else keeps
  // an identical pattern (and therefore hits the plan cache).
  second[0][0].bytes.resize(second[0][0].bytes.size() + 13, std::byte{0x5a});
  second[0].push_back(OutboundMessage{kRanks - 1, {std::byte{1}, std::byte{2}}});

  runtime::Cluster cluster(kRanks);
  Inboxes got(kRanks);
  std::vector<LocalExchangeStats> stats(kRanks);
  cluster.run([&](runtime::Comm& comm) {
    const auto me = static_cast<std::size_t>(comm.rank());
    StfwCommunicator communicator(comm, vpt);
    (void)communicator.exchange(first[me]);  // records `first` on all ranks
    auto inbox = communicator.exchange(second[me]);
    stats[me] = communicator.last_stats();
    sort_inbox(inbox);
    got[me] = std::move(inbox);
  });

  // Rank 0's pattern changed, so it rebuilt; at least one peer must have
  // started a replay and detected drift (rank 0's stage-0 neighbors see
  // different frames).
  EXPECT_EQ(stats[0].plan_builds, 1);
  EXPECT_EQ(stats[0].plan_hits, 0);
  std::int64_t fallbacks = 0;
  for (const auto& s : stats) fallbacks += s.plan_fallbacks;
  EXPECT_GE(fallbacks, 1);

  const Inboxes reference = run_mode(cluster, Vpt::direct(kRanks), second, Mode::kUnplanned);
  expect_same_inboxes(reference, got, "drift-fallback");
}

/// The drift seam of the cached path: a rank whose first drifted frame
/// arrives at its last stage rebuilds Algorithm 1's state from the frames
/// its replay parked for every earlier stage and resumes there. Rank 0 adds
/// a send to the rank that differs from it in every digit; that submessage
/// reaches the destination only in the last stage, so the destination's
/// earlier stages still match the plan, while each rank along the route
/// drifts one stage later than the one before.
TEST(ExchangeEquivalence, DriftAtLastStageResumesFromParkedFrames) {
  const Vpt vpt({2, 2, 2});
  const Rank kRanks = vpt.size();
  const int n = vpt.dim();
  Rank far = 0;
  for (int d = 0; d < n; ++d) far = vpt.with_coord(far, d, vpt.dim_size(d) - 1);
  const SendSets first = skewed_sendsets(kRanks, 4242, 1024);
  SendSets second = first;
  second[0].push_back(OutboundMessage{far, {std::byte{7}, std::byte{8}, std::byte{9}}});

  runtime::Cluster cluster(kRanks);
  Inboxes got(static_cast<std::size_t>(kRanks));
  std::vector<LocalExchangeStats> stats(static_cast<std::size_t>(kRanks));
  cluster.run([&](runtime::Comm& comm) {
    const auto me = static_cast<std::size_t>(comm.rank());
    StfwCommunicator communicator(comm, vpt);
    (void)communicator.exchange(first[me]);  // records `first` on all ranks
    auto inbox = communicator.exchange(second[me]);
    stats[me] = communicator.last_stats();
    sort_inbox(inbox);
    got[me] = std::move(inbox);
  });

  // Rank 0 records afresh; its route to `far` falls back one stage per hop,
  // ending at `far` in the last stage (n - 1 >= 1).
  EXPECT_EQ(stats[0].plan_builds, 1);
  const LocalExchangeStats& last = stats[static_cast<std::size_t>(far)];
  EXPECT_EQ(last.plan_hits, 1);
  EXPECT_EQ(last.plan_fallbacks, 1);

  const Inboxes reference = run_mode(cluster, Vpt::direct(kRanks), second, Mode::kUnplanned);
  ASSERT_EQ(got[static_cast<std::size_t>(far)], reference[static_cast<std::size_t>(far)])
      << "rank " << far << " resumed at stage " << n - 1;
  expect_same_inboxes(reference, got, "drift-at-last-stage");

  // A fallback closes its stages on the same group arrivals as a replay:
  // every frame sent is drained exactly once, and none is a filler.
  std::int64_t sent = 0;
  std::int64_t received = 0;
  int fallbacks = 0;
  for (Rank r = 0; r < kRanks; ++r) {
    const LocalExchangeStats& s = stats[static_cast<std::size_t>(r)];
    EXPECT_EQ(s.filler_frames_sent, 0) << "rank " << r;
    EXPECT_EQ(s.filler_frames_received, 0) << "rank " << r;
    sent += s.messages_sent;
    received += s.messages_received;
    if (s.plan_fallbacks != 0) ++fallbacks;
  }
  EXPECT_EQ(sent, received);
  EXPECT_GE(fallbacks, n) << "one fallback per hop of the drifted route";
}

/// A drift fallback drops the plan it fell back from. Rank 0 changes its
/// pattern once and keeps the new one; every other rank keeps its own. The
/// peers that fell back miss on their unchanged pattern in the next
/// exchange and record it afresh, the rest hit, and from then on every
/// rank hits without drift.
TEST(ExchangeEquivalence, PatternMissesAndRecordsAfterItsDriftFallback) {
  constexpr Rank kRanks = 8;
  const Vpt vpt({2, 2, 2});
  const SendSets first = skewed_sendsets(kRanks, 2468, 1024);
  SendSets second = first;
  second[0][0].bytes.resize(second[0][0].bytes.size() + 5, std::byte{0x3c});

  constexpr int kExchanges = 4;  // first, then second three times
  runtime::Cluster cluster(kRanks);
  std::vector<Inboxes> got(kExchanges, Inboxes(kRanks));
  std::vector<std::vector<LocalExchangeStats>> stats(
      kExchanges, std::vector<LocalExchangeStats>(kRanks));
  cluster.run([&](runtime::Comm& comm) {
    const auto me = static_cast<std::size_t>(comm.rank());
    StfwCommunicator communicator(comm, vpt);
    for (int x = 0; x < kExchanges; ++x) {
      auto inbox = communicator.exchange(x == 0 ? first[me] : second[me]);
      stats[static_cast<std::size_t>(x)][me] = communicator.last_stats();
      sort_inbox(inbox);
      got[static_cast<std::size_t>(x)][me] = std::move(inbox);
    }
  });

  const Inboxes reference = run_mode(cluster, Vpt::direct(kRanks), second, Mode::kUnplanned);
  int fell_back = 0;
  for (std::size_t r = 0; r < kRanks; ++r) {
    const bool drifted = stats[1][r].plan_fallbacks == 1;
    fell_back += drifted ? 1 : 0;
    if (r == 0) {
      EXPECT_EQ(stats[1][r].plan_builds, 1);  // rank 0's new pattern records
      EXPECT_EQ(stats[2][r].plan_hits, 1);
    } else {
      EXPECT_EQ(stats[1][r].plan_hits, 1) << "rank " << r;
      // A rank that fell back lost its plan: it misses and records again.
      EXPECT_EQ(stats[2][r].plan_builds, drifted ? 1 : 0) << "rank " << r;
      EXPECT_EQ(stats[2][r].plan_hits, drifted ? 0 : 1) << "rank " << r;
    }
    EXPECT_EQ(stats[2][r].plan_fallbacks, 0) << "rank " << r;
    EXPECT_EQ(stats[3][r].plan_hits, 1) << "rank " << r;
    EXPECT_EQ(stats[3][r].plan_fallbacks, 0) << "rank " << r;
  }
  EXPECT_GE(fell_back, 1);
  for (int x = 1; x < kExchanges; ++x)
    expect_same_inboxes(reference, got[static_cast<std::size_t>(x)], "after drift");
}

/// The overlap hook must not change what is delivered. Runs with and
/// without a hook over both the recording and the cached-replay path and
/// compares against the BL/direct baseline byte-for-byte; also checks the
/// hook fires exactly once per exchange.
TEST(ExchangeEquivalence, OverlapDeliversIdenticalMultisets) {
  constexpr Rank kRanks = 16;
  const Vpt vpt({4, 4});
  const SendSets sets = skewed_sendsets(kRanks, 777, 2048);
  runtime::Cluster cluster(kRanks);

  auto run_with = [&](bool use_hook, const char* label) {
    Inboxes received(kRanks);
    std::vector<std::int64_t> hook_calls(kRanks, 0);
    cluster.run([&](runtime::Comm& comm) {
      const auto me = static_cast<std::size_t>(comm.rank());
      StfwCommunicator communicator(comm, vpt);
      std::vector<InboundMessage> inbox;
      if (use_hook) {
        const OverlapHook hook = [&] { ++hook_calls[me]; };
        (void)communicator.exchange(sets[me], hook);    // records the plan
        inbox = communicator.exchange(sets[me], hook);  // cached replay
      } else {
        (void)communicator.exchange(sets[me]);
        inbox = communicator.exchange(sets[me]);
      }
      EXPECT_EQ(communicator.last_stats().plan_hits, 1) << label;
      sort_inbox(inbox);
      received[me] = std::move(inbox);
    });
    if (use_hook) {
      for (Rank r = 0; r < kRanks; ++r)
        EXPECT_EQ(hook_calls[static_cast<std::size_t>(r)], 2)
            << label << ": hook must fire once per exchange, rank " << r;
    }
    return received;
  };

  const Inboxes reference = run_mode(cluster, Vpt::direct(kRanks), sets, Mode::kUnplanned);
  expect_same_inboxes(reference, run_with(false, "overlap-off"), "overlap-off");
  expect_same_inboxes(reference, run_with(true, "overlap-on"), "overlap-on");
}

/// Two communicators over different VPTs take turns in one Cluster::run,
/// recording and then replaying their plans. A rank that finished one
/// communicator's exchange may start the other's while a slower peer is
/// still inside a stage of the first; each plain exchange reserves its own
/// stage tags from the rank's Comm, so the peer's drain never takes the
/// fast rank's next frames, and both stay byte-identical to BL.
TEST(ExchangeEquivalence, TwoCommunicatorsOverDifferentVptsShareOneRun) {
  constexpr Rank kRanks = 16;
  const SendSets sets = skewed_sendsets(kRanks, 1357, 1024);
  runtime::Cluster cluster(kRanks);
  const Inboxes reference = run_mode(cluster, Vpt::direct(kRanks), sets, Mode::kUnplanned);
  constexpr int kRounds = 6;
  std::vector<Inboxes> got(2 * kRounds, Inboxes(kRanks));
  cluster.run([&](runtime::Comm& comm) {
    const auto me = static_cast<std::size_t>(comm.rank());
    StfwCommunicator stfw(comm, Vpt({4, 2, 2}));
    StfwCommunicator bl(comm, Vpt::direct(kRanks));
    for (int round = 0; round < kRounds; ++round) {
      for (int which = 0; which < 2; ++which) {
        auto inbox = (which == 0 ? stfw : bl).exchange(sets[me]);
        sort_inbox(inbox);
        got[static_cast<std::size_t>(2 * round + which)][me] = std::move(inbox);
      }
    }
  });
  for (int x = 0; x < 2 * kRounds; ++x)
    expect_same_inboxes(reference, got[static_cast<std::size_t>(x)],
                        x % 2 == 0 ? "T(4,2,2) between BL exchanges" : "BL between T(4,2,2)");
}

/// Plans survive interleaving with other traffic: planned replays, resilient
/// exchanges and unplanned exchanges on the same communicator stay in
/// epoch lockstep.
TEST(ExchangeEquivalence, ModesInterleaveOnOneCommunicator) {
  constexpr Rank kRanks = 8;
  const Vpt vpt({4, 2});
  const SendSets sets = skewed_sendsets(kRanks, 999, 512);

  runtime::Cluster cluster(kRanks);
  Inboxes a(kRanks), b(kRanks), c(kRanks);
  cluster.run([&](runtime::Comm& comm) {
    const auto me = static_cast<std::size_t>(comm.rank());
    StfwCommunicator communicator(comm, vpt);
    auto first = communicator.exchange(sets[me]);       // records
    auto second = communicator.exchange(sets[me]);      // cached replay
    ResilientExchangeResult r = communicator.exchange_resilient(sets[me]);
    EXPECT_TRUE(r.fully_recovered);
    sort_inbox(first);
    sort_inbox(second);
    sort_inbox(r.delivered);
    a[me] = std::move(first);
    b[me] = std::move(second);
    c[me] = std::move(r.delivered);
  });
  expect_same_inboxes(a, b, "cached replay after record");
  expect_same_inboxes(a, c, "resilient after cached");
}

}  // namespace
}  // namespace stfw
