// runtime::Membership, the alive bitmap and epoch counter that degraded
// resilient exchanges route by (docs/fault_model.md, "Membership epochs and
// degraded mode"): the epoch only ever grows, and only a real death bumps it.

#include "runtime/membership.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/sync.hpp"

namespace stfw::runtime {
namespace {

TEST(Membership, EpochStaysMonotonicAcrossReset) {
  Membership m;
  m.reset(4);
  const std::uint32_t start = m.epoch();
  ASSERT_TRUE(m.mark_failed(1));
  ASSERT_TRUE(m.mark_failed(2));
  EXPECT_EQ(m.epoch(), start + 2);
  m.reset(4);
  EXPECT_EQ(m.epoch(), start + 2) << "reset must not rewind the epoch";
  EXPECT_EQ(m.alive_count(), 4);
  ASSERT_TRUE(m.mark_failed(2));
  EXPECT_EQ(m.epoch(), start + 3);
}

TEST(Membership, SecondMarkFailedReturnsFalseWithoutBumpingTheEpoch) {
  Membership m;
  m.reset(4);
  ASSERT_TRUE(m.mark_failed(3));
  const std::uint32_t after_death = m.epoch();
  EXPECT_FALSE(m.mark_failed(3));
  EXPECT_EQ(m.epoch(), after_death);
  EXPECT_EQ(m.failed(), std::vector<std::int32_t>{3});
}

TEST(Membership, OutOfRangeMarkFailedReturnsFalseWithoutBumpingTheEpoch) {
  Membership m;
  m.reset(4);
  const std::uint32_t start = m.epoch();
  for (const int rank : {-1, 4, 1000}) {
    EXPECT_FALSE(m.mark_failed(rank)) << "rank " << rank;
    EXPECT_FALSE(m.alive(rank)) << "rank " << rank;
  }
  EXPECT_EQ(m.epoch(), start);
  EXPECT_FALSE(m.any_failed());
  EXPECT_TRUE(m.failed().empty());
  EXPECT_EQ(m.alive_count(), 4);
}

TEST(Membership, LowestAliveIsReElectedAsLowRanksDie) {
  Membership m;
  m.reset(3);
  MembershipSnapshot s;  // one snapshot, refilled: each fill starts afresh
  m.snapshot(s);
  EXPECT_EQ(s.lowest_alive, 0);
  ASSERT_TRUE(m.mark_failed(0));
  m.snapshot(s);
  EXPECT_EQ(s.lowest_alive, 1);
  ASSERT_TRUE(m.mark_failed(2));  // a higher rank's death changes nothing
  m.snapshot(s);
  EXPECT_EQ(s.lowest_alive, 1);
  EXPECT_EQ(s.alive_count, 1);
  ASSERT_TRUE(m.mark_failed(1));
  m.snapshot(s);
  EXPECT_EQ(s.lowest_alive, -1);
  EXPECT_EQ(s.alive_count, 0);
}

TEST(Membership, FailedListsDeadRanksAscending) {
  Membership m;
  m.reset(8);
  for (const int rank : {6, 1, 4, 0}) ASSERT_TRUE(m.mark_failed(rank));
  EXPECT_EQ(m.failed(), (std::vector<std::int32_t>{0, 1, 4, 6}));
}

TEST(Membership, AnyFailedFlipsOnTheFirstDeathAndClearsOnReset) {
  Membership m;
  m.reset(4);
  EXPECT_FALSE(m.any_failed());
  ASSERT_TRUE(m.mark_failed(2));
  EXPECT_TRUE(m.any_failed());
  m.reset(4);
  EXPECT_FALSE(m.any_failed());
  EXPECT_TRUE(m.failed().empty());
  EXPECT_TRUE(m.alive(2));
}

TEST(Membership, SnapshotAgreesWithTheAccessors) {
  Membership m;
  m.reset(5);
  ASSERT_TRUE(m.mark_failed(1));
  ASSERT_TRUE(m.mark_failed(3));
  MembershipSnapshot s;
  m.snapshot(s);
  EXPECT_EQ(s.epoch, m.epoch());
  EXPECT_EQ(s.alive_count, m.alive_count());
  EXPECT_EQ(s.alive_count, 3);
  for (int r = -1; r <= 5; ++r) EXPECT_EQ(s.is_alive(r), m.alive(r)) << "rank " << r;
}

TEST(Membership, ConcurrentMarksBumpTheEpochOncePerDeadRank) {
  constexpr int kRanks = 16;
  Membership m;
  m.reset(kRanks);
  const std::uint32_t start = m.epoch();
  // Every thread tries to kill every even rank; each rank dies exactly once.
  std::vector<int> wins(4, 0);
  std::vector<core::Thread> threads;
  for (std::size_t t = 0; t < wins.size(); ++t)
    threads.emplace_back([&m, &wins, t] {
      for (int r = 0; r < kRanks; r += 2) wins[t] += m.mark_failed(r) ? 1 : 0;
    });
  for (core::Thread& th : threads) th.join();
  int total = 0;
  for (const int w : wins) total += w;
  EXPECT_EQ(total, kRanks / 2);
  EXPECT_EQ(m.epoch(), start + kRanks / 2);
  EXPECT_EQ(m.alive_count(), kRanks / 2);
}

}  // namespace
}  // namespace stfw::runtime
