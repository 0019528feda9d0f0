#include "runtime/stfw_communicator.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <mutex>
#include <optional>
#include <random>
#include <set>
#include <span>

#include "core/analysis.hpp"
#include "core/error.hpp"
#include "core/wire.hpp"

namespace stfw {

namespace {

using core::Rank;
using core::Vpt;

/// A reproducible random scenario: sendsets[i] = messages of rank i, where
/// each payload encodes (source, dest, salt) so delivery can be verified.
using SendSets = std::vector<std::vector<OutboundMessage>>;

std::vector<std::byte> encode(Rank src, Rank dest, std::uint32_t salt, std::size_t len) {
  std::vector<std::byte> b(12 + len);
  std::memcpy(b.data(), &src, 4);
  std::memcpy(b.data() + 4, &dest, 4);
  std::memcpy(b.data() + 8, &salt, 4);
  for (std::size_t i = 0; i < len; ++i)
    b[12 + i] = static_cast<std::byte>((salt + i) & 0xff);
  return b;
}

SendSets random_sendsets(Rank K, double density, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::uniform_int_distribution<std::size_t> len(0, 48);
  SendSets sets(static_cast<std::size_t>(K));
  std::uint32_t salt = 0;
  for (Rank i = 0; i < K; ++i)
    for (Rank j = 0; j < K; ++j) {
      if (j == i || coin(rng) >= density) continue;  // SendSets exclude self

      sets[static_cast<std::size_t>(i)].push_back(
          OutboundMessage{j, encode(i, j, ++salt, len(rng))});
    }
  return sets;
}

/// Runs the exchange on a threaded cluster and checks every message arrived
/// exactly once, intact, at the right rank.
void run_and_verify(const Vpt& vpt, const SendSets& sets) {
  const Rank K = vpt.size();
  runtime::Cluster cluster(K);
  std::vector<std::vector<InboundMessage>> received(static_cast<std::size_t>(K));
  cluster.run([&](runtime::Comm& comm) {
    StfwCommunicator communicator(comm, vpt);
    received[static_cast<std::size_t>(comm.rank())] =
        communicator.exchange(sets[static_cast<std::size_t>(comm.rank())]);
  });

  // Expected inbox of each rank.
  std::vector<std::multimap<Rank, const OutboundMessage*>> expected(static_cast<std::size_t>(K));
  for (Rank i = 0; i < K; ++i)
    for (const OutboundMessage& m : sets[static_cast<std::size_t>(i)])
      expected[static_cast<std::size_t>(m.dest)].emplace(i, &m);

  for (Rank r = 0; r < K; ++r) {
    const auto& inbox = received[static_cast<std::size_t>(r)];
    auto& exp = expected[static_cast<std::size_t>(r)];
    ASSERT_EQ(inbox.size(), exp.size()) << "rank " << r;
    for (const InboundMessage& m : inbox) {
      auto [lo, hi] = exp.equal_range(m.source);
      bool matched = false;
      for (auto it = lo; it != hi; ++it) {
        if (it->second->bytes == m.bytes) {
          exp.erase(it);
          matched = true;
          break;
        }
      }
      EXPECT_TRUE(matched) << "rank " << r << " got an unexpected message from " << m.source;
    }
    EXPECT_TRUE(exp.empty()) << "rank " << r << " missed messages";
  }
}

struct TopologyCase {
  std::vector<int> dims;
  double density;
};

class CommunicatorProperty : public ::testing::TestWithParam<TopologyCase> {};

TEST_P(CommunicatorProperty, DeliversEverythingExactlyOnce) {
  const auto& param = GetParam();
  const Vpt vpt(param.dims);
  run_and_verify(vpt, random_sendsets(vpt.size(), param.density, 12345));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CommunicatorProperty,
    ::testing::Values(TopologyCase{{8}, 0.4},                 // BL / direct
                      TopologyCase{{4, 2}, 0.4},              // mixed sizes
                      TopologyCase{{2, 4}, 0.4},
                      TopologyCase{{2, 2, 2}, 0.5},           // hypercube 8
                      TopologyCase{{4, 4}, 0.3},
                      TopologyCase{{4, 4}, 1.0},              // complete exchange
                      TopologyCase{{2, 2, 2, 2}, 0.3},
                      TopologyCase{{4, 2, 4}, 0.25},
                      TopologyCase{{8, 4}, 0.15},
                      TopologyCase{{2, 4, 4}, 0.15},
                      TopologyCase{{32}, 0.1},
                      TopologyCase{{2, 2, 2, 2, 2}, 0.1}));

TEST(Communicator, EmptyExchange) {
  const Vpt vpt({4, 4});
  runtime::Cluster cluster(16);
  cluster.run([&](runtime::Comm& comm) {
    StfwCommunicator communicator(comm, vpt);
    const auto inbox = communicator.exchange({});
    EXPECT_TRUE(inbox.empty());
    EXPECT_EQ(communicator.last_stats().messages_sent, 0);
  });
}

TEST(Communicator, SelfMessageDeliveredLocally) {
  const Vpt vpt({2, 2});
  runtime::Cluster cluster(4);
  cluster.run([&](runtime::Comm& comm) {
    StfwCommunicator communicator(comm, vpt);
    const auto me = static_cast<Rank>(comm.rank());
    std::vector<OutboundMessage> sends;
    sends.push_back(OutboundMessage{me, encode(me, me, 7, 4)});
    const auto inbox = communicator.exchange(sends);
    ASSERT_EQ(inbox.size(), 1u);
    EXPECT_EQ(inbox[0].source, me);
    EXPECT_EQ(communicator.last_stats().messages_sent, 0);  // never hits the wire
  });
}

TEST(Communicator, RepeatedExchangesAreIndependent) {
  const Vpt vpt({2, 2, 2});
  const auto sets1 = random_sendsets(8, 0.4, 1);
  const auto sets2 = random_sendsets(8, 0.4, 2);
  runtime::Cluster cluster(8);
  std::vector<std::size_t> first_counts(8), second_counts(8);
  std::vector<std::vector<InboundMessage>> inbox1(8), inbox2(8);
  cluster.run([&](runtime::Comm& comm) {
    StfwCommunicator communicator(comm, vpt);
    const auto r = static_cast<std::size_t>(comm.rank());
    inbox1[r] = communicator.exchange(sets1[r]);
    inbox2[r] = communicator.exchange(sets2[r]);
  });
  std::size_t total1 = 0, total2 = 0, sent1 = 0, sent2 = 0;
  for (const auto& s : sets1) sent1 += s.size();
  for (const auto& s : sets2) sent2 += s.size();
  for (const auto& i : inbox1) total1 += i.size();
  for (const auto& i : inbox2) total2 += i.size();
  EXPECT_EQ(total1, sent1);
  EXPECT_EQ(total2, sent2);
}

TEST(Communicator, MovedCommunicatorRoutesLikeAFreshOne) {
  // A miss reuses routing scratch that points at the communicator's VPT;
  // after a move, and with the moved-from object destroyed, a second miss
  // must still deliver exactly what direct sends would.
  const Vpt vpt({2, 2, 2});
  const auto sets1 = random_sendsets(8, 0.4, 1);
  const auto sets2 = random_sendsets(8, 0.4, 2);
  runtime::Cluster cluster(8);
  std::vector<std::vector<InboundMessage>> inbox2(8);
  cluster.run([&](runtime::Comm& comm) {
    const auto r = static_cast<std::size_t>(comm.rank());
    std::optional<StfwCommunicator> first;
    first.emplace(comm, vpt);
    (void)first->exchange(sets1[r]);
    StfwCommunicator moved = std::move(*first);
    first.reset();
    inbox2[r] = moved.exchange(sets2[r]);
    EXPECT_EQ(moved.last_stats().plan_builds, 1);
  });
  for (Rank r = 0; r < 8; ++r) {
    std::vector<InboundMessage> want;  // by source, then in send order
    for (Rank i = 0; i < 8; ++i)
      for (const OutboundMessage& m : sets2[static_cast<std::size_t>(i)])
        if (m.dest == r) want.push_back(InboundMessage{i, m.bytes});
    EXPECT_EQ(inbox2[static_cast<std::size_t>(r)], want) << "rank " << r;
  }
}

TEST(Communicator, MaxMessageCountRespectsSection4Bound) {
  // Even under a complete exchange, no rank sends more than sum(k_d - 1)
  // messages — the Section 4 guarantee BL cannot give.
  const Vpt vpt({4, 2, 2});
  const Rank K = vpt.size();
  const auto sets = random_sendsets(K, 1.0, 99);
  runtime::Cluster cluster(K);
  std::vector<std::int64_t> sent(static_cast<std::size_t>(K));
  cluster.run([&](runtime::Comm& comm) {
    StfwCommunicator communicator(comm, vpt);
    communicator.exchange(sets[static_cast<std::size_t>(comm.rank())]);
    sent[static_cast<std::size_t>(comm.rank())] = communicator.last_stats().messages_sent;
  });
  for (Rank r = 0; r < K; ++r)
    EXPECT_LE(sent[static_cast<std::size_t>(r)], vpt.max_message_count_bound());
  // For the complete exchange the bound is tight.
  EXPECT_EQ(*std::max_element(sent.begin(), sent.end()), vpt.max_message_count_bound());
}

#ifdef STFW_VALIDATE_ENABLED
TEST(Communicator, ValidatorActiveByDefaultInValidateBuilds) {
  ASSERT_TRUE(StfwCommunicator::validation_available());
}

TEST(Communicator, ValidatorDetectsMisroutedMessage) {
  // A forged stage-0 wire message whose submessage header claims a final
  // destination the receiving rank cannot legally hold under dimension-order
  // routing. The validator must catch it before the rank-state scatters it.
  const Vpt vpt({2, 2});
  runtime::Cluster cluster(4);
  EXPECT_THROW(
      cluster.run([&](runtime::Comm& comm) {
        StfwCommunicator communicator(comm, vpt);
        communicator.set_validation(true);
        if (comm.rank() == 1) {
          core::PayloadArena arena;
          std::vector<core::Submessage> forged;
          const std::vector<std::byte> payload(8, std::byte{0x5a});
          // Final destination 3 = (1,1): rank 0's dimension-0 digit cannot
          // match it, so the header is misrouted/corrupted.
          forged.push_back(core::Submessage{1, 3, arena.add(payload),
                                            static_cast<std::uint32_t>(payload.size())});
          // Rank 0 is a legitimate dimension-0 neighbor of rank 1.
          comm.send(0, /*tag=*/0, core::serialize(forged, arena));
        }
        communicator.exchange({});
      }),
      core::ValidationError);
}

TEST(Communicator, ValidatorDetectsLostPayload) {
  // A raw message that bypasses the communicator entirely: rank 1 injects a
  // well-formed stage message the validator's conservation pass has no seed
  // claim for, so the exchange-wide payload-conservation check must fire.
  const Vpt vpt({2, 2});
  runtime::Cluster cluster(4);
  EXPECT_THROW(
      cluster.run([&](runtime::Comm& comm) {
        StfwCommunicator communicator(comm, vpt);
        communicator.set_validation(true);
        if (comm.rank() == 1) {
          core::PayloadArena arena;
          std::vector<core::Submessage> forged;
          const std::vector<std::byte> payload(4, std::byte{0x7e});
          forged.push_back(core::Submessage{1, 0, arena.add(payload),
                                            static_cast<std::uint32_t>(payload.size())});
          comm.send(0, /*tag=*/0, core::serialize(forged, arena));
        }
        communicator.exchange({});
      }),
      core::ValidationError);
}
#endif  // STFW_VALIDATE_ENABLED

TEST(Communicator, RejectsMismatchedVptSize) {
  runtime::Cluster cluster(4);
  EXPECT_THROW(cluster.run([&](runtime::Comm& comm) {
                 StfwCommunicator communicator(comm, Vpt::direct(8));
               }),
               core::Error);
}

TEST(Communicator, BaselineEqualsDirectSends) {
  // With Vpt::direct the stats must equal plain point-to-point behaviour:
  // every rank sends exactly |SendSet| messages and forwards nothing.
  const Rank K = 8;
  const auto sets = random_sendsets(K, 0.5, 4242);
  runtime::Cluster cluster(K);
  cluster.run([&](runtime::Comm& comm) {
    StfwCommunicator bl(comm, Vpt::direct(K));
    const auto r = static_cast<std::size_t>(comm.rank());
    bl.exchange(sets[r]);
    std::uint64_t payload = 0;
    for (const auto& m : sets[r]) payload += m.bytes.size();
    EXPECT_EQ(bl.last_stats().messages_sent, static_cast<std::int64_t>(sets[r].size()));
    EXPECT_EQ(bl.last_stats().payload_bytes_sent, payload);
  });
}

// Tags name an exchange on the wire. Each plain exchange reserves dim()
// consecutive stage tags from the rank's Comm, and each resilient exchange
// one tag that it lifts by 1 << 28, above every plain tag; both come from
// one cursor that wraps to 0 at 1 << 28. Started just below the top of the
// range, once where a plain block takes the top tags and the next resilient
// tag wraps and once where a resilient tag takes the top one and the next
// plain block wraps, plain and resilient exchanges in turn must keep
// delivering the reference result without a single retransmit: a faster
// peer's next-exchange frames wait under their own tags. The VPT has two
// dimensions so that a plain block can end exactly at the top.
TEST(Communicator, ExchangeTagsWrapCleanly) {
  const Vpt vpt({4, 2});
  const Rank K = vpt.size();
  const int dim = vpt.dim();
  constexpr int kTagRange = 1 << 28;
  const SendSets sets = random_sendsets(K, 0.6, 2718);
  ResilienceOptions opt;
  opt.retransmit_timeout = std::chrono::milliseconds(1000);
  runtime::Cluster cluster(K);
  // Tags rank 0 posted on; the tap runs on the posting rank's thread.
  std::set<int> rank0_tags;
  cluster.set_wire_tap([&](int source, int, int tag, std::span<const std::byte>) {
    if (source == 0) rank0_tags.insert(tag);
  });
  cluster.run([&](runtime::Comm& comm) {
    const auto me = static_cast<std::size_t>(comm.rank());
    StfwCommunicator communicator(comm, vpt);
    const std::vector<InboundMessage> reference = communicator.exchange(sets[me]);
    // From kTagRange - dim a plain block takes [kTagRange - dim, kTagRange)
    // and the next resilient tag wraps to 0; from kTagRange - 2 * dim two
    // resilient tags follow a plain block, the second takes kTagRange - 1,
    // and the next round's plain block wraps.
    for (const int cursor : {kTagRange - dim, kTagRange - 2 * dim}) {
      // A block this large cannot fit above the cursor, so it wraps to 0 and
      // leaves the cursor at its own size.
      (void)comm.reserve_tags(cursor);
      for (int round = 0; round < 2; ++round) {
        EXPECT_EQ(communicator.exchange(sets[me]), reference)
            << "rank " << me << " cursor " << cursor << " round " << round;
        for (int r = 0; r < 2; ++r) {
          const ResilientExchangeResult res = communicator.exchange_resilient(sets[me], opt);
          EXPECT_TRUE(res.fully_recovered) << res.failure.to_string();
          EXPECT_EQ(res.delivered, reference) << "rank " << me << " cursor " << cursor;
          EXPECT_EQ(communicator.last_stats().retransmits, 0)
              << "rank " << me << " cursor " << cursor;
        }
      }
    }
  });
  cluster.set_wire_tap(nullptr);
  EXPECT_NE(rank0_tags.lower_bound(kTagRange - dim), rank0_tags.lower_bound(kTagRange))
      << "no plain block sat at the top of the tag range";
  EXPECT_EQ(rank0_tags.count(kTagRange), 1u) << "no resilient tag wrapped to base 0";
  EXPECT_EQ(rank0_tags.count(2 * kTagRange - 1), 1u) << "no resilient tag took the top tag";
}

// Every resilient exchange posts its frames, acks and nacks under one tag
// of its own in [1 << 28, 1 << 29), shared by all ranks, and plain
// exchanges in between stay below 1 << 28. Negative tags are the reliable
// control channel: each resilient exchange settles on one of its own, and
// the validator's collectives, off here, use fixed ones.
TEST(Communicator, ResilientExchangesPostOnTagsOfTheirOwn) {
  const Vpt vpt({2, 2});
  const Rank K = vpt.size();
  constexpr int kTagRange = 1 << 28;
  const SendSets sets = random_sendsets(K, 0.8, 31);
  const std::vector<bool> resilient = {true, true, false, true, false, true};
  const std::size_t X = resilient.size();
  // tags[rank][x]: the non-negative tags rank posted on in exchange x, and
  // tags[rank][X] those of the reference exchange; control[rank][x] the
  // negative ones. The tap runs on the posting rank's thread, which also
  // sets current[rank].
  std::vector<std::vector<std::set<int>>> tags(static_cast<std::size_t>(K),
                                               std::vector<std::set<int>>(X + 1));
  std::vector<std::vector<std::set<int>>> control = tags;
  std::vector<std::size_t> current(static_cast<std::size_t>(K), X);
  runtime::Cluster cluster(K);
  cluster.set_wire_tap([&](int source, int, int tag, std::span<const std::byte>) {
    const auto r = static_cast<std::size_t>(source);
    (tag >= 0 ? tags : control)[r][current[r]].insert(tag);
  });
  cluster.run([&](runtime::Comm& comm) {
    const auto me = static_cast<std::size_t>(comm.rank());
    StfwCommunicator communicator(comm, vpt);
    // The validator's collectives post on negative tags of their own.
    communicator.set_validation(false);
    const std::vector<InboundMessage> reference = communicator.exchange(sets[me]);
    for (std::size_t x = 0; x < X; ++x) {
      current[me] = x;
      if (!resilient[x]) {
        EXPECT_EQ(communicator.exchange(sets[me]), reference) << "rank " << me << " x " << x;
        continue;
      }
      const ResilientExchangeResult res = communicator.exchange_resilient(sets[me]);
      EXPECT_TRUE(res.fully_recovered) << res.failure.to_string();
      EXPECT_EQ(res.delivered, reference) << "rank " << me << " x " << x;
      EXPECT_EQ(communicator.last_stats().retransmits, 0) << "rank " << me << " x " << x;
    }
  });
  cluster.set_wire_tap(nullptr);

  std::set<int> used;  // resilient and settlement tags of the exchanges checked so far
  for (std::size_t x = 0; x < X; ++x) {
    std::set<int> all;
    std::set<int> settlement;
    for (const auto& per_rank : tags) all.insert(per_rank[x].begin(), per_rank[x].end());
    for (const auto& per_rank : control)
      settlement.insert(per_rank[x].begin(), per_rank[x].end());
    ASSERT_FALSE(all.empty()) << "exchange " << x << " posted nothing";
    if (!resilient[x]) {
      EXPECT_LT(*all.rbegin(), kTagRange) << "plain exchange " << x;
      EXPECT_TRUE(settlement.empty()) << "plain exchange " << x;
      continue;
    }
    // Settlement: one negative tag, never one an earlier exchange used.
    EXPECT_EQ(settlement.size(), 1u) << "resilient exchange " << x;
    for (const int tag : settlement)
      EXPECT_TRUE(used.insert(tag).second)
          << "resilient exchange " << x << " reused settlement tag " << tag;
    // Data frames and acks: one tag, the same on every rank.
    EXPECT_EQ(all.size(), 1u) << "resilient exchange " << x;
    EXPECT_GE(*all.begin(), kTagRange) << "resilient exchange " << x;
    EXPECT_LT(*all.rbegin(), 2 * kTagRange) << "resilient exchange " << x;
    for (const int tag : all)
      EXPECT_TRUE(used.insert(tag).second)
          << "resilient exchange " << x << " reused tag " << tag;
  }
}

}  // namespace
}  // namespace stfw
