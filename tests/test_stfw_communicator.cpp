#include "runtime/stfw_communicator.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <mutex>
#include <random>

#include "core/analysis.hpp"
#include "core/error.hpp"
#include "core/wire.hpp"

namespace stfw {

/// Test access to StfwCommunicator's resilient exchange epoch.
struct PlanCacheProbe {
  static void set_epoch(StfwCommunicator& stfw, std::uint32_t epoch) {
    stfw.epoch_ = epoch;
  }
};

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
          core::StageMessage forged;
          forged.from = 1;
          forged.to = 0;  // a legitimate dimension-0 neighbor of rank 1
          const std::vector<std::byte> payload(8, std::byte{0x5a});
          // Final destination 3 = (1,1): rank 0's dimension-0 digit cannot
          // match it, so the header is misrouted/corrupted.
          forged.subs.push_back(core::Submessage{1, 3, arena.add(payload),
                                                 static_cast<std::uint32_t>(payload.size())});
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
          core::StageMessage forged;
          forged.from = 1;
          forged.to = 0;
          const std::vector<std::byte> payload(4, std::byte{0x7e});
          forged.subs.push_back(core::Submessage{1, 0, arena.add(payload),
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

// Two counters name an exchange on the wire. Each plain exchange reserves
// dim() consecutive stage tags from the rank's Comm, all below the resilient
// protocol's fixed tags (1 << 28); the resilient epoch is a 32-bit counter
// carried in every resilient frame header. Started just below each point
// where the epoch wraps or leaves int, and with the tag range about to wrap,
// plain and resilient exchanges in turn must keep delivering the reference
// result without a single retransmit; a resilient exchange must still carry
// a faster peer's next-exchange frames across the 2^32 wrap rather than
// drop them.
TEST(Communicator, ExchangeEpochWrapsCleanly) {
  const Vpt vpt({2, 2, 2});
  const Rank K = vpt.size();
  const int dim = vpt.dim();
  const SendSets sets = random_sendsets(K, 0.6, 2718);
  const std::uint32_t starts[] = {
      static_cast<std::uint32_t>(INT32_MAX) - 1,  // the epoch leaves int
      UINT32_MAX - 1,                             // the counter wraps
  };
  ResilienceOptions opt;
  opt.retransmit_timeout = std::chrono::milliseconds(1000);
  runtime::Cluster cluster(K);
  cluster.run([&](runtime::Comm& comm) {
    const auto me = static_cast<std::size_t>(comm.rank());
    StfwCommunicator communicator(comm, vpt);
    const std::vector<InboundMessage> reference = communicator.exchange(sets[me]);
    for (const std::uint32_t start : starts) {
      PlanCacheProbe::set_epoch(communicator, start);
      // The next plain exchange takes the three highest tags below 1 << 28
      // and the one after it wraps to 0.
      (void)comm.reserve_tags((1 << 28) - 2 * dim);
      for (int round = 0; round < 2; ++round) {
        EXPECT_EQ(communicator.exchange(sets[me]), reference)
            << "rank " << me << " start " << start << " round " << round;
        for (int r = 0; r < 2; ++r) {
          const ResilientExchangeResult res = communicator.exchange_resilient(sets[me], opt);
          EXPECT_TRUE(res.fully_recovered) << res.failure.to_string();
          EXPECT_EQ(res.delivered, reference) << "rank " << me << " start " << start;
          EXPECT_EQ(communicator.last_stats().retransmits, 0)
              << "rank " << me << " start " << start;
        }
      }
    }
  });
}

}  // namespace
}  // namespace stfw
