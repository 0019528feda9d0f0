// Allocation regression of exchange_resilient. Its routing tables, its
// per-stage neighbor table, the submessage table of its tracked frames and
// the vector its mailbox drains append to live in the communicator across
// exchanges, and each transmission is built in one buffer. A resilient
// exchange posts a frame to every dimension neighbor, empty or not, so a
// hub's frame count grows with the VPT rather than with its pattern: the
// test compares a hub that exchanges with all 63 others on Vpt::direct(64)
// against one that exchanges with its one other rank on Vpt::direct(2).
// Per extra peer the hub may allocate only what one more neighbor costs in
// flat form: its outbound frame's buffer, the ack it sends for the peer's
// frame and the InboundMessage copy the caller gets. The hub is counted on
// its own thread, inside one Cluster::run, after a warm-up exchange of the
// same shape.

#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <vector>

#include "alloc_counter.hpp"
#include "core/vpt.hpp"
#include "runtime/comm.hpp"
#include "runtime/stfw_communicator.hpp"

namespace stfw {
namespace {

// Not rank 0, the settlement root, whose roster grows per rank.
constexpr int kHub = 1;
// Blocks the two exchanges may differ in apart from the per-peer ones: the
// peers' mailbox deques, into which the hub posts two messages each and
// which take a new 512-byte chunk every 16 posts, and a kept table
// outgrowing the warm-up. In 320 runs on a 4-vCPU box, 200 of them four
// at a time, these came to at most 21.
constexpr std::size_t kSlack = 32;

/// Heap blocks the hub allocates in the second of two exchange_resilient
/// calls on Vpt::direct(ranks) in which it sends one message to every other
/// rank and receives one from each.
std::size_t hub_resilient_blocks(int ranks) {
  const core::Vpt vpt = core::Vpt::direct(ranks);
  runtime::Cluster cluster(ranks);
  std::size_t blocks = 0;
  cluster.run([&](runtime::Comm& comm) {
    StfwCommunicator stfw(comm, vpt);
    // The validator keeps per-destination claims; this test is about the
    // exchange's own bookkeeping.
    stfw.set_validation(false);
    // Timers far beyond the test: a retransmit re-encodes a frame.
    ResilienceOptions opt;
    opt.retransmit_timeout = std::chrono::seconds(20);
    opt.stage_deadline = std::chrono::seconds(60);
    const int me = comm.rank();
    const auto sends_of = [&](std::size_t payload) {
      std::vector<OutboundMessage> sends;
      if (me == kHub) {
        for (int p = 0; p < ranks; ++p)
          if (p != kHub)
            sends.push_back(OutboundMessage{p, std::vector<std::byte>(payload, std::byte{1})});
      } else {
        sends.push_back(OutboundMessage{kHub, std::vector<std::byte>(payload, std::byte{2})});
      }
      return sends;
    };
    (void)stfw.exchange_resilient(sends_of(8), opt);  // warm-up: grows the kept tables
    const std::vector<OutboundMessage> sends = sends_of(16);
    ResilientExchangeResult got;
    if (me == kHub) {
      blocks = count_heap_blocks([&] { got = stfw.exchange_resilient(sends, opt); });
    } else {
      got = stfw.exchange_resilient(sends, opt);
    }
    EXPECT_TRUE(got.fully_recovered) << "rank " << me;
    EXPECT_EQ(stfw.last_stats().retransmits, 0) << "rank " << me;
    const std::size_t expected = me == kHub ? std::size_t(ranks - 1) : 1;
    EXPECT_EQ(got.delivered.size(), expected) << "rank " << me;
  });
  return blocks;
}

TEST(ResilientAlloc, HubAllocatesAtMostThreeBlocksPerExtraPeer) {
  const std::size_t one = hub_resilient_blocks(2);
  const std::size_t many = hub_resilient_blocks(64);
  EXPECT_GT(one, 0u) << "the operator new counter is not wired in";
  EXPECT_LE(many, one + 3 * 62 + kSlack) << "1 peer: " << one << " blocks, 63 peers: " << many;
}

}  // namespace
}  // namespace stfw
