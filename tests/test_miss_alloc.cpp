// Allocation regression of the plan-cache miss path. A miss routes through
// tables that the communicator keeps across exchanges and grows its payload
// arena once per stage, so per frame it allocates only the wire buffer of an
// outbound frame, which Comm takes over, and the InboundMessage copy of an
// inbound payload, which the caller gets. A hub on Vpt::direct(64) that
// sends one message to each of 63 peers and receives one from each may
// therefore allocate at most 2 blocks per extra peer more than a hub with a
// single peer, plus a small constant. The hub is counted on its own thread,
// inside one Cluster::run, after a warm-up exchange of the same shape; the
// counted exchange changes the payload size, so it misses the plan cache.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "alloc_counter.hpp"
#include "core/vpt.hpp"
#include "runtime/comm.hpp"
#include "runtime/stfw_communicator.hpp"

namespace stfw {
namespace {

constexpr int kRanks = 64;
constexpr int kHub = 0;
// Blocks the two misses may differ in apart from the per-peer ones: the
// mailbox deques' chunk boundaries, a kept table outgrowing the warm-up.
constexpr std::size_t kSlack = 16;

/// Heap blocks the hub allocates in one plain exchange() miss in which it
/// sends one message to each of ranks 1..peers and receives one from each.
std::size_t hub_miss_blocks(int peers) {
  const core::Vpt vpt = core::Vpt::direct(kRanks);
  runtime::Cluster cluster(kRanks);
  std::size_t blocks = 0;
  cluster.run([&](runtime::Comm& comm) {
    StfwCommunicator stfw(comm, vpt);
    // The validator keeps per-destination claims; this test is about
    // routing and recording only.
    stfw.set_validation(false);
    const int me = comm.rank();
    const bool peer = me >= 1 && me <= peers;
    const auto sends_of = [&](std::size_t payload) {
      std::vector<OutboundMessage> sends;
      if (me == kHub)
        for (int p = 1; p <= peers; ++p)
          sends.push_back(OutboundMessage{p, std::vector<std::byte>(payload, std::byte{1})});
      if (peer) sends.push_back(OutboundMessage{kHub, std::vector<std::byte>(payload, std::byte{2})});
      return sends;
    };
    (void)stfw.exchange(sends_of(8));  // warm-up: grows the kept tables
    const std::vector<OutboundMessage> sends = sends_of(16);
    std::vector<InboundMessage> got;
    if (me == kHub) {
      blocks = count_heap_blocks([&] { got = stfw.exchange(sends); });
      EXPECT_EQ(stfw.last_stats().plan_builds, 1) << "the counted exchange must miss";
    } else {
      got = stfw.exchange(sends);
    }
    const std::size_t expected = me == kHub ? std::size_t(peers) : peer ? 1 : 0;
    EXPECT_EQ(got.size(), expected) << "rank " << me;
  });
  return blocks;
}

TEST(MissAlloc, HubAllocatesAtMostTwoBlocksPerExtraPeer) {
  const std::size_t one = hub_miss_blocks(1);
  const std::size_t many = hub_miss_blocks(kRanks - 1);
  EXPECT_GT(one, 0u) << "the operator new counter is not wired in";
  EXPECT_LE(many, one + 2 * (kRanks - 2) + kSlack)
      << "1 peer: " << one << " blocks, " << kRanks - 1 << " peers: " << many;
}

}  // namespace
}  // namespace stfw
