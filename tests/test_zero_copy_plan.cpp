// Cached-replay differential battery.
//
// A cache hit of exchange() (gather_planned_frame + the frozen delivery
// list, stfw_communicator.cpp) must be byte-identical to the recording
// Algorithm 1 run it replays — on every wire frame and every delivery,
// across pattern scale, payload-size extremes, aliasing and repeated
// replays. This suite pins that:
//
//  * golden wire frames: a hit posts exactly the frames the recording miss
//    serialized, over T_3(4,2,2), BL(16) with a hub that sends to every rank
//    (the shape of the dynamic workload) and T_3(4,4,4);
//  * differential (cache hit vs a fresh communicator's miss) at K in
//    {4, 16, 64, 256} over T_2 and a skewed pseudo-random pattern, plus the
//    BL hub and T_3 shapes;
//  * mixed payload sizes including zero-length sends and a max-slot payload
//    dwarfing the rest of its frame;
//  * aliasing: one source buffer sent to every rank, self-send included,
//    replayed from the cache several times.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <span>
#include <tuple>
#include <vector>

#include "core/sync.hpp"
#include "core/vpt.hpp"
#include "runtime/comm.hpp"
#include "runtime/stfw_communicator.hpp"

namespace stfw {
namespace {

using core::Rank;
using core::Vpt;
using runtime::Cluster;
using runtime::Comm;

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Skewed pattern with deliberate extremes: ~half the ranks send to a few
/// pseudo-random peers; sizes cycle through zero-length, tiny, and one
/// max-slot payload; every rank also self-sends, and rank 0 fans out wide.
/// With `hub`, rank 0 also sends a payload to every rank, itself included.
std::vector<OutboundMessage> sends_for(Rank me, Rank num_ranks, int iter,
                                       std::uint32_t big_bytes, bool hub = false) {
  std::vector<OutboundMessage> sends;
  auto payload = [&](Rank dest, std::uint32_t size) {
    std::vector<std::byte> bytes(size);
    std::uint64_t h = mix((static_cast<std::uint64_t>(me) << 40) ^
                          (static_cast<std::uint64_t>(dest) << 20) ^
                          static_cast<std::uint64_t>(iter));
    for (std::size_t i = 0; i < bytes.size(); ++i) {
      if (i % 8 == 0) h = mix(h);
      bytes[i] = static_cast<std::byte>(h >> (8 * (i % 8)));
    }
    return bytes;
  };
  // Self-send (delivered straight from the seed on a replay).
  sends.push_back({me, payload(me, 24)});
  // Zero-length send: a submessage header with no payload slot.
  sends.push_back({(me + 1) % num_ranks, {}});
  const int fanout = me == 0 ? std::min<int>(10, num_ranks - 1) : 3;
  std::uint64_t h = mix(static_cast<std::uint64_t>(me) * 7919u + 13u);
  for (int j = 0; j < fanout; ++j) {
    h = mix(h);
    const auto dest = static_cast<Rank>(h % static_cast<std::uint64_t>(num_ranks));
    const std::uint32_t size =
        j == 1 ? big_bytes
               : (j % 3 == 0 ? 0u : 16u + static_cast<std::uint32_t>(me % 5) * 7u);
    sends.push_back({dest, payload(dest, size)});
  }
  if (hub && me == 0)
    for (Rank dest = 0; dest < num_ranks; ++dest)
      sends.push_back({dest, payload(dest, 8 + static_cast<std::uint32_t>(dest % 7) * 9)});
  return sends;
}

/// Per iteration, a fresh communicator's first exchange (a recording miss)
/// against a long-lived communicator's cache hit of the same pattern with
/// the same bytes. The pattern is iteration-independent; only the payload
/// bytes change. Deliveries must match exactly, order included: the replay
/// hands out the recording's frozen delivery order.
void run_sweep(const Vpt& vpt, int iters, std::uint32_t big_bytes, bool hub = false) {
  const Rank num_ranks = vpt.size();
  Cluster cluster(num_ranks);
  cluster.run([&](Comm& comm) {
    const auto me = static_cast<Rank>(comm.rank());
    StfwCommunicator cached(comm, vpt);
    (void)cached.exchange(sends_for(me, num_ranks, iters, big_bytes, hub));  // records
    for (int iter = 0; iter < iters; ++iter) {
      const auto sends = sends_for(me, num_ranks, iter, big_bytes, hub);
      StfwCommunicator fresh(comm, vpt);
      const std::vector<InboundMessage> want = fresh.exchange(sends);
      EXPECT_EQ(fresh.last_stats().plan_builds, 1);
      EXPECT_EQ(cached.exchange(sends), want) << "rank " << me << " iter " << iter;
      EXPECT_EQ(cached.last_stats().plan_hits, 1) << "rank " << me << " iter " << iter;
      EXPECT_EQ(cached.last_stats().plan_fallbacks, 0) << "rank " << me << " iter " << iter;
    }
  });
}

// Golden wire frames: for the same pattern and payloads, a cache hit posts
// byte-for-byte the frames the recording miss serialized with
// core::serialize, stage by stage. Both post exactly their real frames: the
// wire carries no fillers, and messages_sent counts every frame.
void check_replayed_wire_frames(const Vpt& vpt, bool hub) {
  const Rank K = vpt.size();
  const int n = vpt.dim();
  // frames[0]: the recording miss (exchange 0); frames[1]: the hit
  // (exchange 1). Keyed by (source, dest, stage).
  std::array<std::map<std::tuple<int, int, int>, std::vector<std::byte>>, 2> frames;
  std::array<std::int64_t, 2> posts{};
  core::Mutex mu;
  Cluster cluster(K);
  cluster.set_wire_tap([&](int source, int dest, int tag, std::span<const std::byte> bytes) {
    // Each plain exchange reserves dim() consecutive tags, starting at a
    // multiple of dim(): tag / dim is the exchange, tag % dim the stage.
    const int x = tag / n;
    if (tag < 0 || x > 1) return;
    core::MutexLock lock(mu);
    ++posts[static_cast<std::size_t>(x)];
    frames[static_cast<std::size_t>(x)].emplace(
        std::tuple{source, dest, tag % n}, std::vector<std::byte>(bytes.begin(), bytes.end()));
  });
  std::array<std::vector<LocalExchangeStats>, 2> stats;
  stats[0].resize(static_cast<std::size_t>(K));
  stats[1].resize(static_cast<std::size_t>(K));
  cluster.run([&](Comm& comm) {
    const auto me = static_cast<std::size_t>(comm.rank());
    StfwCommunicator stfw(comm, vpt);
    const auto sends = sends_for(static_cast<Rank>(me), K, 3, 700, hub);
    for (std::size_t x = 0; x < 2; ++x) {
      (void)stfw.exchange(sends);
      stats[x][me] = stfw.last_stats();
    }
  });
  cluster.set_wire_tap(nullptr);

  for (std::size_t x = 0; x < 2; ++x) {
    std::int64_t sent = 0;
    std::int64_t received = 0;
    for (const LocalExchangeStats& s : stats[x]) {
      EXPECT_EQ(x == 0 ? s.plan_builds : s.plan_hits, 1) << "exchange " << x;
      EXPECT_EQ(s.filler_frames_sent, 0);
      EXPECT_EQ(s.filler_frames_received, 0);
      sent += s.messages_sent;
      received += s.messages_received;
    }
    // Every tapped frame is a real one, each (source, dest, stage) once.
    EXPECT_EQ(posts[x], sent) << "exchange " << x;
    EXPECT_EQ(received, sent) << "exchange " << x;
    ASSERT_EQ(frames[x].size(), static_cast<std::size_t>(sent)) << "exchange " << x;
    for (const auto& [key, bytes] : frames[x]) EXPECT_GT(bytes.size(), 4u) << "a filler-sized frame";
  }
  // Sparse enough that some (stage, neighbor) slots stay empty.
  EXPECT_LT(frames[0].size(), static_cast<std::size_t>(K) *
                                  static_cast<std::size_t>(vpt.max_message_count_bound()));
  ASSERT_EQ(frames[1].size(), frames[0].size());
  for (const auto& [key, bytes] : frames[0]) {
    const auto& [source, dest, stage] = key;
    const auto it = frames[1].find(key);
    ASSERT_NE(it, frames[1].end()) << source << " -> " << dest << " stage " << stage;
    EXPECT_EQ(it->second, bytes) << "replayed frame differs: " << source << " -> " << dest
                                 << " stage " << stage;
  }
}

TEST(ZeroCopyPlan, ReplayPostsTheRecordingExchangesWireFrames) {
  check_replayed_wire_frames(Vpt({4, 2, 2}), false);
}
TEST(ZeroCopyPlan, ReplayPostsTheRecordingExchangesWireFramesBlHub) {
  check_replayed_wire_frames(Vpt::direct(16), true);
}
TEST(ZeroCopyPlan, ReplayPostsTheRecordingExchangesWireFramesT3K64) {
  check_replayed_wire_frames(Vpt::balanced(64, 3), false);
}

TEST(ZeroCopyPlan, DifferentialK4) { run_sweep(Vpt::balanced(4, 2), 4, 512); }
TEST(ZeroCopyPlan, DifferentialK16) { run_sweep(Vpt::balanced(16, 2), 4, 2048); }
TEST(ZeroCopyPlan, DifferentialK64) { run_sweep(Vpt::balanced(64, 2), 3, 4096); }
TEST(ZeroCopyPlan, DifferentialK256) { run_sweep(Vpt::balanced(256, 2), 2, 1024); }
TEST(ZeroCopyPlan, DifferentialBlK16Hub) { run_sweep(Vpt::direct(16), 4, 2048, true); }
TEST(ZeroCopyPlan, DifferentialT3K64) { run_sweep(Vpt::balanced(64, 3), 3, 4096); }

// One source buffer feeding a payload slot per destination, every rank
// included (the self-send is delivered straight from the seed on a hit):
// three cache hits in a row deliver the buffer once from every rank.
TEST(ZeroCopyPlan, SelfSendAndOneBufferToEveryRankReplayedThreeTimes) {
  const Vpt vpt({2, 2});
  const Rank K = vpt.size();
  Cluster cluster(K);
  cluster.run([&](Comm& comm) {
    const auto me = static_cast<Rank>(comm.rank());
    StfwCommunicator stfw(comm, vpt);
    const std::vector<std::byte> shared(64, static_cast<std::byte>(0xC3 ^ me));
    std::vector<OutboundMessage> sends;
    for (Rank d = 0; d < K; ++d) sends.push_back({d, shared});  // same bytes everywhere
    (void)stfw.exchange(sends);  // records
    for (int iter = 0; iter < 3; ++iter) {
      const std::vector<InboundMessage> got = stfw.exchange(sends);
      EXPECT_EQ(stfw.last_stats().plan_hits, 1) << "rank " << me << " iter " << iter;
      EXPECT_EQ(got.size(), static_cast<std::size_t>(K));
      for (std::size_t i = 0; i < got.size(); ++i) {
        const Rank from = got[i].source;
        EXPECT_EQ(from, static_cast<Rank>(i));
        EXPECT_EQ(got[i].bytes, std::vector<std::byte>(64, static_cast<std::byte>(0xC3 ^ from)))
            << "rank " << me << " iter " << iter << " from " << from;
      }
    }
  });
}

}  // namespace
}  // namespace stfw
