// Planned-replay differential battery.
//
// A planned replay (gather_planned_frame + exchange_views,
// stfw_communicator.cpp) must be byte-identical to the recording Algorithm 1
// run it replays — on every wire frame and every delivery, across pattern
// scale, payload-size extremes, aliasing and repeated replays. This suite
// pins that:
//
//  * golden wire frames: a replay posts exactly the frames the recording
//    exchange serialized, and plan() freezes the layout that exchange cached;
//  * three-way differential (views vs exchange(plan) copies vs unplanned)
//    at K in {4, 16, 64, 256} over a skewed pseudo-random pattern;
//  * mixed payload sizes including zero-length sends and a max-slot payload
//    dwarfing the rest of its frame;
//  * aliasing: the same source bytes sent to several destinations, and
//    self-sends whose views must alias the caller's own payload buffer;
//  * view invalidation: exchange_views output is cleared by the next replay
//    on the plan, and a failed (drifted) replay leaves an empty span behind
//    rather than dangling views into freed buffers.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <tuple>
#include <vector>

#include "core/error.hpp"
#include "core/sync.hpp"
#include "core/vpt.hpp"
#include "runtime/comm.hpp"
#include "runtime/stfw_communicator.hpp"

namespace stfw {

/// Test access to StfwCommunicator's transparent plan cache.
struct PlanCacheProbe {
  static std::shared_ptr<runtime::ExchangePlan> find(StfwCommunicator& stfw,
                                                     std::span<const OutboundMessage> sends) {
    return stfw.plan_cache_find(StfwCommunicator::signature_of(sends));
  }
};

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
std::vector<OutboundMessage> sends_for(Rank me, Rank num_ranks, int iter,
                                       std::uint32_t big_bytes) {
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
  // Self-send (delivered as a kSeed view on the zero-copy path).
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
  return sends;
}

std::vector<InboundMessage> materialize(std::span<const runtime::InboundView> views) {
  std::vector<InboundMessage> out;
  out.reserve(views.size());
  for (const runtime::InboundView& v : views)
    out.push_back(InboundMessage{v.source, {v.bytes.begin(), v.bytes.end()}});
  return out;
}

/// Source-stable multiset comparison: every mode sorts deliveries by source
/// already; same-source payload order may legitimately differ between modes,
/// so payloads are compared as per-source sorted multisets.
void sort_inbox(std::vector<InboundMessage>& inbox) {
  std::stable_sort(inbox.begin(), inbox.end(),
                   [](const InboundMessage& a, const InboundMessage& b) {
                     return a.source != b.source ? a.source < b.source : a.bytes < b.bytes;
                   });
}

void run_sweep(Rank num_ranks, int iters, std::uint32_t big_bytes) {
  const Vpt vpt = Vpt::balanced(num_ranks, 2);
  const auto nK = static_cast<std::size_t>(num_ranks);

  // inboxes[mode][rank][iter]
  enum { kUnplanned = 0, kCopies = 1, kViews = 2, kModes = 3 };
  std::vector<std::vector<std::vector<std::vector<InboundMessage>>>> inboxes(
      kModes, std::vector<std::vector<std::vector<InboundMessage>>>(
                  nK, std::vector<std::vector<InboundMessage>>(
                          static_cast<std::size_t>(iters))));

  for (int mode = 0; mode < kModes; ++mode) {
    Cluster cluster(num_ranks);
    cluster.run([&](Comm& comm) {
      const auto me = static_cast<Rank>(comm.rank());
      StfwCommunicator stfw(comm, vpt);
      if (mode == kUnplanned) stfw.set_plan_cache_capacity(0);
      std::shared_ptr<runtime::ExchangePlan> plan;
      if (mode != kUnplanned) plan = stfw.plan(sends_for(me, num_ranks, 0, big_bytes));
      for (int iter = 0; iter < iters; ++iter) {
        const auto sends = sends_for(me, num_ranks, iter, big_bytes);
        auto& slot = inboxes[static_cast<std::size_t>(mode)][static_cast<std::size_t>(me)]
                            [static_cast<std::size_t>(iter)];
        if (mode == kUnplanned) {
          slot = stfw.exchange(sends);
        } else if (mode == kCopies) {
          slot = stfw.exchange(*plan, sends);
        } else {
          std::vector<std::span<const std::byte>> payloads;
          for (const OutboundMessage& s : sends) payloads.emplace_back(s.bytes);
          slot = materialize(stfw.exchange_views(*plan, payloads));
        }
        sort_inbox(slot);
      }
    });
  }

  for (Rank r = 0; r < num_ranks; ++r) {
    for (int iter = 0; iter < iters; ++iter) {
      const auto& want =
          inboxes[kUnplanned][static_cast<std::size_t>(r)][static_cast<std::size_t>(iter)];
      EXPECT_EQ(inboxes[kCopies][static_cast<std::size_t>(r)][static_cast<std::size_t>(iter)],
                want)
          << "exchange(plan) diverged, rank " << r << " iter " << iter;
      EXPECT_EQ(inboxes[kViews][static_cast<std::size_t>(r)][static_cast<std::size_t>(iter)],
                want)
          << "exchange_views diverged, rank " << r << " iter " << iter;
    }
  }
}

void expect_same_layout(const core::ExchangePlanLayout& a, const core::ExchangePlanLayout& b,
                        Rank me) {
  EXPECT_TRUE(a.signature == b.signature) << "rank " << me;
  ASSERT_EQ(a.out_frames.size(), b.out_frames.size()) << "rank " << me;
  ASSERT_EQ(a.in_frames.size(), b.in_frames.size()) << "rank " << me;
  for (std::size_t s = 0; s < a.out_frames.size(); ++s) {
    ASSERT_EQ(a.out_frames[s].size(), b.out_frames[s].size()) << "rank " << me << " stage " << s;
    for (std::size_t f = 0; f < a.out_frames[s].size(); ++f) {
      const core::PlanOutFrame& x = a.out_frames[s][f];
      const core::PlanOutFrame& y = b.out_frames[s][f];
      EXPECT_EQ(x.to, y.to);
      EXPECT_EQ(x.image, y.image) << "rank " << me << " stage " << s << " frame " << f;
      EXPECT_EQ(x.slot_offsets, y.slot_offsets);
      EXPECT_EQ(x.slots, y.slots);
    }
    ASSERT_EQ(a.in_frames[s].size(), b.in_frames[s].size()) << "rank " << me << " stage " << s;
    for (std::size_t f = 0; f < a.in_frames[s].size(); ++f) {
      EXPECT_EQ(a.in_frames[s][f].source, b.in_frames[s][f].source);
      EXPECT_EQ(a.in_frames[s][f].wire_size, b.in_frames[s][f].wire_size);
      EXPECT_EQ(a.in_frames[s][f].subs, b.in_frames[s][f].subs);
    }
  }
  ASSERT_EQ(a.deliveries.size(), b.deliveries.size()) << "rank " << me;
  for (std::size_t i = 0; i < a.deliveries.size(); ++i) {
    EXPECT_EQ(a.deliveries[i].source, b.deliveries[i].source) << "rank " << me;
    EXPECT_EQ(a.deliveries[i].src, b.deliveries[i].src) << "rank " << me << " delivery " << i;
  }
}

// Golden wire frames: for the same pattern and payloads, a planned replay
// (exchange_views) posts byte-for-byte the frames the recording exchange
// serialized with core::serialize — real frames and fillers alike, stage by
// stage — and plan() freezes the very layout that exchange cached.
TEST(ZeroCopyPlan, ReplayPostsTheRecordingExchangesWireFrames) {
  const Vpt vpt({4, 2, 2});
  const Rank K = vpt.size();
  const int n = vpt.dim();
  // frames[0]: the recording exchange (epoch 1); frames[1]: the replay
  // (epoch 2). Keyed by (source, dest, stage).
  std::array<std::map<std::tuple<int, int, int>, std::vector<std::byte>>, 2> frames;
  core::Mutex mu;
  Cluster cluster(K);
  cluster.set_wire_tap([&](int source, int dest, int tag, std::span<const std::byte> bytes) {
    const int epoch = tag / n;  // plain-exchange tags are epoch * dim + stage
    if (tag < 0 || epoch < 1 || epoch > 2) return;
    core::MutexLock lock(mu);
    frames[static_cast<std::size_t>(epoch - 1)].emplace(
        std::tuple{source, dest, tag % n}, std::vector<std::byte>(bytes.begin(), bytes.end()));
  });
  cluster.run([&](Comm& comm) {
    const auto me = static_cast<Rank>(comm.rank());
    StfwCommunicator stfw(comm, vpt);
    const auto sends = sends_for(me, K, 3, 700);
    const auto planned = stfw.plan(sends);  // epoch 0
    (void)stfw.exchange(sends);             // epoch 1: cache miss, records
    const auto cached = PlanCacheProbe::find(stfw, sends);
    ASSERT_NE(cached, nullptr);
    expect_same_layout(planned->layout(), cached->layout(), me);
    std::vector<std::span<const std::byte>> payloads;
    for (const OutboundMessage& s : sends) payloads.emplace_back(s.bytes);
    (void)stfw.exchange_views(*planned, payloads);  // epoch 2
  });
  cluster.set_wire_tap(nullptr);

  // One frame per (stage, neighbor) in both exchanges.
  const auto expected = static_cast<std::size_t>(K) *
                        static_cast<std::size_t>(vpt.max_message_count_bound());
  ASSERT_EQ(frames[0].size(), expected);
  ASSERT_EQ(frames[1].size(), expected);
  for (const auto& [key, bytes] : frames[0]) {
    const auto& [source, dest, stage] = key;
    const auto it = frames[1].find(key);
    ASSERT_NE(it, frames[1].end()) << source << " -> " << dest << " stage " << stage;
    EXPECT_EQ(it->second, bytes) << "replayed frame differs: " << source << " -> " << dest
                                 << " stage " << stage;
  }
}

TEST(ZeroCopyPlan, DifferentialK4) { run_sweep(4, 4, 512); }
TEST(ZeroCopyPlan, DifferentialK16) { run_sweep(16, 4, 2048); }
TEST(ZeroCopyPlan, DifferentialK64) { run_sweep(64, 3, 4096); }
TEST(ZeroCopyPlan, DifferentialK256) { run_sweep(256, 2, 1024); }

// The same source buffer feeding multiple payload slots (several sends of
// identical bytes to distinct destinations) and self-send aliasing: the
// self-delivery view must point INTO the caller's payload buffer, not a copy.
TEST(ZeroCopyPlan, AliasedSeedsAndSelfSendViews) {
  const Vpt vpt({2, 2});
  const Rank K = vpt.size();
  Cluster cluster(K);
  cluster.run([&](Comm& comm) {
    const auto me = static_cast<Rank>(comm.rank());
    StfwCommunicator stfw(comm, vpt);
    const std::vector<std::byte> shared(64, static_cast<std::byte>(0xC3));
    std::vector<OutboundMessage> sends;
    for (Rank d = 0; d < K; ++d) sends.push_back({d, shared});  // same bytes everywhere
    auto plan = stfw.plan(sends);
    std::vector<std::span<const std::byte>> payloads;
    for (const OutboundMessage& s : sends) payloads.emplace_back(s.bytes);
    for (int iter = 0; iter < 3; ++iter) {
      const auto views = stfw.exchange_views(*plan, payloads);
      ASSERT_EQ(views.size(), static_cast<std::size_t>(K));
      for (const runtime::InboundView& v : views) {
        ASSERT_EQ(v.bytes.size(), shared.size());
        EXPECT_TRUE(std::equal(v.bytes.begin(), v.bytes.end(), shared.begin()));
        if (v.source == me) {
          // Zero-copy self-delivery: aliases the caller's own send buffer.
          EXPECT_EQ(v.bytes.data(),
                    sends[static_cast<std::size_t>(me)].bytes.data());
        }
      }
    }
  });
}

// Replaying the plan again must invalidate (clear) the views of the previous
// replay, and a replay that throws on drift must leave the span empty — the
// documented never-dangling contract.
TEST(ZeroCopyPlan, ViewsClearedOnNextReplayAndOnDrift) {
  const Vpt vpt({2, 2});
  const Rank K = vpt.size();
  Cluster cluster(K);
  cluster.run([&](Comm& comm) {
    const auto me = static_cast<Rank>(comm.rank());
    StfwCommunicator stfw(comm, vpt);
    std::vector<OutboundMessage> sends;
    sends.push_back({(me + 1) % K, std::vector<std::byte>(32, static_cast<std::byte>(me))});
    auto plan = stfw.plan(sends);
    std::vector<std::span<const std::byte>> payloads;
    for (const OutboundMessage& s : sends) payloads.emplace_back(s.bytes);

    const auto first = stfw.exchange_views(*plan, payloads);
    ASSERT_EQ(first.size(), 1u);
    const auto second = stfw.exchange_views(*plan, payloads);
    ASSERT_EQ(second.size(), 1u);

    // Contract violation: wrong payload count. The replay throws before any
    // traffic and the previous views are gone (empty span, not dangling).
    EXPECT_THROW((void)stfw.exchange_views(*plan, {}), core::Error);
    EXPECT_THROW((void)stfw.exchange_views(*plan, {}), core::Error);
    // Collective recovery: a correct replay still works afterwards.
    const auto again = stfw.exchange_views(*plan, payloads);
    ASSERT_EQ(again.size(), 1u);
    const auto from = (me + K - 1) % K;
    EXPECT_EQ(again[0].source, from);
    EXPECT_EQ(std::vector<std::byte>(again[0].bytes.begin(), again[0].bytes.end()),
              std::vector<std::byte>(32, static_cast<std::byte>(from)));
  });
}

#if defined(__SANITIZE_ADDRESS__)
// A replay frees the inbound frame its new frame displaces, so reading a
// view of the previous replay is a heap-use-after-free that ASan reports
// at the read, not a silent read of stale bytes.
TEST(ZeroCopyPlanDeathTest, StaleViewReadAfterTheNextReplayIsUseAfterFree) {
  EXPECT_DEATH(
      {
        Cluster cluster(2);
        cluster.run([](Comm& comm) {
          const auto me = static_cast<Rank>(comm.rank());
          StfwCommunicator stfw(comm, Vpt({2}));
          const std::vector<OutboundMessage> sends{{1 - me, std::vector<std::byte>(64)}};
          auto plan = stfw.plan(sends);
          const std::vector<std::span<const std::byte>> payloads{sends[0].bytes};
          const std::byte* stale = stfw.exchange_views(*plan, payloads)[0].bytes.data();
          (void)stfw.exchange_views(*plan, payloads);
          if (me == 0) {
            const volatile std::byte read = *stale;
            (void)read;
          }
        });
      },
      "heap-use-after-free");
}
#endif

}  // namespace
}  // namespace stfw
