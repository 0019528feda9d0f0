#include "runtime/comm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "core/error.hpp"
#include "core/vpt.hpp"
#include "fault/fault_injector.hpp"
#include "runtime/stfw_communicator.hpp"

namespace stfw::runtime {
namespace {

using namespace std::chrono_literals;

std::vector<std::byte> payload(int v) {
  std::vector<std::byte> b(sizeof(int));
  std::memcpy(b.data(), &v, sizeof(int));
  return b;
}

int value_of(const Message& m) {
  int v = 0;
  std::memcpy(&v, m.data.data(), sizeof(int));
  return v;
}

TEST(Runtime, PingPong) {
  Cluster cluster(2);
  cluster.run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 7, payload(123));
      const Message reply = comm.recv(1, 8);
      EXPECT_EQ(value_of(reply), 124);
    } else {
      const Message m = comm.recv(0, 7);
      EXPECT_EQ(value_of(m), 123);
      comm.send(0, 8, payload(value_of(m) + 1));
    }
  });
}

TEST(Runtime, PointToPointOrderingPerSourceAndTag) {
  Cluster cluster(2);
  cluster.run([](Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 100; ++i) comm.send(1, 1, payload(i));
    } else {
      for (int i = 0; i < 100; ++i) EXPECT_EQ(value_of(comm.recv(0, 1)), i);
    }
  });
}

TEST(Runtime, RecvFiltersByTag) {
  Cluster cluster(2);
  cluster.run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 1, payload(10));
      comm.send(1, 2, payload(20));
    } else {
      // Receive tag 2 first even though tag 1 arrived earlier.
      EXPECT_EQ(value_of(comm.recv(0, 2)), 20);
      EXPECT_EQ(value_of(comm.recv(0, 1)), 10);
    }
  });
}

TEST(Runtime, RecvAnySource) {
  Cluster cluster(4);
  cluster.run([](Comm& comm) {
    if (comm.rank() == 0) {
      std::int64_t sum = 0;
      for (int i = 0; i < 3; ++i) sum += value_of(comm.recv(kAnySource, 5));
      EXPECT_EQ(sum, 1 + 2 + 3);
    } else {
      comm.send(0, 5, payload(comm.rank()));
    }
  });
}

TEST(Runtime, DrainAfterBarrierSeesAllStageSends) {
  constexpr int kRanks = 8;
  Cluster cluster(kRanks);
  cluster.run([](Comm& comm) {
    // Everyone sends to everyone (including a tag the drain must not touch).
    for (int d = 0; d < kRanks; ++d) {
      if (d == comm.rank()) continue;
      comm.send(d, 1, payload(comm.rank()));
    }
    comm.send((comm.rank() + 1) % kRanks, 99, payload(-1));
    comm.barrier();
    const auto msgs = comm.drain(1);
    ASSERT_EQ(msgs.size(), static_cast<std::size_t>(kRanks - 1));
    // Sorted by source, and the other tag is untouched.
    for (std::size_t i = 1; i < msgs.size(); ++i) EXPECT_GT(msgs[i].source, msgs[i - 1].source);
    EXPECT_TRUE(comm.probe(kAnySource, 99));
    comm.recv(kAnySource, 99);  // leave mailboxes clean
  });
}

TEST(Runtime, BarrierSynchronizesPhases) {
  constexpr int kRanks = 16;
  Cluster cluster(kRanks);
  std::atomic<int> phase_counter{0};
  cluster.run([&](Comm& comm) {
    for (int phase = 0; phase < 10; ++phase) {
      phase_counter.fetch_add(1);
      comm.barrier();
      // After the barrier every rank must have bumped the counter.
      EXPECT_GE(phase_counter.load(), (phase + 1) * kRanks);
      comm.barrier();
    }
  });
  EXPECT_EQ(phase_counter.load(), 10 * kRanks);
}

TEST(Runtime, AllgatherCollectsContributions) {
  constexpr int kRanks = 8;
  Cluster cluster(kRanks);
  cluster.run([](Comm& comm) {
    const auto all = comm.allgather(payload(comm.rank() * 10));
    ASSERT_EQ(all.size(), static_cast<std::size_t>(kRanks));
    for (int r = 0; r < kRanks; ++r) {
      int v = 0;
      std::memcpy(&v, all[static_cast<std::size_t>(r)].data(), sizeof(int));
      EXPECT_EQ(v, r * 10);
    }
  });
}

TEST(Runtime, ExceptionPropagatesAndUnblocksPeers) {
  Cluster cluster(4);
  EXPECT_THROW(cluster.run([](Comm& comm) {
                 if (comm.rank() == 0) throw core::Error("boom");
                 // Peers block forever without abort handling.
                 comm.recv(0, 1);
               }),
               core::Error);
  // The cluster remains usable.
  cluster.run([](Comm& comm) { comm.barrier(); });
}

TEST(Runtime, SendValidatesDestination) {
  Cluster cluster(2);
  EXPECT_THROW(cluster.run([](Comm& comm) { comm.send(5, 0, {}); }), core::Error);
}

TEST(Runtime, ArriveRejectsAMalformedGroupOrTag) {
  Cluster cluster(1);
  cluster.run([](Comm& comm) {
    const std::vector<std::vector<int>> bad_groups{{}, {0, 1}, {-1, 0}, {1}, {0, 0}};
    for (const auto& group : bad_groups) EXPECT_THROW(comm.arrive(group, 0), core::Error);
    const std::vector<int> alone{0};
    EXPECT_THROW(comm.arrive(alone, -1), core::Error);
    EXPECT_THROW(comm.arrive(alone, 1 << 29), core::Error);
    // A well-formed round of one completes at once.
    comm.arrive(alone, 7);
    comm.await_arrival(alone, 7, Deadline::in(10s));
  });
}

TEST(Runtime, ReusableAcrossRuns) {
  Cluster cluster(4);
  for (int round = 0; round < 3; ++round) {
    cluster.run([round](Comm& comm) {
      comm.send((comm.rank() + 1) % 4, round, payload(round));
      const Message m = comm.recv((comm.rank() + 3) % 4, round);
      EXPECT_EQ(value_of(m), round);
    });
  }
}

TEST(Runtime, StressManyTagsAndInterleavedTraffic) {
  // Many concurrent logical streams: every rank sends a burst on several
  // tags to several peers, then receives them back in arbitrary order.
  constexpr int kRanks = 12;
  constexpr int kTags = 5;
  constexpr int kBurst = 20;
  Cluster cluster(kRanks);
  cluster.run([](Comm& comm) {
    for (int tag = 0; tag < kTags; ++tag)
      for (int b = 0; b < kBurst; ++b)
        for (int offset : {1, 3, 7}) {
          const int dest = (comm.rank() + offset) % kRanks;
          comm.send(dest, tag, payload(tag * 1000 + b));
        }
    // Receive: per (source, tag) stream the burst must arrive in order.
    for (int offset : {1, 3, 7}) {
      const int source = (comm.rank() - offset % kRanks + kRanks) % kRanks;
      for (int tag = kTags - 1; tag >= 0; --tag)  // reverse tag order on purpose
        for (int b = 0; b < kBurst; ++b)
          EXPECT_EQ(value_of(comm.recv(source, tag)), tag * 1000 + b);
    }
  });
}

TEST(Runtime, ExchangeStressRepeatedEpochs) {
  // Repeated collective exchanges interleaved with point-to-point chatter
  // must never cross-contaminate epochs.
  constexpr int kRanks = 8;
  Cluster cluster(kRanks);
  cluster.run([](Comm& comm) {
    for (int epoch = 0; epoch < 25; ++epoch) {
      const int dest = (comm.rank() + epoch) % kRanks;
      if (dest != comm.rank()) comm.send(dest, 100 + epoch, payload(epoch));
      comm.barrier();
      const auto msgs = comm.drain(100 + epoch);
      const bool expecting = (comm.rank() - epoch % kRanks + kRanks) % kRanks != comm.rank();
      ASSERT_EQ(msgs.size(), expecting ? 1u : 0u) << "epoch " << epoch;
      if (expecting) {
        EXPECT_EQ(value_of(msgs[0]), epoch);
      }
    }
  });
}

TEST(Runtime, RecvAnySourceConcurrentSendersKeepPerSourceOrder) {
  // Seven senders hammer rank 0 concurrently on one tag; whatever global
  // interleaving the scheduler produces, the (source, tag) substreams must
  // stay in send order.
  static constexpr int kRanks = 8;
  static constexpr int kBurst = 200;
  Cluster cluster(kRanks);
  cluster.run([](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<int> next_seq(kRanks, 0);
      for (int i = 0; i < (kRanks - 1) * kBurst; ++i) {
        const Message m = comm.recv(kAnySource, 5);
        ASSERT_GE(m.source, 1);
        ASSERT_LT(m.source, kRanks);
        const auto src = static_cast<std::size_t>(m.source);
        EXPECT_EQ(value_of(m), m.source * 1000 + next_seq[src])
            << "out-of-order delivery from rank " << m.source;
        ++next_seq[src];
      }
      for (int r = 1; r < kRanks; ++r) EXPECT_EQ(next_seq[static_cast<std::size_t>(r)], kBurst);
    } else {
      for (int b = 0; b < kBurst; ++b) comm.send(0, 5, payload(comm.rank() * 1000 + b));
    }
  });
}

TEST(Runtime, ProbeUnderConcurrentLoadMatchesRecv) {
  // probe() answers about the current mailbox; a positive probe must be
  // immediately satisfiable by recv even while senders keep posting.
  static constexpr int kRanks = 6;
  static constexpr int kBurst = 100;
  Cluster cluster(kRanks);
  cluster.run([](Comm& comm) {
    if (comm.rank() == 0) {
      int got = 0;
      std::vector<int> next_seq(kRanks, 0);
      while (got < (kRanks - 1) * kBurst) {
        comm.wait_message(Deadline::never());
        while (comm.probe(kAnySource, 3)) {
          const Message m = comm.recv(kAnySource, 3);
          const auto src = static_cast<std::size_t>(m.source);
          EXPECT_EQ(value_of(m), next_seq[src]) << "from rank " << m.source;
          ++next_seq[src];
          ++got;
        }
        // Specific-source probes agree with what recv would find.
        for (int r = 1; r < kRanks; ++r) {
          if (comm.probe(r, 3)) {
            EXPECT_TRUE(comm.probe(kAnySource, 3));
          }
        }
      }
      EXPECT_FALSE(comm.probe(kAnySource, 3));
    } else {
      for (int b = 0; b < kBurst; ++b) comm.send(0, 3, payload(b));
    }
  });
}

TEST(Runtime, DrainUnderConcurrentMultiSenderLoadKeepsPerSourceOrder) {
  // drain() while other tags are still in flight: per source the drained
  // sequence must be the send sequence, and foreign tags stay untouched.
  static constexpr int kRanks = 8;
  static constexpr int kBurst = 50;
  Cluster cluster(kRanks);
  cluster.run([](Comm& comm) {
    for (int b = 0; b < kBurst; ++b) {
      for (int d = 0; d < kRanks; ++d) {
        if (d == comm.rank()) continue;
        comm.send(d, 11, payload(comm.rank() * 10000 + b));
        if (b % 7 == 0) comm.send(d, 12, payload(b));
      }
    }
    comm.barrier();
    const auto msgs = comm.drain(11);
    ASSERT_EQ(msgs.size(), static_cast<std::size_t>((kRanks - 1) * kBurst));
    std::vector<int> next_seq(kRanks, 0);
    int last_source = -1;
    for (const Message& m : msgs) {
      EXPECT_GE(m.source, last_source) << "drain not sorted by source";
      last_source = m.source;
      const auto src = static_cast<std::size_t>(m.source);
      EXPECT_EQ(value_of(m), m.source * 10000 + next_seq[src]);
      ++next_seq[src];
    }
    // Tag 12 was untouched by the drain; clean it up.
    const auto rest = comm.drain(12);
    EXPECT_EQ(rest.size(), static_cast<std::size_t>((kRanks - 1) * ((kBurst + 6) / 7)));
  });
}

TEST(Runtime, ReserveTagsAlignsEachBlockAndWrapsBelowTwoToThe28) {
  Cluster cluster(1);
  cluster.run([](Comm& comm) {
    EXPECT_EQ(comm.reserve_tags(3), 0);
    EXPECT_EQ(comm.reserve_tags(2), 4);  // aligned up past the first block
    EXPECT_EQ(comm.reserve_tags(3), 6);
    EXPECT_EQ(comm.reserve_tags(1), 9);
    // A block that no longer fits below 1 << 28 wraps to 0.
    EXPECT_EQ(comm.reserve_tags((1 << 28) - 4), 0);
    EXPECT_EQ(comm.reserve_tags(4), (1 << 28) - 4);
    EXPECT_EQ(comm.reserve_tags(4), 0);
    EXPECT_THROW((void)comm.reserve_tags(0), core::Error);
  });
  // Every run starts from tag 0 again.
  cluster.run([](Comm& comm) { EXPECT_EQ(comm.reserve_tags(5), 0); });
}

TEST(Runtime, SingleRankClusterWorks) {
  Cluster cluster(1);
  cluster.run([](Comm& comm) {
    EXPECT_EQ(comm.size(), 1);
    comm.barrier();
    const auto all = comm.allgather(payload(7));
    ASSERT_EQ(all.size(), 1u);
  });
}

// --- Mailbox wait protocol ---------------------------------------------------
// A post wakes a blocked receiver only when its message completes the wait
// the receiver recorded; Cluster::mailbox_wakeups() counts those posts. A
// stage arrival releases each waiting member with one such post. A lost
// wakeup would surface as a TimeoutError at the generous deadlines below, a
// premature one as an extra counted wakeup. Late members sleep briefly
// first so the early ones are most likely asleep when the round completes.

constexpr int kGoTag = 99;

TEST(Runtime, WakeupArrivalReleasesEachWaitingMemberOnce) {
  Cluster cluster(4);
  const std::vector<int> group{0, 1, 2, 3};
  cluster.run([&](Comm& comm) {
    const int me = comm.rank();
    if (me != 0) std::this_thread::sleep_for(std::chrono::milliseconds(10 * me));
    for (const int d : group)
      if (d != me) comm.send(d, 5, payload(me * 10 + d));
    comm.arrive(group, 5);
    comm.await_arrival(group, 5, Deadline::in(10s));
    const auto msgs = comm.drain(5);
    ASSERT_EQ(msgs.size(), 3u);
    for (const Message& m : msgs) EXPECT_EQ(value_of(m), m.source * 10 + me);
  });
  // Every member but the last to arrive wakes at most once, on its
  // release; the last one completes the round and never sleeps.
  EXPECT_LE(cluster.mailbox_wakeups(), 3u);
}

TEST(Runtime, WakeupArrivalIgnoresStageFramesAndOtherGroups) {
  Cluster cluster(4);
  cluster.run([](Comm& comm) {
    switch (comm.rank()) {
      case 0: {
        const std::vector<int> group{0, 1, 2};
        comm.arrive(group, 5);
        comm.await_arrival(group, 5, Deadline::in(10s));
        const auto msgs = comm.drain(5);
        ASSERT_EQ(msgs.size(), 3u);
        EXPECT_EQ(value_of(msgs[0]), 1);
        EXPECT_EQ(value_of(msgs[1]), 2);
        EXPECT_EQ(value_of(msgs[2]), 35);
        // The later-tag frame was not taken by the drain.
        EXPECT_EQ(value_of(comm.recv(1, 6)), 16);
        break;
      }
      case 1: {
        std::this_thread::sleep_for(20ms);
        comm.send(0, 5, payload(1));
        comm.send(0, 6, payload(16));  // a member's frame, but a later tag
        comm.send(3, kGoTag, {});
        comm.recv(3, kGoTag);
        comm.send(2, kGoTag, {});
        const std::vector<int> group{0, 1, 2};
        comm.arrive(group, 5);
        comm.await_arrival(group, 5, Deadline::in(10s));
        break;
      }
      case 2: {
        comm.recv(1, kGoTag);
        comm.send(0, 5, payload(2));
        const std::vector<int> group{0, 1, 2};
        comm.arrive(group, 5);
        comm.await_arrival(group, 5, Deadline::in(10s));
        break;
      }
      default: {
        comm.recv(1, kGoTag);
        // The awaited tag, from a rank outside the group, in a round of its
        // own: neither its frame nor its round may release rank 0.
        comm.send(0, 5, payload(35));
        const std::vector<int> alone{3};
        comm.arrive(alone, 5);
        comm.await_arrival(alone, 5, Deadline::in(10s));
        comm.send(1, kGoTag, {});
        break;
      }
    }
  });
  // At most one wakeup per blocking wait: rank 0's release, the go signals
  // of ranks 1, 2 and 3, and the release of whichever of ranks 1 and 2
  // arrives first. The frames tagged 5 woke nobody.
  EXPECT_LE(cluster.mailbox_wakeups(), 5u);
}

TEST(Runtime, WakeupArrivalSurvivesInjectedReorderToFront) {
  Cluster cluster(4);
  fault::FaultConfig cfg;
  cfg.reorder_prob = 1.0;  // every post jumps ahead of queued traffic
  cluster.set_fault_injector(std::make_shared<fault::FaultInjector>(cfg));
  const std::vector<int> group{0, 1, 2, 3};
  cluster.run([&](Comm& comm) {
    const int me = comm.rank();
    if (me != 0) std::this_thread::sleep_for(20ms);
    for (const int d : group)
      if (d != me) comm.send(d, 5, payload(me));
    if (me == 3) comm.send(0, 6, payload(7));
    comm.arrive(group, 5);
    comm.await_arrival(group, 5, Deadline::in(10s));
    const auto msgs = comm.drain(5);
    ASSERT_EQ(msgs.size(), 3u);
    int want = 0;
    for (const Message& m : msgs) {
      if (want == me) ++want;
      EXPECT_EQ(m.source, want);
      EXPECT_EQ(value_of(m), want);
      ++want;
    }
    if (me == 0) {
      EXPECT_EQ(value_of(comm.recv(kAnySource, 6, Deadline::in(10s))), 7);
    }
  });
  cluster.set_fault_injector(nullptr);
}

TEST(Runtime, WakeupArrivalReportsADeadAbsentMemberAsTimeout) {
  Cluster cluster(3);
  const std::vector<int> group{0, 1, 2};
  try {
    cluster.run([&](Comm& comm) {
      if (comm.rank() == 0) {
        comm.arrive(group, 5);
        comm.await_arrival(group, 5, Deadline::in(10s));
      } else if (comm.rank() == 1) {
        comm.arrive(group, 5);  // arrives, then leaves without waiting
      } else {
        std::this_thread::sleep_for(20ms);
        throw fault::RankCrashedError("rank 2 crashed before arriving");
      }
    });
    FAIL() << "the wait outlived its dead member";
  } catch (const core::TimeoutError& e) {
    EXPECT_EQ(e.op(), "await_arrival");
    EXPECT_EQ(e.peer(), 2);
    EXPECT_NE(std::string(e.what()).find("group member 2 died"), std::string::npos) << e.what();
    EXPECT_LT(e.waited_ms(), 5000) << "woken by the death, not by the deadline";
  }
}

TEST(Runtime, WakeupArrivalNamesEveryAbsentMemberAtTheDeadline) {
  Cluster cluster(4);
  const std::vector<int> group{0, 1, 2, 3};
  try {
    cluster.run([&](Comm& comm) {
      // Ranks 1 and 3 are lost: they never arrive.
      if (comm.rank() == 0) {
        comm.arrive(group, 5);
        comm.await_arrival(group, 5, Deadline::in(200ms));
      } else if (comm.rank() == 2) {
        comm.arrive(group, 5);
      }
    });
    FAIL() << "the round completed without two of its members";
  } catch (const core::TimeoutError& e) {
    EXPECT_EQ(e.op(), "await_arrival");
    EXPECT_EQ(e.rank(), 0);
    EXPECT_EQ(e.peer(), 1);
    EXPECT_NE(std::string(e.what()).find("group member(s) 1, 3 did not arrive"),
              std::string::npos)
        << e.what();
  }
  // The open round is reset by the next run: the same round completes.
  cluster.run([&](Comm& comm) {
    comm.arrive(group, 5);
    comm.await_arrival(group, 5, Deadline::in(10s));
  });
}

TEST(Runtime, WakeupWaitMessageWakesOnAnyTag) {
  Cluster cluster(2);
  cluster.run([](Comm& comm) {
    if (comm.rank() == 0) {
      const auto t0 = std::chrono::steady_clock::now();
      EXPECT_TRUE(comm.wait_message(Deadline::in(10s)));
      EXPECT_LT(std::chrono::steady_clock::now() - t0, 5s) << "slept out the deadline";
      EXPECT_EQ(value_of(comm.recv(1, 12345)), 42);
    } else {
      std::this_thread::sleep_for(20ms);
      comm.send(0, 12345, payload(42));
    }
  });
  EXPECT_LE(cluster.mailbox_wakeups(), 1u);
}

TEST(Runtime, WakeupsStayWithinOnePerRankPerStageOverBlExchanges) {
  constexpr int kRanks = 32;
  constexpr int kExchanges = 4;
  const core::Vpt vpt = core::Vpt::direct(kRanks);
  Cluster cluster(kRanks);
  cluster.run([&](Comm& comm) {
    StfwCommunicator stfw(comm, vpt);
    stfw.set_validation(false);  // its collective check would add receives
    const auto me = static_cast<core::Rank>(comm.rank());
    for (int x = 0; x < kExchanges; ++x) {
      std::vector<OutboundMessage> sends;
      for (const int step : {1, 5, 11}) sends.push_back({(me + step + x) % kRanks, payload(me)});
      EXPECT_EQ(stfw.exchange(sends).size(), 3u);
    }
  });
  EXPECT_LE(cluster.mailbox_wakeups(),
            static_cast<std::uint64_t>(kRanks * vpt.dim() * kExchanges));
}

// ---------------------------------------------------------------------------
// The collectives every exchange is built from, at cluster sizes from one
// rank through odd and prime counts to 33.

class RuntimeSizes : public ::testing::TestWithParam<int> {};

/// Rank `from`'s value for rank `to` in the personalized patterns below.
int cell(int from, int to, int size) { return from * size + to; }

TEST_P(RuntimeSizes, AllgatherIndexesIrregularContributionsByRank) {
  const int size = GetParam();
  Cluster cluster(size);
  cluster.run([size](Comm& comm) {
    // Rank r contributes r bytes of value r, so rank 0's is empty.
    const auto r = static_cast<std::size_t>(comm.rank());
    const auto all = comm.allgather(std::vector<std::byte>(r, static_cast<std::byte>(r)));
    ASSERT_EQ(all.size(), static_cast<std::size_t>(size));
    for (std::size_t src = 0; src < all.size(); ++src)
      EXPECT_EQ(all[src], std::vector<std::byte>(src, static_cast<std::byte>(src)))
          << "contribution of rank " << src;
  });
}

TEST_P(RuntimeSizes, DrainAfterBarrierReturnsEverySendSortedBySource) {
  const int size = GetParam();
  Cluster cluster(size);
  cluster.run([size](Comm& comm) {
    const int me = comm.rank();
    for (int d = 0; d < size; ++d)
      if (d != me) comm.send(d, 3, payload(cell(me, d, size)));
    comm.barrier();
    const auto msgs = comm.drain(3);
    ASSERT_EQ(msgs.size(), static_cast<std::size_t>(size - 1));
    int want_source = 0;
    for (const Message& m : msgs) {
      if (want_source == me) ++want_source;
      EXPECT_EQ(m.source, want_source);
      EXPECT_EQ(value_of(m), cell(want_source, me, size));
      ++want_source;
    }
    EXPECT_TRUE(comm.drain(3).empty());
  });
}

TEST_P(RuntimeSizes, ArrivalDrainsEveryFramePostedBeforeArrivingAndNothingLater) {
  const int size = GetParam();
  Cluster cluster(size);
  cluster.run([size](Comm& comm) {
    const int me = comm.rank();
    // Even and odd ranks form two groups that share every tag; a round
    // completes only on its own members' arrivals.
    std::vector<int> group;
    for (int r = me % 2; r < size; r += 2) group.push_back(r);
    // Round t drains the frames posted before arriving at it; each rank
    // posts round t + 1's frames only after arriving at round t, so they
    // must wait for round t + 1's drain.
    auto post = [&](int tag) {
      for (const int d : group)
        if (d != me) comm.send(d, tag, payload(cell(me, d, size) * tag));
    };
    post(5);
    for (const int tag : {5, 6, 7}) {
      comm.arrive(group, tag);
      if (tag < 7) post(tag + 1);
      comm.await_arrival(group, tag, Deadline::in(30s));
      const auto msgs = comm.drain(tag);
      ASSERT_EQ(msgs.size(), group.size() - 1);
      std::size_t i = 0;
      for (const int src : group) {
        if (src == me) continue;
        EXPECT_EQ(msgs[i].source, src);
        EXPECT_EQ(value_of(msgs[i]), cell(src, me, size) * tag);
        ++i;
      }
    }
  });
}

/// The personalized all-to-all pattern: rank i sends cell(i, j) to every
/// rank j, itself included, except (i + 1) % size, which gets nothing.
std::vector<OutboundMessage> personalized_sends(int me, int size) {
  std::vector<OutboundMessage> sends;
  for (int j = 0; j < size; ++j)
    if (j != (me + 1) % size) sends.push_back({j, payload(cell(me, j, size))});
  return sends;
}

void expect_personalized_inbox(std::vector<InboundMessage> inbox, int me, int size) {
  std::sort(inbox.begin(), inbox.end(),
            [](const InboundMessage& a, const InboundMessage& b) { return a.source < b.source; });
  std::vector<InboundMessage> want;
  for (int i = 0; i < size; ++i)
    if (me != (i + 1) % size) want.push_back({i, payload(cell(i, me, size))});
  EXPECT_EQ(inbox, want) << "rank " << me;
}

TEST_P(RuntimeSizes, BlExchangeIsAPersonalizedAllToAll) {
  const int size = GetParam();
  const core::Vpt vpt = core::Vpt::direct(size);
  Cluster cluster(size);
  cluster.run([&](Comm& comm) {
    StfwCommunicator stfw(comm, vpt);
    expect_personalized_inbox(stfw.exchange(personalized_sends(comm.rank(), size)), comm.rank(),
                              size);
  });
}

TEST_P(RuntimeSizes, ResilientBlExchangeIsAPersonalizedAllToAll) {
  const int size = GetParam();
  const core::Vpt vpt = core::Vpt::direct(size);
  Cluster cluster(size);
  cluster.run([&](Comm& comm) {
    StfwCommunicator stfw(comm, vpt);
    ResilientExchangeResult res = stfw.exchange_resilient(personalized_sends(comm.rank(), size));
    EXPECT_TRUE(res.fully_recovered) << res.failure.to_string();
    EXPECT_FALSE(res.degraded);
    expect_personalized_inbox(std::move(res.delivered), comm.rank(), size);
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, RuntimeSizes, ::testing::Values(1, 2, 3, 4, 7, 8, 16, 33));

}  // namespace
}  // namespace stfw::runtime
