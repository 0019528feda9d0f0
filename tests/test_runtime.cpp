#include "runtime/comm.hpp"

#include <gtest/gtest.h>

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
// the receiver recorded; Cluster::mailbox_wakeups() counts those posts. A lost
// wakeup would surface as a TimeoutError at the generous deadlines below, a
// premature one as an extra counted wakeup. Senders sleep briefly first so
// the receiver is most likely asleep when their frames arrive.

constexpr int kGoTag = 99;

TEST(Runtime, WakeupRepeatedSourceCountsOnceAndItsLaterFramesStayQueued) {
  Cluster cluster(4);
  cluster.run([](Comm& comm) {
    if (comm.rank() == 0) {
      const std::vector<int> sources{1, 2, 3};
      const auto got = comm.recv_from_each(sources, 5, Deadline::in(10s));
      ASSERT_EQ(got.size(), 3u);
      EXPECT_EQ(value_of(got[0]), 10);
      EXPECT_EQ(value_of(got[1]), 20);
      EXPECT_EQ(value_of(got[2]), 30);
      // Rank 1's later frames belong to later waits, still in send order.
      EXPECT_EQ(value_of(comm.recv(1, 5)), 11);
      EXPECT_EQ(value_of(comm.recv(1, 5)), 12);
    } else if (comm.rank() == 1) {
      std::this_thread::sleep_for(20ms);
      for (const int v : {10, 11, 12}) comm.send(0, 5, payload(v));
      comm.send(2, kGoTag, {});
      comm.send(3, kGoTag, {});
    } else {
      comm.recv(1, kGoTag);
      comm.send(0, 5, payload(comm.rank() * 10));
    }
  });
  // Rank 0 wakes once, for the last of its three sources; ranks 2 and 3 at
  // most once each, for their go signal.
  EXPECT_LE(cluster.mailbox_wakeups(), 3u);
}

TEST(Runtime, WakeupIgnoresLaterTagsAndSourcesNotAwaited) {
  Cluster cluster(4);
  cluster.run([](Comm& comm) {
    switch (comm.rank()) {
      case 0: {
        const std::vector<int> sources{1, 2};
        const auto got = comm.recv_from_each(sources, 5, Deadline::in(10s));
        ASSERT_EQ(got.size(), 2u);
        EXPECT_EQ(value_of(got[0]), 1);
        EXPECT_EQ(value_of(got[1]), 2);
        // Neither stray frame was taken by the wait.
        EXPECT_EQ(value_of(comm.recv(1, 6)), 16);
        EXPECT_EQ(value_of(comm.recv(3, 5)), 35);
        break;
      }
      case 1:
        std::this_thread::sleep_for(20ms);
        comm.send(0, 6, payload(16));  // an awaited source, but a later tag
        comm.send(3, kGoTag, {});
        comm.recv(3, kGoTag);
        comm.send(0, 5, payload(1));
        comm.send(2, kGoTag, {});
        break;
      case 2:
        comm.recv(1, kGoTag);
        comm.send(0, 5, payload(2));
        break;
      default:
        comm.recv(1, kGoTag);
        comm.send(0, 5, payload(35));  // the awaited tag, but not an awaited source
        comm.send(1, kGoTag, {});
        break;
    }
  });
  // Rank 0 wakes once, for rank 2's frame; ranks 1, 2 and 3 at most once each.
  EXPECT_LE(cluster.mailbox_wakeups(), 4u);
}

TEST(Runtime, WakeupSurvivesInjectedReorderToFront) {
  Cluster cluster(4);
  fault::FaultConfig cfg;
  cfg.reorder_prob = 1.0;  // every post jumps ahead of queued traffic
  cluster.set_fault_injector(std::make_shared<fault::FaultInjector>(cfg));
  cluster.run([](Comm& comm) {
    if (comm.rank() == 0) {
      const std::vector<int> sources{1, 2, 3};
      const auto got = comm.recv_from_each(sources, 5, Deadline::in(10s));
      ASSERT_EQ(got.size(), 3u);
      EXPECT_EQ(value_of(got[0]), 1);
      EXPECT_EQ(value_of(got[1]), 2);
      EXPECT_EQ(value_of(got[2]), 3);
      EXPECT_EQ(value_of(comm.recv(kAnySource, 6, Deadline::in(10s))), 7);
    } else {
      std::this_thread::sleep_for(20ms);
      comm.send(0, 5, payload(comm.rank()));
      if (comm.rank() == 3) comm.send(0, 6, payload(7));
    }
  });
  cluster.set_fault_injector(nullptr);
}

TEST(Runtime, WakeupReportsADeadAwaitedSourceAsTimeout) {
  Cluster cluster(3);
  try {
    cluster.run([](Comm& comm) {
      if (comm.rank() == 0) {
        const std::vector<int> sources{1, 2};
        (void)comm.recv_from_each(sources, 5, Deadline::in(10s));
      } else if (comm.rank() == 1) {
        comm.send(0, 5, payload(1));
      } else {
        std::this_thread::sleep_for(20ms);
        throw fault::RankCrashedError("rank 2 crashed before sending");
      }
    });
    FAIL() << "the wait outlived its dead source";
  } catch (const core::TimeoutError& e) {
    EXPECT_EQ(e.op(), "recv_from_each");
    EXPECT_EQ(e.peer(), 2);
    EXPECT_LT(e.waited_ms(), 5000) << "woken by the death, not by the deadline";
  }
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

}  // namespace
}  // namespace stfw::runtime
