#include "fault/fault_injector.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/env.hpp"
#include "core/error.hpp"
#include "core/sync.hpp"
#include "core/vpt.hpp"
#include "core/wire.hpp"
#include "runtime/comm.hpp"
#include "runtime/stfw_communicator.hpp"

/// \file test_fault.cpp
/// The fault-tolerance layer end to end: injector determinism, timeout-aware
/// primitives, the deadlock watchdog, and the resilient exchange's recovery
/// and degradation guarantees (docs/fault_model.md).

namespace stfw {
namespace {

using namespace std::chrono_literals;
using core::Rank;
using fault::FaultConfig;
using fault::FaultInjector;
using fault::MessageDecision;
using runtime::Cluster;
using runtime::Comm;
using runtime::Deadline;

// ---------------------------------------------------------------------------
// FaultInjector unit tests

bool any_fault(const MessageDecision& d) {
  return d.drop || d.duplicate || d.reorder || d.truncate_to != UINT32_MAX || d.delay > 0ms;
}

TEST(FaultInjector, SameSeedReplaysIdenticalDecisions) {
  FaultConfig cfg;
  cfg.seed = 1234;
  cfg.drop_prob = 0.2;
  cfg.duplicate_prob = 0.2;
  cfg.reorder_prob = 0.1;
  cfg.truncate_prob = 0.1;
  cfg.delay_prob = 0.2;
  FaultInjector a(cfg), b(cfg);
  for (int i = 0; i < 500; ++i) {
    const int sender = i % 4;
    const MessageDecision da = a.on_post(sender, (sender + 1) % 4, 7, 100);
    const MessageDecision db = b.on_post(sender, (sender + 1) % 4, 7, 100);
    EXPECT_EQ(da.drop, db.drop);
    EXPECT_EQ(da.duplicate, db.duplicate);
    EXPECT_EQ(da.reorder, db.reorder);
    EXPECT_EQ(da.truncate_to, db.truncate_to);
    EXPECT_EQ(da.delay, db.delay);
  }
}

TEST(FaultInjector, SendersHaveIndependentStreams) {
  // Interleaving posts of different senders must not perturb a sender's own
  // decision stream — that is what makes multi-threaded runs replayable.
  FaultConfig cfg;
  cfg.seed = 9;
  cfg.drop_prob = 0.3;
  FaultInjector solo(cfg), interleaved(cfg);
  std::vector<bool> solo_fates;
  for (int i = 0; i < 200; ++i) solo_fates.push_back(solo.on_post(0, 1, 5, 8).drop);
  std::vector<bool> mixed_fates;
  for (int i = 0; i < 200; ++i) {
    (void)interleaved.on_post(1, 0, 5, 8);
    (void)interleaved.on_post(2, 0, 5, 8);
    mixed_fates.push_back(interleaved.on_post(0, 1, 5, 8).drop);
  }
  EXPECT_EQ(solo_fates, mixed_fates);
}

TEST(FaultInjector, NegativeControlTagsAreReliable) {
  FaultConfig cfg;
  cfg.drop_prob = 1.0;
  cfg.duplicate_prob = 1.0;
  FaultInjector inj(cfg);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(any_fault(inj.on_post(0, 1, -2001, 64)));  // collective traffic
    EXPECT_TRUE(inj.on_post(0, 1, 0, 64).drop);             // exchange traffic
  }
  EXPECT_EQ(inj.counters().drops, 100);
}

TEST(FaultInjector, CountersTallyDecisions) {
  FaultConfig cfg;
  cfg.truncate_prob = 1.0;
  cfg.delay_prob = 1.0;
  FaultInjector inj(cfg);
  for (int i = 0; i < 50; ++i) {
    const MessageDecision d = inj.on_post(0, 1, 3, 100);
    EXPECT_LT(d.truncate_to, 100u);
    EXPECT_GE(d.delay.count(), cfg.delay_min.count());
    EXPECT_LE(d.delay.count(), cfg.delay_max.count());
  }
  EXPECT_EQ(inj.counters().truncations, 50);
  EXPECT_EQ(inj.counters().delays, 50);
  EXPECT_EQ(inj.counters().drops, 0);
}

TEST(FaultInjector, RejectsInvalidConfig) {
  FaultConfig bad;
  bad.drop_prob = 1.5;
  EXPECT_THROW(FaultInjector{bad}, core::Error);
  FaultConfig bad2;
  bad2.delay_min = 10ms;
  bad2.delay_max = 5ms;
  EXPECT_THROW(FaultInjector{bad2}, core::Error);
}

TEST(FaultInjector, FromEnvReadsTheFaultMatrixVariables) {
  ::setenv("STFW_FAULT_SEED", "77", 1);
  ::setenv("STFW_FAULT_DROP", "0.25", 1);
  ::setenv("STFW_FAULT_DUP", "0.125", 1);
  ::setenv("STFW_FAULT_DELAY", "0.5", 1);
  ::setenv("STFW_FAULT_DELAY_MAX_MS", "9", 1);
  const FaultConfig cfg = FaultConfig::from_env();
  ::unsetenv("STFW_FAULT_SEED");
  ::unsetenv("STFW_FAULT_DROP");
  ::unsetenv("STFW_FAULT_DUP");
  ::unsetenv("STFW_FAULT_DELAY");
  ::unsetenv("STFW_FAULT_DELAY_MAX_MS");
  EXPECT_EQ(cfg.seed, 77u);
  EXPECT_DOUBLE_EQ(cfg.drop_prob, 0.25);
  EXPECT_DOUBLE_EQ(cfg.duplicate_prob, 0.125);
  EXPECT_DOUBLE_EQ(cfg.delay_prob, 0.5);
  EXPECT_EQ(cfg.delay_max.count(), 9);
}

TEST(FaultInjector, CrashSiteThrowsOnConfiguredRankAndStage) {
  FaultConfig cfg;
  cfg.crash_rank = 2;
  cfg.crash_stage = 1;
  FaultInjector inj(cfg);
  inj.at_stage(2, 0);  // wrong stage: no-op
  inj.at_stage(1, 1);  // wrong rank: no-op
  EXPECT_THROW(inj.at_stage(2, 1), fault::FaultInjectedError);
  EXPECT_EQ(inj.counters().crashes, 1);
}

TEST(FaultInjector, StallSiteBlocksTheCallingThread) {
  FaultConfig cfg;
  cfg.stall_rank = 0;
  cfg.stall_stage = -1;  // any stage
  cfg.stall_duration = 30ms;
  FaultInjector inj(cfg);
  const auto t0 = std::chrono::steady_clock::now();
  inj.at_stage(0, 3);
  EXPECT_GE(std::chrono::steady_clock::now() - t0, 30ms);
  EXPECT_EQ(inj.counters().stalls, 1);
}

// ---------------------------------------------------------------------------
// Timeout-aware primitives and the watchdog

TEST(Timeout, RecvDeadlineThrowsNamingTheAwaitedRank) {
  Cluster cluster(2);
  try {
    cluster.run([](Comm& comm) {
      if (comm.rank() == 0) comm.recv(1, 7, Deadline::in(30ms));
      // Rank 1 never sends.
    });
    FAIL() << "recv deadline did not fire";
  } catch (const core::TimeoutError& e) {
    EXPECT_EQ(e.op(), "recv");
    EXPECT_EQ(e.rank(), 0);
    EXPECT_EQ(e.peer(), 1);
    EXPECT_EQ(e.tag(), 7);
    EXPECT_NE(std::string(e.what()).find("for rank 1"), std::string::npos) << e.what();
  }
}

TEST(Timeout, BarrierDeadlineThrowsWhenAPeerNeverArrives) {
  Cluster cluster(3);
  try {
    cluster.run([](Comm& comm) {
      if (comm.rank() == 2) return;          // never joins the barrier
      if (comm.rank() == 0) {
        comm.barrier(Deadline::in(40ms));    // the single primary failure
      } else {
        comm.barrier();                      // unblocked by rank 0's abort
      }
    });
    FAIL() << "barrier deadline did not fire";
  } catch (const core::TimeoutError& e) {
    EXPECT_EQ(e.op(), "barrier");
  }
  cluster.run([](Comm& comm) { comm.barrier(); });  // cluster stays usable
}

TEST(Timeout, StalledRankConvertsDeadlockIntoNamedTimeout) {
  // The acceptance scenario: a rank stalls at a stage boundary; under plain
  // blocking primitives its peer would deadlock. With a deadline the peer
  // gets a TimeoutError naming the stuck rank, well within the stall.
  Cluster cluster(2);
  auto injector = std::make_shared<FaultInjector>([] {
    FaultConfig cfg;
    cfg.stall_rank = 1;
    cfg.stall_stage = 0;
    cfg.stall_duration = 200ms;
    return cfg;
  }());
  cluster.set_fault_injector(injector);
  try {
    cluster.run([&](Comm& comm) {
      if (comm.rank() == 1) {
        comm.fault_injector()->at_stage(1, 0);  // stalls 200ms
        comm.send(0, 7, {});
      } else {
        comm.recv(1, 7, Deadline::in(50ms));
      }
    });
    FAIL() << "stall did not surface as a timeout";
  } catch (const core::TimeoutError& e) {
    EXPECT_EQ(e.peer(), 1) << "timeout must name the stalled rank";
    // The verdict arrived on the deadline, not after the stall finished.
    EXPECT_GE(e.waited_ms(), 50);
    EXPECT_LT(e.waited_ms(), 200);
    EXPECT_NE(std::string(e.what()).find("for rank 1"), std::string::npos) << e.what();
  }
  EXPECT_GE(injector->counters().stalls, 1);
  cluster.set_fault_injector(nullptr);
}

TEST(Watchdog, ReportsAllRanksBlockedDeadlock) {
  Cluster cluster(3);
  cluster.set_watchdog(60ms);
  try {
    // Circular wait: rank r receives from r+1, nobody ever sends.
    cluster.run([](Comm& comm) { comm.recv((comm.rank() + 1) % 3, 9); });
    FAIL() << "watchdog did not fire";
  } catch (const core::DeadlockError& e) {
    EXPECT_EQ(e.op(), "deadlock");
    const std::string what = e.what();
    for (int r = 0; r < 3; ++r)
      EXPECT_NE(what.find("rank " + std::to_string(r)), std::string::npos)
          << "report must name every stuck rank: " << what;
    EXPECT_NE(what.find("recv"), std::string::npos) << what;
  }
  cluster.set_watchdog(0ms);
  cluster.run([](Comm& comm) { comm.barrier(); });  // cluster stays usable
}

TEST(Watchdog, DoesNotFireWhileProgressIsBeingMade) {
  Cluster cluster(2);
  cluster.set_watchdog(50ms);
  cluster.run([](Comm& comm) {
    // Ping-pong for ~8 watchdog windows; steady progress must hold it off.
    const int peer = 1 - comm.rank();
    for (int i = 0; i < 40; ++i) {
      if (comm.rank() == 0) {
        comm.send(peer, 1, {});
        comm.recv(peer, 2);
      } else {
        comm.recv(peer, 1);
        comm.send(peer, 2, {});
      }
      std::this_thread::sleep_for(10ms);
    }
  });
  cluster.set_watchdog(0ms);
}

TEST(Cluster, AggregatesIndependentFailuresAcrossRanks) {
  // Satellite of the robustness PR: several ranks failing independently must
  // all be named, not just the lowest-numbered one.
  Cluster cluster(4);
  try {
    cluster.run([](Comm& comm) {
      if (comm.rank() == 1) throw core::Error("alpha failure");
      if (comm.rank() == 3) throw core::Error("beta failure");
      comm.recv(1, 1);  // secondary: unblocked by the peers' abort
    });
    FAIL() << "no error propagated";
  } catch (const core::MultiRankError& e) {
    ASSERT_EQ(e.failures().size(), 2u);
    EXPECT_EQ(e.failures()[0].rank, 1);
    EXPECT_EQ(e.failures()[1].rank, 3);
    const std::string what = e.what();
    EXPECT_NE(what.find("alpha failure"), std::string::npos) << what;
    EXPECT_NE(what.find("beta failure"), std::string::npos) << what;
  }
  cluster.run([](Comm& comm) { comm.barrier(); });
}

// ---------------------------------------------------------------------------
// Resilient exchange

std::vector<std::byte> pattern_bytes(Rank src, Rank dest) {
  const std::size_t len = static_cast<std::size_t>((src * 7 + dest * 13) % 40) + 1;
  std::vector<std::byte> b(len);
  for (std::size_t i = 0; i < len; ++i)
    b[i] = static_cast<std::byte>((static_cast<std::size_t>(src) * 31 +
                                   static_cast<std::size_t>(dest) * 17 + i) &
                                  0xff);
  return b;
}

std::vector<OutboundMessage> all_to_all_sends(Rank K, Rank me) {
  std::vector<OutboundMessage> out;
  for (Rank d = 0; d < K; ++d) {
    if (d == me) continue;
    out.push_back({d, pattern_bytes(me, d)});
  }
  return out;
}

void sort_by_source(std::vector<InboundMessage>& msgs) {
  std::stable_sort(msgs.begin(), msgs.end(),
                   [](const InboundMessage& a, const InboundMessage& b) {
                     return a.source < b.source;
                   });
}

/// Runs the plain (fault-free) exchange on a fresh cluster — the baseline the
/// resilient mode must reproduce byte-for-byte.
std::vector<std::vector<InboundMessage>> fault_free_baseline(const core::Vpt& vpt) {
  const Rank K = vpt.size();
  std::vector<std::vector<InboundMessage>> delivered(static_cast<std::size_t>(K));
  Cluster cluster(K);
  cluster.run([&](Comm& comm) {
    StfwCommunicator stfw(comm, vpt);
    const auto me = static_cast<Rank>(comm.rank());
    delivered[static_cast<std::size_t>(me)] = stfw.exchange(all_to_all_sends(K, me));
  });
  for (auto& msgs : delivered) sort_by_source(msgs);
  return delivered;
}

/// Plain exchange closes a stage on its group's arrival, not on a frame
/// count, so a lost frame would silently go missing. Plain exchange()
/// refuses an injector that faults messages, on every rank before it
/// takes a tag, while stall and crash sites stay allowed.
TEST(PlainExchange, RefusesAnInjectorThatFaultsMessages) {
  const core::Vpt vpt({2, 2});
  const Rank K = vpt.size();
  const auto baseline = fault_free_baseline(vpt);
  Cluster cluster(K);

  FaultConfig drops;
  drops.drop_prob = 0.01;
  cluster.set_fault_injector(std::make_shared<FaultInjector>(drops));
  cluster.run([&](Comm& comm) {
    const auto me = static_cast<Rank>(comm.rank());
    StfwCommunicator stfw(comm, vpt);
    const auto sends = all_to_all_sends(K, me);
    const auto expect_refused = [](const char* label, const auto& call) {
      try {
        call();
        ADD_FAILURE() << label << " ran under a dropping injector";
      } catch (const core::Error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("plain exchange needs a reliable transport"), std::string::npos)
            << label << ": " << what;
        EXPECT_NE(what.find("use exchange_resilient()"), std::string::npos) << label << ": " << what;
      }
    };
    expect_refused("exchange", [&] { (void)stfw.exchange(sends); });
  });

  FaultConfig stalls;
  stalls.stall_rank = 1;
  stalls.stall_duration = 5ms;
  cluster.set_fault_injector(std::make_shared<FaultInjector>(stalls));
  cluster.run([&](Comm& comm) {
    const auto me = static_cast<Rank>(comm.rank());
    StfwCommunicator stfw(comm, vpt);
    auto got = stfw.exchange(all_to_all_sends(K, me));
    sort_by_source(got);
    EXPECT_EQ(got, baseline[static_cast<std::size_t>(me)]);
  });
  cluster.set_fault_injector(nullptr);
}

TEST(ResilientExchange, CleanTransportMatchesPlainExchange) {
  // Back to back in one run: a rank that leaves an exchange's epilogue first
  // posts the next exchange's frames while slower peers still drain the
  // previous one. Those frames must survive that drain — on a clean
  // transport nothing may ever be retransmitted.
  constexpr std::size_t kExchanges = 50;
  const auto vpt = core::Vpt({4, 4});
  const auto baseline = fault_free_baseline(vpt);
  const Rank K = vpt.size();
  const auto ranks = static_cast<std::size_t>(K);
  std::vector<std::vector<ResilientExchangeResult>> results(
      ranks, std::vector<ResilientExchangeResult>(kExchanges));
  std::vector<std::vector<LocalExchangeStats>> stats(
      ranks, std::vector<LocalExchangeStats>(kExchanges));
  Cluster cluster(K);
  cluster.run([&](Comm& comm) {
    StfwCommunicator stfw(comm, vpt);
    const auto me = static_cast<std::size_t>(comm.rank());
    ResilienceOptions opt;
    opt.retransmit_timeout = 500ms;  // scheduling hiccups must not retransmit
    for (std::size_t x = 0; x < kExchanges; ++x) {
      results[me][x] = stfw.exchange_resilient(all_to_all_sends(K, comm.rank()), opt);
      stats[me][x] = stfw.last_stats();
    }
  });
  for (std::size_t r = 0; r < ranks; ++r) {
    for (std::size_t x = 0; x < kExchanges; ++x) {
      SCOPED_TRACE("rank " + std::to_string(r) + " exchange " + std::to_string(x));
      auto& res = results[r][x];
      const auto& st = stats[r][x];
      EXPECT_TRUE(res.fully_recovered);
      EXPECT_TRUE(res.failure.empty()) << res.failure.to_string();
      sort_by_source(res.delivered);
      EXPECT_EQ(res.delivered, baseline[r]);
      // T_2(4,4): every rank emits exactly (4-1)+(4-1) stage frames (empty
      // ones included) and each one is acked exactly once.
      EXPECT_EQ(st.messages_sent, 6);
      EXPECT_EQ(st.acks_received, 6);
      EXPECT_EQ(st.acks_sent, 6);
      EXPECT_EQ(st.retransmits, 0);
      EXPECT_EQ(st.timeouts, 0);
      EXPECT_EQ(st.duplicate_frames_discarded, 0);
      EXPECT_EQ(st.corrupt_frames_discarded, 0);
      EXPECT_EQ(st.direct_fallback_submessages, 0);
    }
  }
}

TEST(ResilientExchange, RecoversFromDropsAndDuplicationByteIdentical) {
  // The PR's acceptance bar: K=64, n=2, >= 1% injected drop AND duplication;
  // the exchange must complete with payloads byte-identical to the
  // fault-free baseline and report a nonzero retransmit count.
  const auto vpt = core::Vpt({8, 8});
  const Rank K = vpt.size();
  ASSERT_EQ(K, 64);
  const auto baseline = fault_free_baseline(vpt);

  auto injector = std::make_shared<FaultInjector>([] {
    FaultConfig cfg;
    cfg.seed = 20260806;
    cfg.drop_prob = 0.02;
    cfg.duplicate_prob = 0.02;
    return cfg;
  }());
  std::vector<ResilientExchangeResult> results(static_cast<std::size_t>(K));
  std::vector<LocalExchangeStats> stats(static_cast<std::size_t>(K));
  Cluster cluster(K);
  cluster.set_fault_injector(injector);
  cluster.run([&](Comm& comm) {
    StfwCommunicator stfw(comm, vpt);
    const auto me = static_cast<std::size_t>(comm.rank());
    ResilienceOptions opt;
    opt.retransmit_timeout = 3ms;
    opt.max_attempts = 10;
    opt.stage_deadline = 5000ms;
    opt.max_settle_rounds = 2000;
    results[me] = stfw.exchange_resilient(all_to_all_sends(K, comm.rank()), opt);
    stats[me] = stfw.last_stats();
  });
  cluster.set_fault_injector(nullptr);

  EXPECT_GT(injector->counters().drops, 0);
  EXPECT_GT(injector->counters().duplicates, 0);
  std::int64_t total_retransmits = 0;
  std::int64_t total_dups_discarded = 0;
  for (Rank r = 0; r < K; ++r) {
    auto& res = results[static_cast<std::size_t>(r)];
    EXPECT_TRUE(res.fully_recovered) << "rank " << r;
    EXPECT_TRUE(res.failure.empty()) << "rank " << r << ": " << res.failure.to_string();
    sort_by_source(res.delivered);
    EXPECT_EQ(res.delivered, baseline[static_cast<std::size_t>(r)])
        << "payloads diverged from the fault-free baseline on rank " << r;
    total_retransmits += stats[static_cast<std::size_t>(r)].retransmits;
    total_dups_discarded += stats[static_cast<std::size_t>(r)].duplicate_frames_discarded;
  }
  EXPECT_GT(total_retransmits, 0) << "faults were injected but nothing was retransmitted";
  EXPECT_GT(total_dups_discarded, 0) << "duplicates were injected but none deduplicated";
}

TEST(ResilientExchange, RecoversFromTruncationDelayAndReorder) {
  const auto vpt = core::Vpt({2, 2, 2});
  const Rank K = vpt.size();
  const auto baseline = fault_free_baseline(vpt);
  auto injector = std::make_shared<FaultInjector>([] {
    FaultConfig cfg;
    cfg.seed = 42;
    cfg.truncate_prob = 0.15;  // checksum layer must reject these
    cfg.delay_prob = 0.15;
    cfg.delay_min = 1ms;
    cfg.delay_max = 4ms;
    cfg.reorder_prob = 0.15;
    return cfg;
  }());
  std::vector<ResilientExchangeResult> results(static_cast<std::size_t>(K));
  std::vector<LocalExchangeStats> stats(static_cast<std::size_t>(K));
  Cluster cluster(K);
  cluster.set_fault_injector(injector);
  cluster.run([&](Comm& comm) {
    StfwCommunicator stfw(comm, vpt);
    const auto me = static_cast<std::size_t>(comm.rank());
    ResilienceOptions opt;
    opt.retransmit_timeout = 5ms;
    opt.max_attempts = 10;
    results[me] = stfw.exchange_resilient(all_to_all_sends(K, comm.rank()), opt);
    stats[me] = stfw.last_stats();
  });
  cluster.set_fault_injector(nullptr);

  EXPECT_GT(injector->counters().truncations, 0);
  std::int64_t total_corrupt = 0;
  for (Rank r = 0; r < K; ++r) {
    auto& res = results[static_cast<std::size_t>(r)];
    EXPECT_TRUE(res.fully_recovered) << "rank " << r;
    sort_by_source(res.delivered);
    EXPECT_EQ(res.delivered, baseline[static_cast<std::size_t>(r)]) << "rank " << r;
    total_corrupt += stats[static_cast<std::size_t>(r)].corrupt_frames_discarded;
  }
  EXPECT_GT(total_corrupt, 0) << "truncations were injected but no frame failed its checksum";
}

/// Three messages from `me` to every rank, itself included, each with its
/// own payload: several submessages per (source, dest) pair.
std::vector<OutboundMessage> repeated_pair_sends(Rank K, Rank me) {
  std::vector<OutboundMessage> out;
  for (std::uint8_t copy = 0; copy < 3; ++copy)
    for (Rank d = 0; d < K; ++d) {
      std::vector<std::byte> bytes = pattern_bytes(me, d);
      bytes.push_back(static_cast<std::byte>(copy));
      out.push_back({d, std::move(bytes)});
    }
  return out;
}

TEST(ResilientExchange, RepeatedExchangesUnderFaultsStayIsolated) {
  // Delayed/duplicated stragglers of one exchange must never contaminate the
  // next one (epoch tagging + the flush/drain epilogue). A single attempt
  // per stage frame sends every dropped or slow one down the fallback, a
  // relay frame to the destination, and the deliveries must still come in
  // the plain exchange's order, unsorted: by source, then in send order,
  // since all messages of one (source, dest) pair travel one route in the
  // order they were sent.
  const auto vpt = core::Vpt({2, 2});
  const Rank K = vpt.size();
  std::vector<std::vector<InboundMessage>> baseline(static_cast<std::size_t>(K));
  Cluster plain(K);
  plain.run([&](Comm& comm) {
    StfwCommunicator stfw(comm, vpt);
    baseline[static_cast<std::size_t>(comm.rank())] =
        stfw.exchange(repeated_pair_sends(K, comm.rank()));
  });
  std::atomic<std::int64_t> fallbacks{0};
  auto injector = std::make_shared<FaultInjector>([] {
    FaultConfig cfg;
    cfg.seed = 7;
    cfg.drop_prob = 0.05;
    cfg.duplicate_prob = 0.05;
    cfg.delay_prob = 0.2;
    cfg.delay_min = 1ms;
    cfg.delay_max = 6ms;
    return cfg;
  }());
  Cluster cluster(K);
  cluster.set_fault_injector(injector);
  cluster.run([&](Comm& comm) {
    StfwCommunicator stfw(comm, vpt);
    ResilienceOptions opt;
    opt.retransmit_timeout = 4ms;
    opt.max_attempts = 1;
    // A dropped stage frame is never resent to the stage, so its receiver
    // waits out the stage deadline.
    opt.stage_deadline = 100ms;
    for (int round = 0; round < 5; ++round) {
      const auto res = stfw.exchange_resilient(repeated_pair_sends(K, comm.rank()), opt);
      EXPECT_TRUE(res.fully_recovered) << "round " << round;
      EXPECT_EQ(res.delivered, baseline[static_cast<std::size_t>(comm.rank())])
          << "round " << round << " rank " << comm.rank();
      fallbacks += stfw.last_stats().direct_fallback_submessages;
    }
  });
  cluster.set_fault_injector(nullptr);
  EXPECT_GT(fallbacks.load(), 0) << "no stage frame fell back";
}

TEST(ResilientExchange, InjectorOnAndOffAcrossRunsOfOneClusterDeliverEverything) {
  // Alternate fault-injected and fault-free runs on one Cluster: reordered,
  // duplicated and delayed traffic of a faulted run must leave nothing
  // behind for the next run, and every run must deliver everything.
  const core::Vpt vpt({2, 2});
  Cluster cluster(vpt.size());
  auto injector = std::make_shared<FaultInjector>([] {
    FaultConfig cfg;
    cfg.seed = 99;
    cfg.duplicate_prob = 0.2;
    cfg.reorder_prob = 0.2;
    cfg.delay_prob = 0.1;
    return cfg;
  }());
  for (int round = 0; round < 6; ++round) {
    cluster.set_fault_injector(round % 2 == 1 ? injector : nullptr);
    cluster.run([&](Comm& comm) {
      StfwCommunicator stfw(comm, vpt);
      const auto me = static_cast<Rank>(comm.rank());
      std::vector<OutboundMessage> sends;
      sends.push_back({(me + 1) % vpt.size(),
                       std::vector<std::byte>(16, static_cast<std::byte>(round + me))});
      const ResilientExchangeResult result = stfw.exchange_resilient(sends);
      EXPECT_TRUE(result.fully_recovered);
      ASSERT_EQ(result.delivered.size(), 1u);
      const auto from = (me + vpt.size() - 1) % vpt.size();
      EXPECT_EQ(result.delivered[0].source, from);
      EXPECT_EQ(result.delivered[0].bytes,
                std::vector<std::byte>(16, static_cast<std::byte>(round + from)));
    });
  }
  cluster.set_fault_injector(nullptr);
}

TEST(ResilientExchange, DirectFallbackDuplicateOfAcceptedFrameIsDiscarded) {
  // The at-least-once window (docs/fault_model.md, "Delivery semantics"): a
  // receiver stalled across the sender's whole retry budget eventually
  // accepts the stage frame, but only after the sender has declared it dead
  // and re-routed the payload directly. Both copies reach the destination;
  // the (source, id) filter must deliver exactly one.
  const auto vpt = core::Vpt({2});
  const auto baseline = fault_free_baseline(vpt);
  auto injector = std::make_shared<FaultInjector>([] {
    FaultConfig cfg;  // no message faults: the stall alone opens the window
    cfg.stall_rank = 1;
    cfg.stall_stage = 0;
    cfg.stall_duration = 400ms;
    return cfg;
  }());
  constexpr int kMaxAttempts = 4;
  std::vector<ResilientExchangeResult> results(2);
  std::vector<LocalExchangeStats> stats(2);
  // Rank 0's side-lane transmissions, by seq; only rank 0's thread writes.
  std::map<std::uint32_t, int> fallback_sends;
  int misaddressed = 0;
  Cluster cluster(2);
  cluster.set_fault_injector(injector);
  cluster.set_wire_tap([&](int source, int dest, int, std::span<const std::byte> bytes) {
    if (source != 0) return;
    const auto dec = core::decode_frame(bytes);  // settlement messages are no frames
    if (!dec || dec->header.kind != core::FrameKind::kRelay) return;
    if (dest != 1) ++misaddressed;
    ++fallback_sends[dec->header.seq];
  });
  cluster.run([&](Comm& comm) {
    StfwCommunicator stfw(comm, vpt);
    const auto me = static_cast<std::size_t>(comm.rank());
    ResilienceOptions opt;
    opt.retransmit_timeout = 4ms;       // full retry budget spans ~60ms,
    opt.max_attempts = kMaxAttempts;    // comfortably inside the 400ms stall
    results[me] = stfw.exchange_resilient(all_to_all_sends(2, comm.rank()), opt);
    stats[me] = stfw.last_stats();
  });
  cluster.set_fault_injector(nullptr);
  cluster.set_wire_tap(nullptr);

  ASSERT_EQ(injector->counters().stalls, 1);
  // The fallback is a kRelay frame addressed to the submessages' final
  // destination, and as the last resort it outlasts the attempt budget.
  EXPECT_FALSE(fallback_sends.empty()) << "rank 0 sent no fallback frame";
  EXPECT_EQ(misaddressed, 0) << "a fallback frame of rank 0 was not addressed to rank 1";
  for (const auto& [seq, sends] : fallback_sends)
    EXPECT_GT(sends, kMaxAttempts) << "fallback frame seq " << seq;
  for (Rank r = 0; r < 2; ++r) {
    auto& res = results[static_cast<std::size_t>(r)];
    EXPECT_TRUE(res.fully_recovered) << "rank " << r;
    EXPECT_TRUE(res.failure.empty()) << "rank " << r << ": " << res.failure.to_string();
    sort_by_source(res.delivered);
    EXPECT_EQ(res.delivered, baseline[static_cast<std::size_t>(r)]) << "rank " << r;
  }
  // Rank 0 gave up on the stalled receiver and re-routed directly; rank 1,
  // which had in fact accepted the original, discarded the extra copy.
  EXPECT_GT(stats[0].direct_fallback_submessages, 0);
  EXPECT_GT(stats[0].timeouts, 0);
  EXPECT_GT(stats[1].duplicate_submessages_discarded, 0);
}

TEST(ResilientExchange, TotalLossDegradesIntoFailureReport) {
  // 100% drop on every exchange tag: nothing can ever be delivered. The
  // exchange must neither hang nor crash — it reports what died, on every
  // rank, with a globally agreed fully_recovered == false.
  const auto vpt = core::Vpt({2, 2});
  const Rank K = vpt.size();
  auto injector = std::make_shared<FaultInjector>([] {
    FaultConfig cfg;
    cfg.drop_prob = 1.0;
    return cfg;
  }());
  std::vector<ResilientExchangeResult> results(static_cast<std::size_t>(K));
  std::vector<LocalExchangeStats> stats(static_cast<std::size_t>(K));
  Cluster cluster(K);
  cluster.set_fault_injector(injector);
  cluster.run([&](Comm& comm) {
    StfwCommunicator stfw(comm, vpt);
    const auto me = static_cast<std::size_t>(comm.rank());
    ResilienceOptions opt;
    opt.retransmit_timeout = 1ms;
    opt.max_attempts = 2;
    opt.stage_deadline = 60ms;
    opt.max_settle_rounds = 10;
    results[me] = stfw.exchange_resilient(all_to_all_sends(K, comm.rank()), opt);
    stats[me] = stfw.last_stats();
  });
  cluster.set_fault_injector(nullptr);

  for (Rank r = 0; r < K; ++r) {
    const auto& res = results[static_cast<std::size_t>(r)];
    const auto& st = stats[static_cast<std::size_t>(r)];
    EXPECT_FALSE(res.fully_recovered);
    EXPECT_TRUE(res.delivered.empty());
    // All three outbound payloads of this rank are definitely lost, and both
    // stages saw their neighbor frame never arrive.
    EXPECT_EQ(res.failure.lost.size(), 3u) << res.failure.to_string();
    EXPECT_EQ(res.failure.missing.size(), 2u) << res.failure.to_string();
    EXPECT_EQ(st.direct_fallback_submessages, 3);
    EXPECT_GT(st.timeouts, 0);
    EXPECT_GT(st.retransmits, 0);
    EXPECT_NE(res.failure.to_string().find("lost"), std::string::npos);
  }
}

TEST(ResilientExchange, RetransmittedFramesAreByteIdenticalToOriginals) {
  // Zero-copy pin: the resilient path no longer retains each frame's wire
  // image — a retransmit re-gathers it from the kept (header, submessages).
  // Serialization is deterministic, so every transmission of a given
  // (tag, sender, seq, member_epoch) data frame must be byte-for-byte
  // identical. The cluster wire tap fires before the injector rules, so the
  // dropped originals are captured alongside their retransmits.
  const auto vpt = core::Vpt({2, 2});
  const Rank K = vpt.size();
  auto injector = std::make_shared<FaultInjector>([] {
    FaultConfig cfg;
    cfg.seed = 4242;
    cfg.drop_prob = 0.3;
    return cfg;
  }());
  Cluster cluster(K);
  cluster.set_fault_injector(injector);

  using Key = std::tuple<int, std::int32_t, std::uint32_t, std::uint32_t>;
  core::Mutex mu;
  std::map<Key, std::vector<std::vector<std::byte>>> frames;
  cluster.set_wire_tap([&](int, int, int tag, std::span<const std::byte> bytes) {
    // Control collectives and acks are not data frames; decode filters them.
    const auto dec = core::decode_frame(bytes);
    if (!dec.has_value() || dec->header.kind != core::FrameKind::kData) return;
    const Key key{tag, dec->header.sender, dec->header.seq, dec->header.member_epoch};
    core::MutexLock lock(mu);
    frames[key].emplace_back(bytes.begin(), bytes.end());
  });

  cluster.run([&](Comm& comm) {
    StfwCommunicator stfw(comm, vpt);
    ResilienceOptions opt;
    opt.retransmit_timeout = 2ms;
    opt.max_attempts = 20;
    const auto res = stfw.exchange_resilient(all_to_all_sends(K, comm.rank()), opt);
    EXPECT_TRUE(res.fully_recovered);
  });
  cluster.set_wire_tap(nullptr);
  cluster.set_fault_injector(nullptr);

  ASSERT_GT(injector->counters().drops, 0) << "drop fault never engaged";
  std::size_t retransmissions = 0;
  for (const auto& [key, copies] : frames) {
    for (std::size_t i = 1; i < copies.size(); ++i) {
      ++retransmissions;
      EXPECT_EQ(copies[i], copies[0])
          << "retransmit " << i << " of frame (sender " << std::get<1>(key) << ", seq "
          << std::get<2>(key) << ") differs from the original";
    }
  }
  EXPECT_GT(retransmissions, 0u) << "no frame was ever retransmitted";
}

TEST(ResilienceOptions, RejectsOutOfRangeValues) {
  const std::vector<std::pair<const char*, void (*)(ResilienceOptions&)>> bad = {
      {"max_attempts", [](ResilienceOptions& o) { o.max_attempts = 0; }},
      {"retransmit_timeout", [](ResilienceOptions& o) { o.retransmit_timeout = 0ms; }},
      {"stage_deadline", [](ResilienceOptions& o) { o.stage_deadline = -1ms; }},
      {"max_settle_rounds", [](ResilienceOptions& o) { o.max_settle_rounds = 0; }},
  };
  Cluster cluster(4);
  for (const auto& [field, spoil] : bad) {
    SCOPED_TRACE(field);
    EXPECT_THROW(cluster.run([&](Comm& comm) {
                   StfwCommunicator stfw(comm, core::Vpt({2, 2}));
                   ResilienceOptions opt;
                   spoil(opt);
                   (void)stfw.exchange_resilient({}, opt);
                 }),
                 core::Error);
  }
  cluster.run([](Comm& comm) { comm.barrier(); });  // cluster stays usable
}

TEST(ResilientExchange, EnvironmentDrivenFaultMatrixEntry) {
  // The CI fault-matrix job drives this test through STFW_FAULT_* variables;
  // without them it runs one representative mid-rate configuration.
  FaultConfig cfg = FaultConfig::from_env();
  if (!core::env_present("STFW_FAULT_SEED")) {
    cfg.seed = 5;
    cfg.drop_prob = 0.03;
    cfg.duplicate_prob = 0.03;
    cfg.delay_prob = 0.05;
  }
  const auto vpt = core::Vpt({4, 2, 2});
  const Rank K = vpt.size();
  const auto baseline = fault_free_baseline(vpt);
  auto injector = std::make_shared<FaultInjector>(cfg);
  Cluster cluster(K);
  cluster.set_fault_injector(injector);
  cluster.run([&](Comm& comm) {
    StfwCommunicator stfw(comm, vpt);
    ResilienceOptions opt;
    opt.retransmit_timeout = 3ms;
    opt.max_attempts = 12;
    opt.stage_deadline = 5000ms;
    opt.max_settle_rounds = 2000;
    auto res = stfw.exchange_resilient(all_to_all_sends(K, comm.rank()), opt);
    EXPECT_TRUE(res.fully_recovered) << res.failure.to_string();
    sort_by_source(res.delivered);
    EXPECT_EQ(res.delivered, baseline[static_cast<std::size_t>(comm.rank())]);
  });
  cluster.set_fault_injector(nullptr);
}

}  // namespace
}  // namespace stfw
