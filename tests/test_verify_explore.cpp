#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/env.hpp"
#include "core/error.hpp"
#include "core/vpt.hpp"
#include "fault/fault_injector.hpp"
#include "runtime/comm.hpp"
#include "runtime/stfw_communicator.hpp"
#include "verify/explore.hpp"
#include "verify/oracles.hpp"

/// Schedule-exploration tests: the exhaustive small-config sweep (K=4, n=2
/// messages per rank, preemption bound 2) and seeded random sweeps, with the
/// protocol oracles checked at every terminal state; deadlock detection
/// cross-checked against the runtime's own watchdog; no frame loss under an
/// injected drop fault in resilient mode.

namespace stfw {
namespace {

using core::Rank;
using core::Vpt;

/// Random-sweep width: CI sets STFW_VERIFY_SCHEDULES=64, the local default
/// keeps the suite quick.
int schedule_count() {
  return static_cast<int>(core::env_int("STFW_VERIFY_SCHEDULES", 24));
}

std::vector<std::byte> encode(Rank src, Rank dest, std::uint32_t salt) {
  std::vector<std::byte> b(12);
  std::memcpy(b.data(), &src, 4);
  std::memcpy(b.data() + 4, &dest, 4);
  std::memcpy(b.data() + 8, &salt, 4);
  return b;
}

/// The issue's small config: K ranks, each sending n = 2 messages (to its
/// two successors), all routed through the store-and-forward exchange.
std::vector<std::vector<OutboundMessage>> two_message_sendsets(Rank K) {
  std::vector<std::vector<OutboundMessage>> sets(static_cast<std::size_t>(K));
  std::uint32_t salt = 0;
  for (Rank i = 0; i < K; ++i)
    for (Rank step = 1; step <= 2; ++step) {
      const Rank dest = (i + step) % K;
      sets[static_cast<std::size_t>(i)].push_back(
          OutboundMessage{dest, encode(i, dest, ++salt)});
    }
  return sets;
}

/// Body + oracle pair running one exchange over `vpt` per schedule and
/// recording the observation the delivery oracle checks.
struct ExchangeHarness {
  Vpt vpt;
  std::vector<std::vector<OutboundMessage>> sends;
  verify::ExchangeObservation obs;

  explicit ExchangeHarness(Vpt v)
      : vpt(std::move(v)), sends(two_message_sendsets(vpt.size())) {}

  void run_once() {
    const Rank K = vpt.size();
    obs.reset(K);
    obs.sends = sends;
    runtime::Cluster cluster(K);
    cluster.run([&](runtime::Comm& comm) {
      StfwCommunicator communicator(comm, vpt);
      obs.delivered[static_cast<std::size_t>(comm.rank())] =
          communicator.exchange(sends[static_cast<std::size_t>(comm.rank())]);
    });
  }

  verify::ExploreBody body() {
    return [this] { run_once(); };
  }
  verify::ExploreOracle oracle() {
    return [this] { return verify::check_exchange_delivery(obs); };
  }
};

TEST(VerifyExplore, ExhaustiveSmallConfigIsCleanAndBranches) {
  ExchangeHarness h(Vpt::direct(4));
  verify::ExploreConfig cfg;
  cfg.mode = verify::ExploreConfig::Mode::kExhaustive;
  cfg.max_preemptions = 2;
  cfg.max_schedules = 20000;
  cfg.label = "exhaustive-k4n2";
  const verify::ExploreResult res = verify::explore(cfg, h.body(), h.oracle());
  EXPECT_TRUE(res.clean()) << res.summary();
  EXPECT_FALSE(res.truncated) << "preemption-bounded space not exhausted after "
                              << res.schedules_run << " schedules";
  // A sweep that never branched would be one schedule checked once.
  EXPECT_GT(res.schedules_run, 1u) << "no branch points were enumerated";
}

TEST(VerifyExplore, BarrierFreeOverlapExhaustiveSweepIsClean) {
  // Tentpole sweep: the dependency-driven (barrier-free) stage progression
  // over a forwarding VPT with the overlap hook armed — no global barrier
  // delimits the stages, so this exhaustively checks that per-neighbor frame
  // counting alone keeps delivery exactly-once and payload-conserving on
  // every preemption-bounded interleaving.
  const Vpt vpt = Vpt::balanced(4, 2);
  const auto sends = two_message_sendsets(4);
  verify::ExchangeObservation obs;
  std::atomic<std::int64_t> hook_calls{0};
  const auto body = [&] {
    obs.reset(4);
    obs.sends = sends;
    runtime::Cluster cluster(4);
    cluster.run([&](runtime::Comm& comm) {
      StfwCommunicator communicator(comm, vpt);
      const OverlapHook hook = [&] { hook_calls.fetch_add(1); };
      obs.delivered[static_cast<std::size_t>(comm.rank())] =
          communicator.exchange(sends[static_cast<std::size_t>(comm.rank())], hook);
    });
  };
  const auto oracle = [&] { return verify::check_exchange_delivery(obs); };
  verify::ExploreConfig cfg;
  cfg.mode = verify::ExploreConfig::Mode::kExhaustive;
  cfg.max_preemptions = 2;
  cfg.max_schedules = 20000;
  cfg.label = "barrier-free-overlap-k4n2";
  const verify::ExploreResult res = verify::explore(cfg, body, oracle);
  EXPECT_TRUE(res.clean()) << res.summary();
  EXPECT_GT(res.schedules_run, 1u) << "no branch points were enumerated";
  EXPECT_GT(hook_calls.load(), 0);
  EXPECT_EQ(hook_calls.load() % 4, 0) << "hook must fire exactly once per rank per schedule";
}

/// The delivery oracle over consecutive exchanges of one schedule.
std::string check_each(const std::vector<verify::ExchangeObservation>& obs) {
  for (std::size_t i = 0; i < obs.size(); ++i)
    if (std::string v = verify::check_exchange_delivery(obs[i]); !v.empty())
      return "exchange " + std::to_string(i) + ": " + v;
  return {};
}

TEST(VerifyExplore, BackToBackExchangesExhaustiveSweepIsClean) {
  // Two exchanges per schedule on one communicator. A rank that finishes the
  // first early posts second-exchange frames while their receiver still
  // waits on a first-exchange tag: such a post must neither complete that
  // wait nor be lost, which is where a premature or missing wakeup of the
  // mailbox wait protocol would show.
  const Vpt vpt = Vpt::direct(4);
  const auto sends = two_message_sendsets(4);
  std::vector<verify::ExchangeObservation> obs(2);
  const auto body = [&] {
    for (verify::ExchangeObservation& o : obs) {
      o.reset(4);
      o.sends = sends;
    }
    runtime::Cluster cluster(4);
    cluster.run([&](runtime::Comm& comm) {
      const auto me = static_cast<std::size_t>(comm.rank());
      StfwCommunicator communicator(comm, vpt);
      for (verify::ExchangeObservation& o : obs)
        o.delivered[me] = communicator.exchange(sends[me]);
    });
  };
  verify::ExploreConfig cfg;
  cfg.mode = verify::ExploreConfig::Mode::kExhaustive;
  cfg.max_preemptions = 2;
  cfg.max_schedules = 20000;
  cfg.label = "back-to-back-exhaustive-k4n2";
  const verify::ExploreResult res =
      verify::explore(cfg, body, [&] { return check_each(obs); });
  EXPECT_TRUE(res.clean()) << res.summary();
  EXPECT_GT(res.schedules_run, 1u) << "no branch points were enumerated";
}

TEST(VerifyExplore, SeededRandomSchedulesOverForwardingVptAreClean) {
  // balanced(4, 2) routes through intermediate ranks — the store-and-forward
  // path proper, not just direct sends.
  ExchangeHarness h(Vpt::balanced(4, 2));
  verify::ExploreConfig cfg;
  cfg.mode = verify::ExploreConfig::Mode::kRandom;
  cfg.schedules = schedule_count();
  cfg.base_seed = 1;
  cfg.label = "random-k4-forwarding";
  const verify::ExploreResult res = verify::explore(cfg, h.body(), h.oracle());
  EXPECT_TRUE(res.clean()) << res.summary();
  EXPECT_EQ(res.schedules_run, static_cast<std::uint64_t>(cfg.schedules));
}

TEST(VerifyExplore, ResilientModeLosesNoFramesUnderDrops) {
  const Rank K = 3;
  const auto sends = two_message_sendsets(K);
  verify::ExchangeObservation obs;
  std::atomic<int> unrecovered{0};

  const auto body = [&] {
    obs.reset(K);
    obs.sends = sends;
    runtime::Cluster cluster(K);
    fault::FaultConfig fc;
    fc.seed = 1234;
    fc.drop_prob = 0.15;
    cluster.set_fault_injector(std::make_shared<fault::FaultInjector>(fc));
    cluster.run([&](runtime::Comm& comm) {
      StfwCommunicator communicator(comm, Vpt::direct(K));
      ResilienceOptions opts;
      opts.retransmit_timeout = std::chrono::milliseconds(5);
      opts.stage_deadline = std::chrono::milliseconds(500);
      const ResilientExchangeResult result =
          communicator.exchange_resilient(sends[static_cast<std::size_t>(comm.rank())],
                                          opts);
      obs.delivered[static_cast<std::size_t>(comm.rank())] = result.delivered;
      if (!result.fully_recovered) unrecovered.fetch_add(1);
    });
  };
  // No-frame-loss oracle: whenever the protocol claims full recovery, the
  // delivered multiset must equal the posted multiset despite the drops.
  const auto oracle = [&]() -> std::string {
    if (unrecovered.load() != 0) return {};  // loss was *reported*, not silent
    return verify::check_exchange_delivery(obs);
  };

  verify::ExploreConfig cfg;
  cfg.mode = verify::ExploreConfig::Mode::kRandom;
  cfg.schedules = std::min(schedule_count(), 8);
  cfg.base_seed = 100;
  cfg.label = "resilient-drops";
  const verify::ExploreResult res = verify::explore(cfg, body, oracle);
  EXPECT_TRUE(res.clean()) << res.summary();
}

TEST(VerifyExplore, BackToBackResilientExchangesNeverRetransmit) {
  // Two resilient exchanges per schedule, no injector. A rank that leaves the
  // first exchange's epilogue early posts second-exchange frames under the
  // same fixed tags while slower peers still drain the first. Were those
  // frames discarded there, the logical clock would run into the retransmit
  // timeout; on a clean transport nothing may ever be retransmitted.
  const Vpt vpt({2, 2});
  const Rank K = vpt.size();
  const auto sends = two_message_sendsets(K);
  std::vector<verify::ExchangeObservation> obs(2);
  std::atomic<std::int64_t> retransmits{0};
  const auto body = [&] {
    for (verify::ExchangeObservation& o : obs) {
      o.reset(K);
      o.sends = sends;
    }
    retransmits.store(0);
    runtime::Cluster cluster(K);
    cluster.run([&](runtime::Comm& comm) {
      const auto me = static_cast<std::size_t>(comm.rank());
      StfwCommunicator communicator(comm, vpt);
      for (verify::ExchangeObservation& o : obs) {
        o.delivered[me] = communicator.exchange_resilient(sends[me]).delivered;
        retransmits.fetch_add(communicator.last_stats().retransmits);
      }
    });
  };
  const auto oracle = [&]() -> std::string {
    if (const std::int64_t n = retransmits.load(); n != 0)
      return std::to_string(n) + " retransmit(s) on a fault-free transport";
    return check_each(obs);
  };
  verify::ExploreConfig cfg;
  cfg.mode = verify::ExploreConfig::Mode::kRandom;
  cfg.schedules = schedule_count();
  cfg.base_seed = 300;
  cfg.label = "resilient-back-to-back-k4";
  const verify::ExploreResult res = verify::explore(cfg, body, oracle);
  EXPECT_TRUE(res.clean()) << res.summary();
  EXPECT_EQ(res.schedules_run, static_cast<std::uint64_t>(cfg.schedules));
}

TEST(VerifyExplore, UnmatchedRecvIsReportedAsDeadlock) {
  // Rank 0 receives a message nobody sends; no watchdog is armed, so the
  // engine itself must detect the terminal block and abort the schedule.
  const auto body = [] {
    runtime::Cluster cluster(2);
    cluster.run([](runtime::Comm& comm) {
      if (comm.rank() == 0) comm.recv(1, /*tag=*/9);
    });
  };
  verify::ExploreConfig cfg;
  cfg.mode = verify::ExploreConfig::Mode::kRandom;
  cfg.schedules = 2;
  cfg.base_seed = 5;
  cfg.label = "deadlock-no-watchdog";
  const verify::ExploreResult res = verify::explore(cfg, body);
  ASSERT_FALSE(res.failures.empty()) << "stuck schedule not flagged";
  for (const verify::ScheduleFailure& f : res.failures) {
    EXPECT_EQ(f.kind, "deadlock") << f.to_string();
    EXPECT_NE(f.detail.find("deadlock"), std::string::npos) << f.detail;
  }
}

TEST(VerifyExplore, WatchdogDeadlockErrorFiresDeterministically) {
  // Same stuck receive, but with the runtime watchdog armed: under the
  // logical clock its window elapses via monitor ticks, so every schedule
  // must surface core::DeadlockError through the normal runtime path before
  // the engine has anything to abort.
  std::atomic<int> watchdog_fired{0};
  const auto body = [&] {
    runtime::Cluster cluster(2);
    cluster.set_watchdog(std::chrono::milliseconds(50));
    try {
      cluster.run([](runtime::Comm& comm) {
        if (comm.rank() == 0) comm.recv(1, /*tag=*/9);
      });
    } catch (const core::DeadlockError& e) {
      watchdog_fired.fetch_add(1);
      EXPECT_NE(std::string(e.what()).find("rank 0"), std::string::npos) << e.what();
    }
  };
  verify::ExploreConfig cfg;
  cfg.mode = verify::ExploreConfig::Mode::kRandom;
  cfg.schedules = 4;
  cfg.base_seed = 11;
  cfg.label = "deadlock-watchdog";
  const verify::ExploreResult res = verify::explore(cfg, body);
  EXPECT_TRUE(res.clean()) << res.summary();
  EXPECT_EQ(watchdog_fired.load(), 4)
      << "watchdog missed the deadlock on some schedules";
}

}  // namespace
}  // namespace stfw
