// Satellite bugfixes of the dependency-driven exchange: the plain exchange
// used to take no deadline, so a rank lost mid-exchange left every peer
// blocked in an untimed stage wait forever (the per-stage barrier hid the
// hang in CI, where all ranks always arrive). Each stage wait now carries a
// Deadline derived from STFW_EXCHANGE_DEADLINE_MS and the failure surfaces
// as a named error. Also covers next_backoff, the overflow-safe doubling of
// the resilient retransmit backoff.

#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "core/vpt.hpp"
#include "fault/fault_injector.hpp"
#include "runtime/comm.hpp"
#include "runtime/stfw_communicator.hpp"

namespace stfw {
namespace {

using namespace std::chrono_literals;
using std::chrono::milliseconds;
using core::Rank;
using core::Vpt;

std::vector<OutboundMessage> ring_sends(Rank me, Rank K) {
  std::vector<OutboundMessage> sends;
  sends.push_back(OutboundMessage{(me + 1) % K, std::vector<std::byte>(32, std::byte{0x11})});
  return sends;
}

TEST(ExchangeDeadline, DefaultsToThirtySecondsAndIsSettable) {
  runtime::Cluster cluster(2);
  cluster.run([&](runtime::Comm& comm) {
    StfwCommunicator communicator(comm, Vpt({2}));
    EXPECT_EQ(communicator.exchange_deadline(), 30000ms);
    communicator.set_exchange_deadline(250ms);
    EXPECT_EQ(communicator.exchange_deadline(), 250ms);
  });
}

/// A non-survivable injected crash mid-exchange (after stage 0 completed)
/// must escape Cluster::run as the injected error — the peers' stage waits
/// are unblocked by the abort and filtered as secondary noise.
TEST(ExchangeDeadline, NonSurvivableCrashMidExchangeRaisesNamedError) {
  constexpr Rank K = 8;
  const Vpt vpt({4, 2});
  auto injector = std::make_shared<fault::FaultInjector>([] {
    fault::FaultConfig cfg;
    cfg.crash_rank = 1;
    cfg.crash_stage = 1;  // mid-exchange: stage 0 already ran
    cfg.crash_survivable = false;
    return cfg;
  }());
  runtime::Cluster cluster(K);
  cluster.set_fault_injector(injector);
  bool named = false;
  try {
    cluster.run([&](runtime::Comm& comm) {
      StfwCommunicator communicator(comm, vpt);
      communicator.set_exchange_deadline(5000ms);
      (void)communicator.exchange(ring_sends(static_cast<Rank>(comm.rank()), K));
    });
  } catch (const fault::FaultInjectedError&) {
    named = true;  // the primary cause, not a peer's secondary abort
  } catch (const core::MultiRankError& e) {
    // The crash racing a peer's own failure is acceptable as long as the
    // injected fault is named in the aggregate.
    named = std::string(e.what()).find("fault") != std::string::npos;
    EXPECT_TRUE(named) << e.what();
  }
  cluster.set_fault_injector(nullptr);
  EXPECT_TRUE(named) << "the injected crash completed silently";
  EXPECT_EQ(injector->counters().crashes, 1);
}

/// A rank that never joins the exchange (returned early; in a real
/// deployment: wedged or dead without membership noticing) must surface as
/// core::TimeoutError naming the member that never arrived at its stage
/// group — this hung forever before the stage waits carried deadlines.
TEST(ExchangeDeadline, LostRankSurfacesAsTimeoutNotHang) {
  constexpr Rank K = 8;
  const Vpt vpt({4, 2});
  runtime::Cluster cluster(K);
  bool timed_out = false;
  try {
    cluster.run([&](runtime::Comm& comm) {
      const auto me = static_cast<Rank>(comm.rank());
      if (me == 0) return;  // the lost rank
      StfwCommunicator communicator(comm, vpt);
      communicator.set_exchange_deadline(300ms);
      (void)communicator.exchange(ring_sends(me, K));
    });
  } catch (const core::MultiRankError& e) {
    timed_out = std::string(e.what()).find("[timeout:await_arrival]") != std::string::npos;
    EXPECT_TRUE(timed_out) << e.what();
    EXPECT_NE(std::string(e.what()).find("group member(s) 0 did not arrive"), std::string::npos)
        << e.what();
  } catch (const core::TimeoutError& e) {
    timed_out = true;
    EXPECT_EQ(e.op(), "await_arrival") << e.what();
    EXPECT_EQ(e.peer(), 0) << e.what();
  }
  EXPECT_TRUE(timed_out) << "the exchange completed despite a lost rank";
}

/// Deadline 0 must mean "wait forever" — the pre-deadline behaviour stays
/// reachable; a healthy exchange completes under it.
TEST(ExchangeDeadline, ZeroDeadlineStillCompletesHealthyExchanges) {
  constexpr Rank K = 8;
  const Vpt vpt({2, 2, 2});
  runtime::Cluster cluster(K);
  cluster.run([&](runtime::Comm& comm) {
    const auto me = static_cast<Rank>(comm.rank());
    StfwCommunicator communicator(comm, vpt);
    communicator.set_exchange_deadline(0ms);
    const auto inbox = communicator.exchange(ring_sends(me, K));
    ASSERT_EQ(inbox.size(), 1u);
    EXPECT_EQ(inbox[0].source, (me + K - 1) % K);
  });
}

// ---------------------------------------------------------------------------
// next_backoff: neither the 8 * retransmit_timeout cap nor the doubling may
// overflow into a negative or wrapped delay. An older version computed the
// cap itself from an overflowing 8 * retransmit_timeout.

TEST(NextBackoff, GrowsGeometricallyInsideTheCap) {
  EXPECT_EQ(next_backoff(10ms, 50ms, 10000ms), 20ms);
  EXPECT_EQ(next_backoff(200ms, 50ms, 10000ms), 400ms);  // exactly the cap
}

TEST(NextBackoff, ClampsToEightRetransmitTimeoutsOrStageDeadline) {
  EXPECT_EQ(next_backoff(300ms, 50ms, 10000ms), 400ms);  // 8 * rt
  EXPECT_EQ(next_backoff(300ms, 50ms, 250ms), 250ms);    // stage deadline
}

TEST(NextBackoff, HugeCurrentBackoffClampsInsteadOfWrapping) {
  const auto huge = milliseconds{std::numeric_limits<milliseconds::rep>::max() / 2 + 1};
  EXPECT_EQ(next_backoff(huge, 50ms, 10000ms), 400ms);  // 2 * huge would overflow
}

TEST(NextBackoff, MaxAccumulatedBackoffDoesNotOverflow) {
  const auto big = milliseconds{std::numeric_limits<milliseconds::rep>::max()};
  const auto b = next_backoff(big, big, big);
  EXPECT_GE(b.count(), 0);
  EXPECT_LE(b, big);  // the 8x term is skipped rather than overflowed
}

TEST(NextBackoff, NegativeStageDeadlineFloorsAtZero) {
  EXPECT_EQ(next_backoff(100ms, 50ms, -5ms), 0ms);
}

}  // namespace
}  // namespace stfw
