#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "core/sync.hpp"

/// \file fault_injector.hpp
/// Deterministic fault injection for the in-process runtime.
///
/// The paper's Algorithm 1 assumes every rank participates flawlessly in all
/// n stages; one lost message or stalled rank deadlocks the whole exchange.
/// FaultInjector makes those failure modes reproducible: plugged into
/// runtime::Cluster it intercepts every message post and may drop, delay,
/// duplicate, reorder or truncate it, and at stage boundaries it can stall
/// or crash a configured rank. All decisions come from per-sender RNG
/// streams derived from one seed, so a failing configuration replays
/// bit-identically. See docs/fault_model.md for the full fault model and
/// which layers recover from what.

namespace stfw::fault {

/// Thrown by a rank the injector was configured to crash (crash_rank /
/// crash_stage) — models a process failure at a deterministic site.
class FaultInjectedError : public core::Error {
public:
  explicit FaultInjectedError(const std::string& what) : core::Error(what) {}
};

/// The survivable flavor of an injected crash (crash_survivable = true):
/// runtime::Cluster catches this one at the rank-thread boundary, marks the
/// rank dead in the membership state, and lets the surviving ranks keep
/// running in degraded mode instead of aborting the whole cluster. See
/// docs/fault_model.md, "Membership epochs and degraded mode".
class RankCrashedError : public FaultInjectedError {
public:
  explicit RankCrashedError(const std::string& what) : FaultInjectedError(what) {}
};

struct FaultConfig {
  std::uint64_t seed = 1;

  // Per-message fault probabilities in [0, 1]; evaluated independently at
  // every post of a non-negative tag. Exchange traffic uses non-negative
  // tags and the runtime's own collectives negative ones, so control
  // collectives are never faulted (the loss model of a transport with a
  // reliable side channel). Truncation and delay compose with delivery;
  // drop, duplicate and reorder are mutually exclusive (first match wins).
  double drop_prob = 0.0;
  double duplicate_prob = 0.0;
  double reorder_prob = 0.0;   // delivered ahead of queued same-tag traffic
  double truncate_prob = 0.0;  // delivered with the tail chopped off
  double delay_prob = 0.0;     // held back, delivered by the monitor thread
  std::chrono::milliseconds delay_min{1};
  std::chrono::milliseconds delay_max{5};

  // Rank-level faults, triggered at the stage sites the exchange announces
  // via at_stage(). stage == -1 means "any stage".
  int stall_rank = -1;
  int stall_stage = -1;
  std::chrono::milliseconds stall_duration{0};
  int crash_rank = -1;
  int crash_stage = -1;
  /// >= 0: crash on the Nth at_stage() visit of crash_rank (counted across
  /// exchanges) instead of matching crash_stage. With an n-dimensional VPT,
  /// visit n + d is stage d of the *second* exchange — how the CI crash
  /// matrix, whose first exchange is a plain one, crashes a rank in the
  /// first or the second resilient exchange that follows it.
  int crash_visit = -1;
  /// false: a crash throws FaultInjectedError, which escapes the rank
  /// function and aborts the whole cluster (a fail-stop process group).
  /// true: it throws RankCrashedError instead, which the cluster absorbs —
  /// the rank is marked dead, the membership epoch bumps, and survivors
  /// continue in degraded mode.
  bool crash_survivable = false;

  /// Reads STFW_FAULT_SEED, STFW_FAULT_DROP, STFW_FAULT_DUP,
  /// STFW_FAULT_REORDER, STFW_FAULT_TRUNCATE, STFW_FAULT_DELAY (probability),
  /// STFW_FAULT_DELAY_MAX_MS, and the crash knobs STFW_FAULT_CRASH_RANK,
  /// STFW_FAULT_CRASH_STAGE and STFW_FAULT_CRASH_SURVIVABLE; unset variables
  /// keep their defaults. CI's fault matrix and crash matrix drive the test
  /// grids through these.
  static FaultConfig from_env();
};

/// What Cluster::post should do with one message.
struct MessageDecision {
  bool drop = false;
  bool duplicate = false;
  bool reorder = false;
  std::uint32_t truncate_to = UINT32_MAX;  // < size: deliver only a prefix
  std::chrono::milliseconds delay{0};      // > 0: hold back this long
};

/// Tallies of injected faults, for tests asserting that a run actually
/// exercised the recovery paths.
struct FaultCounters {
  std::int64_t drops = 0;
  std::int64_t duplicates = 0;
  std::int64_t reorders = 0;
  std::int64_t truncations = 0;
  std::int64_t delays = 0;
  std::int64_t stalls = 0;
  std::int64_t crashes = 0;
};

class FaultInjector {
public:
  explicit FaultInjector(FaultConfig config);

  const FaultConfig& config() const noexcept { return config_; }

  /// Decide the fate of a message about to be posted. Called by the cluster
  /// on the sender's thread; decisions for a given sender form one
  /// deterministic stream. The decision must be consumed — dropping it on
  /// the floor delivers a message the injector already counted as faulted.
  /// A negative tag is never faulted.
  [[nodiscard]] MessageDecision on_post(int source, int dest, int tag,
                                        std::size_t size_bytes);

  /// Stage-boundary site: stalls the calling thread or throws
  /// FaultInjectedError when `rank` matches the configured stall/crash rank
  /// and `stage` the configured stage (-1 matches any).
  void at_stage(int rank, int stage);

  [[nodiscard]] FaultCounters counters() const;

private:
  struct Stream {
    /// Seeding happens in the constructor (single-threaded by definition);
    /// all later draws go through mu.
    explicit Stream(std::uint64_t seed) : rng(seed) {}

    core::Mutex mu;  // a sender's posts are sequential; uncontended in practice
    std::mt19937_64 rng STFW_GUARDED_BY(mu);
  };

  FaultConfig config_;
  core::Mutex streams_mu_;
  // One per sender rank, grown lazily. The vector (not the pointed-to
  // streams) is guarded: stream_for hands out stable Stream references
  // whose own mu takes over.
  std::vector<std::unique_ptr<Stream>> streams_ STFW_GUARDED_BY(streams_mu_);

  std::atomic<std::int64_t> drops_{0};
  std::atomic<std::int64_t> duplicates_{0};
  std::atomic<std::int64_t> reorders_{0};
  std::atomic<std::int64_t> truncations_{0};
  std::atomic<std::int64_t> delays_{0};
  std::atomic<std::int64_t> stalls_{0};
  std::atomic<std::int64_t> crashes_{0};
  std::atomic<int> crash_rank_visits_{0};  // at_stage visits by crash_rank

  Stream& stream_for(int source);
};

}  // namespace stfw::fault
