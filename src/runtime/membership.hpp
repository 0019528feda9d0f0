#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "core/sync.hpp"
#include "core/thread_annotations.hpp"

/// \file membership.hpp
/// Cluster membership state for rank-failure survival.
///
/// A Cluster starts every run with all ranks alive at some **membership
/// epoch**. When a rank dies (a survivable injected crash — see
/// fault::RankCrashedError), the runtime marks it failed, which bumps the
/// epoch. Every epoch bump is a new, strictly newer view of who is alive;
/// frames on the resilient wire carry the sender's epoch so receivers can
/// detect decisions made against a stale view (docs/fault_model.md,
/// "Membership epochs and degraded mode").
///
/// The epoch itself is a lock-free atomic so hot paths can poll "did
/// membership change?" without taking a lock; the alive bitmap is
/// mutex-guarded and snapshot under the lock. The epoch is published with
/// release ordering *after* the bitmap update, so a reader that observes a
/// new epoch and then snapshots is guaranteed to see the corresponding (or a
/// newer) bitmap.

namespace stfw::runtime {

/// A consistent view of membership at one epoch.
struct MembershipSnapshot {
  std::uint32_t epoch = 0;
  std::vector<std::uint8_t> alive;  // indexed by rank; 1 = alive
  int alive_count = 0;
  int lowest_alive = -1;  // degraded settlement root; -1 if everyone is dead

  [[nodiscard]] bool is_alive(int rank) const {
    return rank >= 0 && rank < static_cast<int>(alive.size()) && alive[static_cast<std::size_t>(rank)] != 0;
  }
};

class Membership {
public:
  Membership() = default;
  Membership(const Membership&) = delete;
  Membership& operator=(const Membership&) = delete;

  /// Revive all ranks for a new run. The epoch is monotonic across runs —
  /// it never rewinds — so frames stranded from a previous degraded run can
  /// never masquerade as current.
  void reset(int num_ranks);

  /// Current membership version; cheap enough to poll per loop iteration.
  [[nodiscard]] std::uint32_t epoch() const noexcept {
    return epoch_.load(std::memory_order_acquire);
  }

  /// Lock-free fast path for the post hot path: false means every rank is
  /// alive and per-destination liveness checks can be skipped entirely.
  [[nodiscard]] bool any_failed() const noexcept {
    return any_failed_.load(std::memory_order_acquire);
  }

  [[nodiscard]] bool alive(int rank) const;
  [[nodiscard]] int alive_count() const;
  /// Overwrites `out` with the current view. `out` keeps its capacity, so
  /// a caller that re-snapshots on every epoch change allocates only once.
  void snapshot(MembershipSnapshot& out) const;

  /// Ranks marked failed since the last reset, ascending.
  [[nodiscard]] std::vector<std::int32_t> failed() const;

  /// Mark `rank` dead and bump the epoch. Returns false (and leaves the
  /// epoch alone) if it was already dead. Thread-safe; called from the
  /// dying rank's own unwind path.
  bool mark_failed(int rank);

private:
  mutable core::Mutex mu_;
  std::vector<std::uint8_t> alive_ STFW_GUARDED_BY(mu_);
  std::atomic<std::uint32_t> epoch_{0};
  std::atomic<bool> any_failed_{false};
};

}  // namespace stfw::runtime
