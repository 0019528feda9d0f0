#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "core/sync.hpp"
#include "core/verify_hooks.hpp"
#include "membership.hpp"

/// \file comm.hpp
/// In-process message-passing runtime.
///
/// The paper's algorithm is written against MPI; this environment has no MPI
/// installation, so the runtime substitutes an in-process cluster: each rank
/// is a thread, each rank owns a tagged mailbox, sends are buffered
/// (enqueue-and-return, like MPI_Bsend), receives block until a matching
/// message arrives. Semantics relied upon by the store-and-forward code:
///
///  * point-to-point ordering: two messages from the same source with the
///    same tag arrive in send order;
///  * barrier(): collective; all sends issued before a rank enters the
///    barrier are visible to drain() calls made after it returns;
///  * stage arrival: once await_arrival() returns, every message each member
///    of the group sent to the caller before its arrive() is queued in the
///    caller's mailbox — a send is queued by the time it returns, so a round
///    that every member has arrived at is NBX's matched-synchronous-send
///    condition, and drain(tag) then takes exactly those messages.
///
/// This is deliberately a small, honest subset of MPI — enough to run
/// Algorithm 1 exactly as each MPI rank would run it.
///
/// Mailbox wait protocol (docs/performance.md): a mailbox is one locked
/// deque, and its owner rank is the only thread that ever waits on it. A
/// blocking receive records under the mailbox mutex what it waits for — any
/// message or one (source, tag) — and a post notifies only when its message
/// completes that wait. A stage arrival releases each waiting member with
/// one such post, so a stage costs a waiting rank one wakeup.
///
/// Resilience plumbing (docs/fault_model.md):
///
///  * every blocking primitive has a deadline overload that throws
///    core::TimeoutError instead of hanging, naming the peer waited for;
///  * Comm is the only source of two facts the resilient exchange needs:
///    who died (membership(), and a death ends every wait_message() made
///    under the older epoch) and which exchange a frame belongs to (each
///    exchange posts under tags of its own from reserve_tags());
///  * an optional per-cluster watchdog detects the all-ranks-blocked
///    deadlock and reports which rank/tag each thread is stuck on;
///  * a fault::FaultInjector can be plugged in to drop, delay, duplicate,
///    reorder or truncate messages at the post site — the adversary the
///    resilient exchange mode is tested against. Point-to-point ordering
///    and the barrier visibility guarantee above hold only for traffic the
///    injector leaves alone.

namespace stfw::fault {
class FaultInjector;
}

namespace stfw::runtime {

inline constexpr int kAnySource = -1;

struct Message {
  int source = -1;
  int tag = 0;
  std::vector<std::byte> data;
#if STFW_VERIFY_ENABLED
  std::uint64_t verify_id = 0;  // stfw-verify message identity (send edge id)
#endif
};

/// Absolute time budget for a blocking primitive. Deadline::never() blocks
/// indefinitely (the pre-fault-layer behaviour). Time is read through
/// verify::verify_now() so that under the stfw-verify scheduler deadlines
/// follow the deterministic logical clock; in normal builds that is exactly
/// steady_clock::now().
struct Deadline {
  std::chrono::steady_clock::time_point at = std::chrono::steady_clock::time_point::max();

  static Deadline never() noexcept { return Deadline{}; }
  static Deadline in(std::chrono::milliseconds d) {
    return Deadline{verify::verify_now() + d};
  }
  bool is_never() const noexcept {
    return at == std::chrono::steady_clock::time_point::max();
  }
  bool expired() const noexcept {
    return !is_never() && verify::verify_now() >= at;
  }
};

class Cluster;

/// Per-rank communicator handle. Valid only inside Cluster::run's callback,
/// on the thread that received it.
class Comm {
public:
  int rank() const noexcept { return rank_; }
  int size() const noexcept;

  /// Buffered send: enqueues `data` into dest's mailbox and returns. Subject
  /// to the cluster's fault injector, if any.
  void send(int dest, int tag, std::vector<std::byte> data);

  /// Blocking receive of the first message matching (source, tag);
  /// source may be kAnySource. The deadline overload throws
  /// core::TimeoutError when it expires first.
  Message recv(int source, int tag);
  Message recv(int source, int tag, Deadline deadline);

  /// Appends all messages with `tag` currently in the mailbox to `out`,
  /// sorted by source (then arrival order) among themselves, after what
  /// `out` held. Non-blocking; complete after a barrier or an
  /// await_arrival() that orders it after the sends of interest.
  void drain(int tag, std::vector<Message>& out);

  /// Stage arrival, a non-blocking barrier over `group` (NBX's ibarrier).
  /// Every member passes the same ascending group, itself included, and the
  /// same tag in [0, 2^29), unused by the group's earlier rounds in this
  /// run. arrive() returns at once; await_arrival(), called after the
  /// caller's own arrive(), blocks until every member has arrived at that
  /// (tag, group) round, and throws core::TimeoutError naming every absent
  /// member when the deadline expires, or as soon as an absent member is
  /// dead or has returned from its run function. run() resets the rounds.
  void arrive(std::span<const int> group, int tag);
  void await_arrival(std::span<const int> group, int tag,
                     Deadline deadline = Deadline::never());

  /// Reserves `count` consecutive tags in [0, 2^28), starting at a multiple
  /// of `count`, that no earlier reservation of this rank in this run holds
  /// (until the range wraps). Ranks making the same sequence of
  /// reservations get the same tags, so collectives on different objects
  /// sharing one run never share a tag — the role of MPI's context ids.
  int reserve_tags(int count);

  /// True iff a message matching (source, tag) is queued.
  bool probe(int source, int tag);

  /// Blocks until any message is queued in this rank's mailbox, the
  /// deadline expires, or membership().epoch() differs from `seen_epoch`
  /// (at once if it already does); returns whether the mailbox is
  /// non-empty. A caller that re-reads membership whenever this returns
  /// cannot sleep through a death. Poll primitive for protocols that
  /// multiplex several tags (the resilient exchange's event loop).
  bool wait_message(Deadline deadline, std::uint32_t seen_epoch);

  /// Collective synchronization over all ranks of the cluster. The deadline
  /// overload throws core::TimeoutError when the barrier does not complete
  /// in time (some peer failed to arrive).
  void barrier();
  void barrier(Deadline deadline);

  /// Convenience collective: every rank contributes `mine`; returns all
  /// contributions indexed by rank. Built on send/recv via rank 0. The
  /// deadline applies to every internal receive.
  std::vector<std::vector<std::byte>> allgather(std::vector<std::byte> mine);
  std::vector<std::vector<std::byte>> allgather(std::vector<std::byte> mine,
                                                Deadline deadline);

  /// Immediately delivers every fault-injector-delayed message to its
  /// mailbox. Protocol epilogues call this (between barriers) so no injected
  /// delay can leak a message into a later exchange. No-op without faults.
  void flush_delayed();

  /// The cluster's fault injector, or nullptr. Exchange implementations call
  /// its stage sites (stall/crash injection) from here.
  fault::FaultInjector* fault_injector() const noexcept;

  /// The cluster's membership state (who is alive, at which epoch). The
  /// degraded exchange path polls Membership::epoch() to detect rank deaths
  /// mid-protocol.
  [[nodiscard]] const Membership& membership() const noexcept;

private:
  friend class Cluster;
  Comm(Cluster& cluster, int rank) : cluster_(&cluster), rank_(rank) {}

  Cluster* cluster_;
  int rank_;
  int next_tag_ = 0;
};

/// A fixed-size set of ranks executing a common function on private threads.
class Cluster {
public:
  explicit Cluster(int num_ranks);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  int size() const noexcept { return num_ranks_; }

  /// Run fn(comm) on every rank; returns when all ranks finish.
  ///
  /// Error aggregation: secondary failures (ClusterAbortedError — a rank
  /// unblocked because a peer threw) are discarded. If exactly one primary
  /// error remains it is rethrown with its original type; if several ranks
  /// failed independently, a core::MultiRankError summarizing every failing
  /// rank is thrown instead. May be called repeatedly; mailboxes must be
  /// empty in between (checked). Messages still delayed by the fault
  /// injector when run() returns are dropped.
  void run(const std::function<void(Comm&)>& fn);

  /// Plug in (or remove, with nullptr) a fault injector. Must not be called
  /// while run() is active.
  void set_fault_injector(std::shared_ptr<fault::FaultInjector> injector);
  const std::shared_ptr<fault::FaultInjector>& fault_injector() const noexcept {
    return injector_;
  }

  /// Arm the deadlock watchdog: a monitor thread observes the cluster during
  /// run() and, when every active rank has been blocked in recv / barrier /
  /// wait_message with no message delivered for at least `window`, aborts
  /// the run with a core::DeadlockError reporting where each rank is stuck
  /// (thrown on the lowest blocked rank; peers see ClusterAbortedError).
  /// window == 0 disables (default). Must not be called during run().
  void set_watchdog(std::chrono::milliseconds window) { watchdog_window_ = window; }

  /// Membership state: all ranks alive at the start of every run; a rank
  /// that throws fault::RankCrashedError is marked dead (epoch bump) and the
  /// run continues on the survivors. Membership::failed() after run() tells
  /// the caller who died.
  [[nodiscard]] const Membership& membership() const noexcept { return membership_; }

  /// Test-support counter: posts during the current or last run() that
  /// woke a blocked receiver because they completed its wait. Wakeups for
  /// abort, rank death, a rank's return and the watchdog are not counted.
  [[nodiscard]] std::uint64_t mailbox_wakeups() const noexcept {
    return wakeups_.load(std::memory_order_relaxed);
  }

  /// Test-support observability: called on the sender's thread for every
  /// post *before* the fault injector rules on it, so the tap sees dropped
  /// transmissions and their retransmits alike (how the byte-identity
  /// regression pins retransmitted frames to the originals). The callback
  /// must be thread-safe — posts from different ranks invoke it
  /// concurrently — and must copy the bytes if it keeps them. nullptr
  /// removes the tap. Must not be called during run().
  void set_wire_tap(
      std::function<void(int source, int dest, int tag, std::span<const std::byte>)> tap) {
    wire_tap_ = std::move(tap);
  }

private:
  friend class Comm;

  /// What a mailbox's owner thread is blocked on. Only the owner waits on
  /// its mailbox, so one record per mailbox suffices.
  struct Waiter {
    enum class Kind : std::uint8_t { kNone, kAny, kRecv };
    Kind kind = Kind::kNone;
    int source = kAnySource;  // kRecv
    int tag = 0;              // kRecv
    /// kRecv of an await_arrival(): the round's members (the caller's
    /// span, alive while it waits); empty for every other wait.
    std::span<const int> group;

    /// True iff `m`, just queued, completes the wait.
    bool completed_by(const Message& m) const;
  };

  /// An open stage-arrival round: its key and which members arrived.
  struct ArrivalRound {
    int tag = 0;
    std::vector<int> members;           // ascending
    std::vector<std::uint8_t> arrived;  // per member
    std::size_t count = 0;
  };

  /// A rank's mailbox, the open arrival rounds of the groups whose lowest
  /// rank it is (under their own mutex), and whether its run function has
  /// returned this run.
  struct Mailbox {
    core::Mutex mu;
    core::CondVar cv;
    std::deque<Message> queue STFW_GUARDED_BY(mu);
    Waiter waiter STFW_GUARDED_BY(mu);
    core::Mutex rounds_mu;
    std::vector<ArrivalRound> rounds STFW_GUARDED_BY(rounds_mu);
    std::atomic<bool> returned{false};
  };

  /// What a rank's thread is doing, as seen by the watchdog.
  struct BlockInfo {
    enum class Kind : std::uint8_t { kRunning, kRecv, kArrival, kBarrier, kWait };
    Kind kind = Kind::kRunning;
    int source = 0;
    int tag = 0;
    std::chrono::steady_clock::time_point since{};
  };

  struct DelayedMessage {
    std::chrono::steady_clock::time_point release;
    int dest;
    Message msg;
  };

  void post(int dest, Message msg);
  void post_raw(int dest, Message msg, bool to_front = false);
  /// A non-empty `group` makes this await_arrival: the wait for the release
  /// post of the round that `tag` names, failing early on absent members.
  Message blocking_recv(int me, int source, int tag, Deadline deadline,
                        std::span<const int> group = {});
  void arrive(int me, std::span<const int> group, int tag);
  /// The error rank `me`'s wait on the (tag, group) round fails with: an
  /// absent member that died or returned, or once `expired` every absent
  /// member; nullopt while the round can complete or once it closed. The
  /// waiter has arrived, so the round is open or closed.
  std::optional<core::TimeoutError> stranded(int me, std::span<const int> group, int tag,
                                             bool expired, long long waited_ms);
  void drain(int me, int tag, std::vector<Message>& out);
  bool probe(int me, int source, int tag);
  bool wait_message(int me, Deadline deadline, std::uint32_t seen_epoch);
  void barrier_wait(int me, Deadline deadline);
  void abort_all();
  void flush_delayed();

  /// Sleeps until a post completes the wait the caller just recorded in
  /// mb.waiter, a teardown/death/return broadcast, or the deadline; then
  /// clears the record. The caller rescans the queue either way.
  static void sleep_on(Mailbox& mb, core::MutexLock& lock, Deadline deadline)
      STFW_REQUIRES(mb.mu);

  /// Absorbs a survivable crash on rank `me`'s own unwind path: marks it
  /// dead, discards its mailbox, releases any barrier now satisfied by the
  /// survivors alone, and wakes every blocked thread to re-evaluate.
  void rank_died(int me);
  /// Records that rank `me`'s run function returned, and wakes every
  /// arrival wait it may have stranded: a rank that left can never arrive.
  void mark_returned(int me);
  /// Release the barrier if every *alive* rank has arrived. Dead ranks never
  /// arrive, so the release target is the live count, re-evaluated on every
  /// arrival and on every death.
  void maybe_release_barrier() STFW_REQUIRES(barrier_mu_);

  /// Watchdog bookkeeping; both are no-ops on runs without a watchdog.
  void note_progress() noexcept {
    if (watchdog_run_) progress_.fetch_add(1, std::memory_order_relaxed);
  }
  void set_block_state(int me, BlockInfo::Kind kind, int source = 0, int tag = 0)
      STFW_EXCLUDES(block_mu_);
  /// Checks deadlock/abort flags from inside a blocking primitive; throws
  /// DeadlockError on the designated victim rank, ClusterAbortedError
  /// otherwise. Returns normally when neither flag is set.
  void throw_if_torn_down(int me, const char* op) STFW_EXCLUDES(block_mu_);
  /// The throwing tail of throw_if_torn_down, for call sites that already
  /// know a teardown flag is set (lets TSA see the path as terminal).
  [[noreturn]] void throw_torn_down(int me, const char* op) STFW_EXCLUDES(block_mu_);

  void monitor_loop();
  void check_deadlock(std::chrono::steady_clock::time_point now);

  int num_ranks_;
  std::atomic<bool> aborted_{false};
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  Membership membership_;

  std::atomic<std::uint64_t> wakeups_{0};
  // Ranks inside await_arrival() and ranks whose run function returned,
  // this run. mark_returned skips its wake pass while no rank waits for an
  // arrival, and an arrival wait reads the returned ranks only once one
  // exists: a healthy run pays for either only at its end.
  std::atomic<int> arrival_waiters_{0};
  std::atomic<int> returned_count_{0};

  // Reusable two-phase barrier.
  core::Mutex barrier_mu_;
  core::CondVar barrier_cv_;
  int barrier_count_ STFW_GUARDED_BY(barrier_mu_) = 0;
  std::uint64_t barrier_generation_ STFW_GUARDED_BY(barrier_mu_) = 0;

  // Fault layer.
  std::shared_ptr<fault::FaultInjector> injector_;
  // Set quiescently (before run()), only read during it — no guard needed.
  std::function<void(int, int, int, std::span<const std::byte>)> wire_tap_;
  core::Mutex delayed_mu_;
  std::vector<DelayedMessage> delayed_ STFW_GUARDED_BY(delayed_mu_);

  // Watchdog state. watchdog_run_ is decided quiescently at the top of every
  // run(), before any rank thread exists, and never changes mid-run — rank
  // threads read it data-race-free via the thread-creation happens-before
  // edge. Unarmed runs skip block_state_ and progress_ entirely: only
  // check_deadlock reads them.
  std::chrono::milliseconds watchdog_window_{0};
  bool watchdog_run_ = false;
  core::Mutex block_mu_;
  std::vector<BlockInfo> block_state_ STFW_GUARDED_BY(block_mu_);
  std::atomic<std::uint64_t> progress_{0};  // deliveries + barrier completions
  std::atomic<bool> deadlocked_{false};
  int deadlock_victim_ STFW_GUARDED_BY(block_mu_) = -1;
  std::string deadlock_report_ STFW_GUARDED_BY(block_mu_);
  // Private to the monitor thread between run() boundaries; unannotated.
  std::uint64_t last_progress_ = 0;
  std::chrono::steady_clock::time_point last_progress_time_{};

  // Monitor thread (watchdog + delayed-message pump); alive only during run().
  core::Thread monitor_;
  std::atomic<bool> monitor_stop_{false};
};

}  // namespace stfw::runtime
