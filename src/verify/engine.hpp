#pragma once

#if !STFW_VERIFY_ENABLED
#error "src/verify requires -DSTFW_VERIFY=ON (it implements the verify hooks)"
#endif

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/error.hpp"
#include "core/verify_hooks.hpp"
#include "verify/vector_clock.hpp"

/// \file engine.hpp
/// The stfw-verify engine: a happens-before race detector and a cooperative
/// deterministic scheduler, both fed by the core/verify_hooks.hpp events.
///
/// Race detection (always on): every hooked thread carries a vector clock;
/// mutex release→acquire, condvar notify→wake, mailbox send→recv and thread
/// fork/join edges order the clocks, and every STFW_VERIFY_READ/WRITE-tagged
/// access is checked FastTrack-style against the last write (and, for writes,
/// all unordered reads) of that address. A finding is a two-site RaceReport
/// naming both source locations, not just "race somewhere".
///
/// Deterministic scheduling (EngineConfig::schedule): the registered region
/// threads (Cluster ranks + monitor) are serialized onto one running thread
/// at a time via per-thread token handoff. Yield points are lock acquire,
/// condvar wait/notify, mailbox sends, watchdog ticks and injector stalls.
/// Time is logical: it advances only at ticks/stalls and timeout jumps, so
/// deadlines and the deadlock watchdog fire as a deterministic function of
/// the schedule. Branch points (who runs next) are decided either by a
/// recorded ordinal path (exhaustive, delay-bounded enumeration driven by
/// advance_exhaustive()) or by a seeded RNG (random schedules, replayable
/// from the seed alone).
///
/// Threads the engine does not know about (the test's main thread, between
/// regions) pass straight through every hook with only happens-before
/// bookkeeping; this is what keeps Cluster::run's spawning thread safe to
/// leave unscheduled.

namespace stfw::verify {

/// Thrown out of blocked rank threads when the engine force-stops a schedule
/// (deadlock with no watchdog armed, step budget, idle budget). Cluster::run
/// aggregates it like any other rank failure.
class SchedulerAbortedError : public core::Error {
public:
  explicit SchedulerAbortedError(const std::string& what) : core::Error(what) {}
};

struct RaceReport {
  const char* site_a = "";  // earlier access (file:line label)
  bool write_a = false;
  const char* site_b = "";  // racing access
  bool write_b = false;
  std::string to_string() const;
};

struct EngineConfig {
  bool schedule = true;      // false: observe a free-running execution only
  bool exhaustive = false;   // branch by recorded path instead of the RNG
  int max_preemptions = 2;   // non-default branch budget per schedule
  std::uint64_t max_steps = 2000000;     // scheduler switches per schedule
  std::uint64_t max_idle_ticks = 20000;  // ticker-only spins with blocked ranks
  bool record_trace = false;
};

struct RunReport {
  std::vector<RaceReport> races;
  bool aborted = false;       // the engine force-stopped the schedule
  std::string abort_reason;   // "deadlock" | "step-limit" | "idle-limit"
  std::string blocked_state;  // where every live thread was stuck on abort
  std::uint64_t steps = 0;
  std::uint64_t branch_points = 0;
  std::string trace;          // filled when EngineConfig::record_trace
};

class Engine final : public Hooks {
public:
  explicit Engine(EngineConfig cfg);
  ~Engine() override;

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Reset all per-schedule state. `seed` drives random branching (ignored
  /// under exhaustive mode, where the ordinal path persists across runs).
  void begin_run(std::uint64_t seed);
  /// Collect the finished schedule's findings. All hooked threads must have
  /// been joined (and the engine uninstalled) first.
  RunReport end_run();

  /// Exhaustive mode: mutate the ordinal path to the next unexplored
  /// schedule within the preemption budget. False when the space is spent.
  bool advance_exhaustive();
  /// The current ordinal path, e.g. "0,2,1" (for failure reports).
  std::string path_string() const;

  const EngineConfig& config() const noexcept { return cfg_; }

  // --- Hooks ----------------------------------------------------------------
  void region_begin(int expected_threads) override;
  void region_end() override;
  void thread_begin(int logical_id, bool ticker) override;
  void thread_end() override;
  void mutex_acquire(const void* mu) override;
  void mutex_acquired(const void* mu) override;
  void mutex_release(const void* mu) override;
  bool cv_wait(const void* cv, const void* mu, std::unique_lock<std::mutex>& real,
               const std::chrono::steady_clock::time_point* deadline,
               bool& timed_out) override;
  void cv_woke(const void* cv, const void* mu) override;
  void cv_notify(const void* cv, bool all) noexcept override;
  std::uint64_t mailbox_send(int source, int dest, int tag) override;
  void mailbox_recv(int me, int source, int tag, std::uint64_t id) override;
  void stage(int rank, int stage) override;
  std::chrono::steady_clock::time_point now() override;
  void tick_sleep(std::chrono::milliseconds d) override;
  void stall(std::chrono::milliseconds d) override;
  void access(const void* addr, bool write, const char* site) override;

private:
  enum class St : std::uint8_t {
    kRegistering,  // at thread_begin, region not complete yet
    kRunnable,     // may be granted the token
    kRunning,      // holds the token
    kBlockedMutex, // waiting for a mutex owner to release
    kBlockedCv,    // inside cv_wait, before notify/timeout
    kDone,         // thread_end reached
  };

  struct Slot {
    int id = -1;             // logical id (rank; num_ranks for the monitor)
    std::size_t ci = 0;      // vector-clock component
    bool ticker = false;
    bool external = false;
    St state = St::kRegistering;
    bool token = false;
    std::condition_variable cv;
    VectorClock clock;
    // kBlockedMutex / kBlockedCv bookkeeping.
    const void* wait_obj = nullptr;
    bool has_deadline = false;
    std::chrono::steady_clock::time_point deadline{};
    bool timed_out = false;
    const char* where = "";  // human-readable op for abort reports
  };

  struct VarState {
    std::size_t w_ci = 0;
    std::uint64_t w_tick = 0;
    const char* w_site = nullptr;
    // last read per clock component that is not ordered before the next write
    std::map<std::size_t, std::pair<std::uint64_t, const char*>> reads;
  };

  struct Choice {
    int ord;
    int n;
  };

  enum class Yield : std::uint8_t { kForced, kSend, kNotify, kTick, kStall };

  Slot* slot_for_current_locked();
  Slot* registered_slot_locked();  // nullptr for external threads
  int object_id_locked(const void* obj);
  void trace_locked(const std::string& line);
  std::string slot_name(const Slot& s) const;

  /// Hand the token to the next thread per the schedule and park `s` until
  /// it is granted again. `branchable` marks enumerated branch points.
  /// Returns false when the engine aborted (caller throws or swallows).
  bool switch_from(std::unique_lock<std::mutex>& lk, Slot* s, bool branchable,
                   Yield kind);
  void grant_locked(Slot* next);
  void wait_token(std::unique_lock<std::mutex>& lk, Slot* s);
  int next_choice_locked(int n);
  /// Jump the logical clock to the earliest pending cv deadline and wake the
  /// expired waiters. False when no thread has a deadline to wait for.
  bool advance_time_locked();
  void wake_expired_locked();
  void do_abort_locked(const char* reason);
  std::string describe_blocked_locked() const;
  void start_scheduling_locked();
  void check_race_locked(Slot& s, const void* addr, bool write, const char* site);
  [[noreturn]] void throw_aborted();

  EngineConfig cfg_;
  mutable std::mutex mu_;  // raw on purpose: core::Mutex would re-enter hooks

  std::uint64_t run_id_ = 0;
  std::uint64_t seed_ = 0;
  std::vector<std::unique_ptr<Slot>> slots_;  // registered, by logical id
  std::unordered_map<std::thread::id, std::unique_ptr<Slot>> externals_;
  std::size_t next_ci_ = 0;

  bool scheduling_ = false;  // region complete, token discipline active
  bool released_ = false;    // abort: every thread free-runs to unwind
  bool aborted_ = false;
  std::string abort_reason_;
  std::string blocked_state_;
  int expected_threads_ = 0;
  int registered_count_ = 0;

  std::unordered_map<const void*, Slot*> owners_;        // mutex → holder
  std::unordered_map<const void*, VectorClock> sync_clock_;  // mutex/cv clocks
  std::unordered_map<std::uint64_t, VectorClock> msg_clock_;
  std::uint64_t msg_seq_ = 0;
  VectorClock birth_clock_;        // region spawner's clock at region_begin
  VectorClock region_join_clock_;  // joined final clocks of ended threads

  std::unordered_map<const void*, VarState> vars_;
  std::vector<RaceReport> races_;

  std::unordered_map<const void*, int> obj_ids_;
  int next_obj_id_ = 0;

  std::vector<Choice> record_;  // branch decisions taken this schedule
  std::vector<int> path_;       // forced ordinals (exhaustive enumeration)
  std::size_t choice_idx_ = 0;
  std::mt19937_64 rng_;

  std::uint64_t steps_ = 0;
  std::uint64_t idle_ticks_ = 0;
  std::uint64_t logical_ns_ = 0;
  std::chrono::steady_clock::time_point epoch_{};

  std::string trace_;
};

}  // namespace stfw::verify
