#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/buffer_pool.hpp"
#include "core/metrics.hpp"
#include "core/plan_repair.hpp"
#include "core/rank_state.hpp"
#include "core/sync.hpp"
#include "core/vpt.hpp"
#include "runtime/comm.hpp"
#include "runtime/exchange_plan.hpp"

/// \file stfw_communicator.hpp
/// The paper's black-box operation (Section 2.2): every process passes the
/// data it wants to send together with the VPT, and the library realizes the
/// exchange with store-and-forward routing over the VPT. With Vpt::direct(K)
/// this degenerates to plain point-to-point sends — the BL baseline.
///
/// Two exchange modes are offered. exchange() is the paper's Algorithm 1
/// verbatim: it assumes a reliable transport and deadlocks or silently loses
/// data if messages go missing. exchange_resilient() runs the same routing
/// over sequence-numbered, checksummed wire frames with per-stage
/// ack/retransmit and bounded exponential backoff, recovering transparently
/// from dropped, duplicated, reordered, truncated and delayed messages; when
/// a frame exhausts its retry budget — or the receiver nacks it because it
/// already moved past that stage — the affected submessages are re-routed
/// directly to their final destinations, and what cannot be delivered at all
/// is surfaced in a per-rank ExchangeFailure report instead of crashing the
/// cluster. See docs/fault_model.md.

namespace stfw {

struct OutboundMessage {
  core::Rank dest = -1;
  std::vector<std::byte> bytes;
};

struct InboundMessage {
  core::Rank source = -1;
  std::vector<std::byte> bytes;

  friend bool operator==(const InboundMessage&, const InboundMessage&) = default;
};

/// Per-process communication statistics of one exchange.
///
/// messages_sent / payload_bytes_sent count unique protocol messages so the
/// two exchange modes are comparable; the resilience counters below record
/// the extra wire work recovery cost (retransmissions and acks do appear in
/// wire_bytes_sent).
struct LocalExchangeStats {
  std::int64_t messages_sent = 0;
  std::int64_t messages_received = 0;
  std::uint64_t payload_bytes_sent = 0;    // includes forwarded submessages
  std::uint64_t wire_bytes_sent = 0;       // payload + wire headers
  std::uint64_t peak_buffer_bytes = 0;     // forward-buffer high water + delivered

  // Plan-cache activity of this exchange (see docs/performance.md).
  std::int64_t plan_builds = 0;     // 1 when this exchange recorded a new plan
  std::int64_t plan_hits = 0;       // 1 when this exchange replayed a plan
  std::int64_t plan_fallbacks = 0;  // 1 when a replay detected pattern drift
                                    // mid-flight and fell back to Algorithm 1

  // Dependency-driven stage progress (plain exchange; docs/performance.md).
  // Fillers are the 4-byte empty stage frames that regularize the exchange
  // to exactly one frame per (stage, dimension-d neighbor) so receivers can
  // await per-neighbor counters instead of a global barrier. They carry no
  // submessages and are excluded from messages_sent / messages_received
  // (which keep counting real protocol messages only); their wire bytes do
  // appear in wire_bytes_sent, like acks.
  std::int64_t filler_frames_sent = 0;
  std::int64_t filler_frames_received = 0;

  // Pooled-buffer activity of this exchange (zero-copy planned replays only;
  // zero elsewhere). Hits are outbound gathers served from the communicator's
  // recycled wire buffers, misses fell through to the allocator;
  // pool_reused_bytes counts the bytes handed out without allocating.
  std::int64_t pool_hits = 0;
  std::int64_t pool_misses = 0;
  std::uint64_t pool_reused_bytes = 0;

  // Resilient mode only (all zero for plain exchange()).
  std::int64_t retransmits = 0;            // transmissions beyond each frame's first
  std::int64_t timeouts = 0;               // retransmit-timer + stage-deadline expiries
  std::int64_t duplicate_frames_discarded = 0;  // recovered duplicates/re-sends
  std::int64_t duplicate_submessages_discarded = 0;  // direct copy of a delivered sub
  std::int64_t corrupt_frames_discarded = 0;    // checksum/truncation rejects
  std::int64_t late_frames_refused = 0;    // stage traffic nacked after its deadline
  std::int64_t acks_sent = 0;
  std::int64_t acks_received = 0;
  std::int64_t direct_fallback_submessages = 0;  // re-routed past a dead neighbor link

  // Rank-failure survival (exchange_resilient only; docs/fault_model.md,
  // "Membership epochs and degraded mode"). membership_epoch is the epoch
  // this rank finished the exchange at; the counters are per-exchange.
  std::uint32_t membership_epoch = 0;
  std::int64_t epoch_transitions = 0;    // membership changes observed mid-exchange
  std::int64_t failure_notices_sent = 0;
  std::int64_t failure_notices_received = 0;
  std::int64_t stale_epoch_frames_refused = 0;  // nacked: sender's view predates a death
  std::int64_t relay_submessages = 0;      // subs carried over the relay lane
  std::int64_t reinjected_submessages = 0;  // subs re-homed off frames to dead ranks
  std::int64_t dead_dest_submessages_dropped = 0;  // traffic whose destination died
  std::int64_t plan_repairs = 0;  // 1 when a degraded replay repaired a cached plan
};

/// Tuning knobs of exchange_resilient(). Defaults suit the in-process
/// runtime under test-grade fault rates; real deployments would scale the
/// deadlines with network latency.
struct ResilienceOptions {
  /// First retransmission after this long without an ack; grows by
  /// backoff_factor on every further attempt, capped at 8x this timeout
  /// (and never above the stage deadline) so a much-faulted frame still
  /// retries often enough to fit inside the settlement budget.
  std::chrono::milliseconds retransmit_timeout{10};
  double backoff_factor = 2.0;
  /// Transmissions per frame (including the first) before giving up and
  /// degrading. >= 1. Direct-fallback frames are exempt: as the last
  /// resort they keep retrying until the settlement safety valve.
  int max_attempts = 6;
  /// Budget for one stage to complete its receives; expiry records the
  /// missing neighbors and moves on rather than hanging.
  std::chrono::milliseconds stage_deadline{2000};
  /// Sizes the settlement safety valve: after all stages, a rank waits at
  /// most dim * stage_deadline + max_settle_rounds * retransmit_timeout for
  /// the cluster to settle before force-failing outstanding frames. Bounds
  /// exchange runtime.
  int max_settle_rounds = 200;
  /// Re-route the submessages of a retry-exhausted frame straight to their
  /// final destinations instead of declaring them lost immediately.
  bool direct_fallback = true;
  /// Decorrelation jitter on the retransmit backoff, in [0, 1]. Each retry
  /// waits backoff - U[0,1) * retry_jitter * (backoff - retransmit_timeout):
  /// 0 keeps the exact deterministic schedule, 1 spreads retries uniformly
  /// between the base timeout and the full backoff so colliding ranks
  /// decorrelate instead of thundering in lockstep. The STFW_RETRY_JITTER
  /// environment variable overrides this field (strict parse). Draws come
  /// from a per-(rank, exchange) seeded generator, so runs — including
  /// schedule exploration under STFW_VERIFY — stay deterministic.
  double retry_jitter = 0.0;
};

/// What one rank could not recover in a resilient exchange. empty() means
/// this rank's part of the exchange was fully reliable-equivalent.
struct ExchangeFailure {
  struct LostSubmessage {
    core::Rank source = -1;
    core::Rank dest = -1;
    std::uint32_t bytes = 0;
    int stage = -1;  // stage whose frame exhausted its budget; -1 = direct
  };
  struct MissingNeighbor {
    int stage = -1;
    core::Rank neighbor = -1;  // expected a stage frame from it; never arrived
  };

  std::vector<LostSubmessage> lost;      // definite loss (held by this rank)
  std::vector<MissingNeighbor> missing;  // inbound gaps (sender may have re-routed)

  [[nodiscard]] bool empty() const noexcept { return lost.empty() && missing.empty(); }
  [[nodiscard]] std::string to_string() const;
};

/// Communication/computation overlap callback of exchange(): invoked exactly
/// once per exchange, on the calling rank's thread, after the stage-0 frames
/// have been posted and before the rank blocks on its stage-0 receives. The
/// caller runs communication-independent work (e.g. the interior rows of an
/// SpMV) inside it, hiding peer skew behind local compute. An empty hook is
/// equivalent to the plain overload.
using OverlapHook = std::function<void()>;

/// Overflow-safe retransmit backoff step: the next backoff after `current`
/// grown by `factor`, clamped into [0, min(stage_deadline, 8 *
/// retransmit_timeout)]. The clamp is computed without the signed overflow
/// that 8 * a-huge-timeout invites, and the double -> milliseconds cast only
/// happens on an in-range value, so no combination of large backoff_factor
/// and accumulated backoff can wrap into a negative or absurd delay.
std::chrono::milliseconds next_backoff(std::chrono::milliseconds current, double factor,
                                       std::chrono::milliseconds retransmit_timeout,
                                       std::chrono::milliseconds stage_deadline) noexcept;

struct ResilientExchangeResult {
  std::vector<InboundMessage> delivered;
  ExchangeFailure failure;
  /// False iff any rank of the cluster reported lost submessages this
  /// exchange (globally agreed, so all ranks can branch on it collectively).
  bool fully_recovered = true;
  /// True iff the exchange finished with at least one rank dead (agreed via
  /// the settlement verdict, so survivors can branch on it collectively).
  bool degraded = false;
};

/// Collective store-and-forward exchange over a threaded-runtime Comm.
///
/// All ranks of the communicator must construct a StfwCommunicator with an
/// equal Vpt and call exchange() the same number of times.
class StfwCommunicator {
public:
  StfwCommunicator(runtime::Comm& comm, core::Vpt vpt);

  const core::Vpt& vpt() const noexcept { return vpt_; }

  /// Executes Algorithm 1 across all ranks; returns the messages addressed
  /// to this rank, sorted by source. Collective: every rank must call it.
  /// Assumes a reliable transport (no fault injector on the faulted tags).
  ///
  /// Repeated calls with an identical send pattern (same (dest, size)
  /// sequence) transparently replay a recorded ExchangePlan instead of
  /// re-deriving routes and frame layouts — the persistent-collective fast
  /// path for iterative workloads. The cache is pattern-keyed and bounded
  /// (set_plan_cache_capacity); a replay that detects mid-flight pattern
  /// drift on a peer falls back to the unplanned path with identical
  /// results. LocalExchangeStats.plan_{builds,hits,fallbacks} report what
  /// happened.
  std::vector<InboundMessage> exchange(std::span<const OutboundMessage> sends);

  /// Overlap variant: identical exchange, but `overlap` runs once between
  /// posting the stage-0 frames and blocking on the stage-0 receives — the
  /// window where communication-independent compute hides peer skew. The
  /// result is byte-identical to the plain overload.
  std::vector<InboundMessage> exchange(std::span<const OutboundMessage> sends,
                                       const OverlapHook& overlap);

  /// Builds an ExchangePlan for `sends`' pattern with a header-only
  /// collective planning pass (payload bytes in `sends` are ignored; only
  /// (dest, size) matter). Collective: all ranks must call plan() together,
  /// like an exchange. The plan is bound to this rank and VPT.
  std::shared_ptr<runtime::ExchangePlan> plan(std::span<const OutboundMessage> sends);

  /// Replays `plan` with fresh payload bytes — the explicit persistent-
  /// exchange API. `payloads[i]` supplies the bytes of the i-th send of the
  /// planned pattern and must match its planned size. Collective, and
  /// *barrier-free*: every rank must replay a plan of the same collective
  /// plan() / recorded exchange, every time. Pattern drift is a contract
  /// violation (throws core::Error); use plain exchange() when the pattern
  /// may change between iterations.
  std::vector<InboundMessage> exchange(runtime::ExchangePlan& plan,
                                       std::span<const std::span<const std::byte>> payloads);

  /// Convenience overload: replays `plan` taking payload bytes from `sends`,
  /// whose (dest, size) sequence must equal the planned pattern.
  std::vector<InboundMessage> exchange(runtime::ExchangePlan& plan,
                                       std::span<const OutboundMessage> sends);

  /// Zero-copy replay: identical collective to exchange(plan, payloads), but
  /// the deliveries come back as views aliasing the plan's parked inbound
  /// frames (self-sends alias the caller's payload buffers) instead of
  /// freshly copied InboundMessages. Views are invalidated when the next
  /// exchange on `plan` begins or the plan is destroyed; copy out anything
  /// that must outlive the iteration. The returned span is empty after a
  /// throw (drift, validation), never dangling. Delivery order and bytes are
  /// byte-identical to exchange(plan, payloads).
  std::span<const runtime::InboundView> exchange_views(
      runtime::ExchangePlan& plan, std::span<const std::span<const std::byte>> payloads);

  /// Whether planned replays gather outgoing frames scatter/gather-style
  /// straight into pooled wire buffers (each byte written exactly once)
  /// instead of copying the frame image and overwriting its payload gaps.
  /// Defaults to the STFW_ZERO_COPY environment variable (strict parse, on).
  /// Off keeps the historical copying path for A/B benchmarking; results are
  /// byte-identical either way.
  [[nodiscard]] bool zero_copy_enabled() const noexcept { return zero_copy_; }
  void set_zero_copy(bool on) noexcept { zero_copy_ = on; }

  /// Cumulative wire-buffer pool counters of this communicator (planned
  /// replays only). LocalExchangeStats carries per-exchange deltas.
  [[nodiscard]] const core::BufferPoolStats& buffer_pool_stats() const noexcept {
    return pool_.stats();
  }

  /// Transparent plan cache bound (LRU, default 4 plans; STFW_PLAN_CACHE
  /// overrides the default). 0 disables transparent caching entirely;
  /// explicit plan()/exchange(plan, ...) still work. The cache has its own
  /// mutex so a configuration thread may resize/inspect it while the owning
  /// rank is mid-exchange; the exchange itself stays single-threaded.
  [[nodiscard]] std::size_t plan_cache_capacity() const STFW_EXCLUDES(plan_cache_mu_);
  void set_plan_cache_capacity(std::size_t capacity) STFW_EXCLUDES(plan_cache_mu_);
  [[nodiscard]] std::size_t plan_cache_size() const STFW_EXCLUDES(plan_cache_mu_);

  /// Executes Algorithm 1 over the resilient frame protocol: per-stage
  /// ack/retransmit with bounded exponential backoff, duplicate suppression,
  /// checksum rejection, direct-routing fallback and a per-rank failure
  /// report. Collective among the *alive* ranks; all must pass equal
  /// options. No foreign traffic may share the communicator's tags while it
  /// runs.
  ///
  /// Unlike plain exchange(), this mode survives rank failure: when a rank
  /// dies (fault::RankCrashedError) the membership epoch advances, survivors
  /// announce the death with kFailureNotice frames, incrementally repair any
  /// cached plan instead of re-recording it, re-home traffic stranded at the
  /// dead rank over the relay lane (kRelay frames, greedy-alive next hops),
  /// and complete the exchange among themselves with exactly-once delivery —
  /// frames are epoch-stamped and stale-epoch stage traffic is nacked. See
  /// docs/fault_model.md, "Membership epochs and degraded mode".
  [[nodiscard]] ResilientExchangeResult exchange_resilient(
      std::span<const OutboundMessage> sends, const ResilienceOptions& options = {});

  /// Statistics of the most recent exchange() / exchange_resilient() on
  /// this rank.
  [[nodiscard]] const LocalExchangeStats& last_stats() const noexcept { return stats_; }

  /// True when the build carries the debug-mode exchange validator
  /// (CMake option STFW_VALIDATE=ON; see docs/validation.md).
  static bool validation_available() noexcept;

  /// Whether exchange() runs under the invariant validator. Defaults to ON
  /// in validator-enabled builds unless the STFW_VALIDATE environment
  /// variable parses false (core::env_flag: 0/false/off/no; a malformed
  /// value throws core::ValidationError). The validator's conservation check
  /// is collective, so all ranks must agree on this flag; without
  /// STFW_VALIDATE=ON in the build the flag has no effect.
  bool validation_enabled() const noexcept { return validate_; }
  void set_validation(bool on) noexcept { validate_ = on; }

  /// Hang guard of the plain exchange's dependency waits: each per-stage
  /// wait (and the validator's collectives) gets this budget before throwing
  /// core::TimeoutError naming the missing neighbor. Defaults to the
  /// STFW_EXCHANGE_DEADLINE_MS environment variable (strict parse), falling
  /// back to 30 s; 0 waits forever (the pre-deadline behaviour).
  [[nodiscard]] std::chrono::milliseconds exchange_deadline() const noexcept {
    return exchange_deadline_;
  }
  void set_exchange_deadline(std::chrono::milliseconds d) noexcept { exchange_deadline_ = d; }

  /// A/B switch for the bulk-synchronous seed schedule: when on, exchange()
  /// re-inserts a global barrier between posting a stage's sends and
  /// receiving — the pre-dependency-driven structure, kept for honest
  /// overlap benchmarking (bench_overlap) and differential tests. Defaults
  /// to the STFW_BARRIER_SYNC environment variable (strict parse, off).
  [[nodiscard]] bool barrier_sync() const noexcept { return barrier_sync_; }
  void set_barrier_sync(bool on) noexcept { barrier_sync_ = on; }

private:
  struct PlanCacheEntry {
    std::shared_ptr<runtime::ExchangePlan> plan;
    std::uint64_t last_use = 0;
  };

  std::vector<InboundMessage> exchange_unplanned(std::span<const OutboundMessage> sends,
                                                 const core::PatternSignature* record_as,
                                                 const OverlapHook& overlap);
  std::vector<InboundMessage> exchange_planned_cached(runtime::ExchangePlan& plan,
                                                      std::span<const OutboundMessage> sends,
                                                      const OverlapHook& overlap);
  /// Shared stage loop of the strict replay APIs: contract checks, sends
  /// (gather or copy), dependency-driven receives, validator, stats. Leaves
  /// the inbound raw frames parked in `plan`; the caller materializes either
  /// InboundMessages or InboundViews from them.
  void replay_plan_stages(runtime::ExchangePlan& plan,
                          std::span<const std::span<const std::byte>> payloads);
  /// Outbound frame bytes for a planned send: pooled scatter/gather when
  /// zero_copy_, else a copy of the image with the payload gaps filled.
  std::vector<std::byte> planned_frame_bytes(
      const core::PlanOutFrame& frame, std::span<const std::span<const std::byte>> seeds,
      const std::vector<std::vector<std::vector<std::byte>>>& in_raw);
  /// Fresh per-stage deadline from exchange_deadline_ (never() when 0).
  runtime::Deadline stage_deadline() const;
  /// This rank's dimension-`stage` neighbors, ascending — the inbound
  /// dependency set of one dependency-driven stage.
  void stage_neighbor_ranks(int stage, std::vector<int>& out) const;
  /// Posts one 4-byte empty filler frame to every dimension-`stage` neighbor
  /// not in `covered`, so each receiver's per-stage frame count is met.
  void send_stage_fillers(int stage, int tag, std::span<const int> neighbors,
                          const std::vector<bool>& covered, bool count_stats);
  // Self-locking cache helpers: each takes plan_cache_mu_ only for its own
  // body, so the mutex is never held across Comm calls (no ordering edge
  // between the cache mutex and any mailbox/barrier mutex can form).
  std::shared_ptr<runtime::ExchangePlan> plan_cache_find(const core::PatternSignature& sig)
      STFW_EXCLUDES(plan_cache_mu_);
  void plan_cache_insert(std::shared_ptr<runtime::ExchangePlan> plan)
      STFW_EXCLUDES(plan_cache_mu_);
  void plan_cache_erase(const core::PatternSignature& sig) STFW_EXCLUDES(plan_cache_mu_);
  void plan_cache_evict_to(std::size_t capacity) STFW_REQUIRES(plan_cache_mu_);

  runtime::Comm* comm_;
  core::Vpt vpt_;
  int epoch_ = 0;  // distinguishes tags across repeated exchanges
  bool validate_;
  std::chrono::milliseconds exchange_deadline_;
  bool barrier_sync_;
  bool zero_copy_;
  LocalExchangeStats stats_;
  // Recycled wire buffers of the zero-copy replay path. Thread-confined to
  // the owning rank's exchange thread (like stats_), so no lock.
  core::BufferPool pool_;
  // Single-slot cache of the last incremental plan repair, keyed by pattern
  // signature and membership epoch. Thread-confined to the owning rank's
  // exchange thread (like stats_), so no lock: repeated degraded iterations
  // replay the same repaired routing without re-diffing the layout.
  std::shared_ptr<const core::RepairedPlan> repaired_plan_;
  std::uint64_t repaired_sig_key_ = 0;
  std::uint32_t repaired_epoch_ = 0;
  // Resilient frames of the next exchange that reached this rank before its
  // previous exchange_resilient finished draining: a faster peer had already
  // started the next call. [0] data tag, [1] ack tag. Thread-confined like
  // stats_; the next exchange_resilient handles them before anything else.
  std::array<std::vector<runtime::Message>, 2> carried_frames_;
  mutable core::Mutex plan_cache_mu_;
  std::vector<PlanCacheEntry> plan_cache_ STFW_GUARDED_BY(plan_cache_mu_);
  std::size_t plan_cache_capacity_ STFW_GUARDED_BY(plan_cache_mu_);
  std::uint64_t plan_cache_tick_ STFW_GUARDED_BY(plan_cache_mu_) = 0;
};

}  // namespace stfw
