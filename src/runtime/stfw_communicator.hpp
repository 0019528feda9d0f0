#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/metrics.hpp"
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
/// verbatim: it assumes a reliable transport, refuses a fault injector that
/// faults messages, and would silently lose data if messages went missing
/// anyway. exchange_resilient() runs the same routing
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

  // Plan-cache activity of this plain exchange (see docs/performance.md);
  // exchange_resilient() never consults the cache and leaves these zero.
  std::int64_t plan_builds = 0;     // 1 when this exchange recorded a new plan
  std::int64_t plan_hits = 0;       // 1 when this exchange replayed a plan
  std::int64_t plan_fallbacks = 0;  // 1 when a replay detected pattern drift
                                    // mid-flight and fell back to Algorithm 1

  // Always 0: a plain exchange closes each stage on one group arrival and
  // sends no 4-byte filler frames any more. Kept only because the benchmark
  // (perfbench/src/workloads.cpp) still reads them; its next change drops
  // them together with core.filler_frames_per_exchange.
  std::int64_t filler_frames_sent = 0;
  std::int64_t filler_frames_received = 0;

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
};

/// Tuning knobs of exchange_resilient(). Defaults suit the in-process
/// runtime under test-grade fault rates; real deployments would scale the
/// deadlines with network latency.
struct ResilienceOptions {
  /// First retransmission after this long without an ack; doubles on every
  /// further attempt (RFC 6298 section 5.5), capped at 8x this timeout (and
  /// never above the stage deadline) so a much-faulted frame still retries
  /// often enough to fit inside the settlement budget.
  std::chrono::milliseconds retransmit_timeout{10};
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
/// have been posted and the rank has arrived at its stage-0 group, and
/// before it waits for that group's other members. The
/// caller runs communication-independent work (e.g. the interior rows of an
/// SpMV) inside it, hiding peer skew behind local compute. An empty hook is
/// equivalent to the plain overload.
using OverlapHook = std::function<void()>;

/// Overflow-safe retransmit backoff step: 2 * `current`, clamped into
/// [0, min(stage_deadline, 8 * retransmit_timeout)]. Neither the cap nor the
/// doubling is computed with the signed overflow that a huge timeout or an
/// accumulated backoff near the representable maximum invites.
std::chrono::milliseconds next_backoff(std::chrono::milliseconds current,
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
  /// to this rank, sorted by source. Collective: every rank must call it,
  /// and every rank must make its plain exchanges, on all communicators of
  /// the run, in the same order. Needs a reliable transport: it throws
  /// core::Error when the cluster's fault injector faults messages.
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
  /// arriving at stage 0 and waiting for the stage-0 group — the
  /// window where communication-independent compute hides peer skew. The
  /// result is byte-identical to the plain overload.
  std::vector<InboundMessage> exchange(std::span<const OutboundMessage> sends,
                                       const OverlapHook& overlap);

  /// Builds an ExchangePlan for `sends`' pattern by running one recording
  /// exchange of Algorithm 1 — the same run a cache-missing exchange() makes,
  /// so both freeze the same layout. The payload bytes travel but do not
  /// affect the plan; only the (dest, size) sequence does. Collective: all
  /// ranks must call plan() together, like an exchange. Leaves last_stats()
  /// and the transparent cache untouched. The plan is bound to this rank and
  /// VPT.
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

  /// Transparent plan cache bound (LRU, default 4 plans). 0 disables
  /// transparent caching entirely; explicit plan()/exchange(plan, ...)
  /// still work. The cache has its own
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
  /// runs. It neither reads nor fills the plan cache: every send is routed
  /// from the membership view the exchange polls.
  ///
  /// Unlike plain exchange(), this mode survives rank failure: when a rank
  /// dies (fault::RankCrashedError) the membership epoch advances, survivors
  /// announce the death with kFailureNotice frames, re-home traffic stranded
  /// at the dead rank over the relay lane (kRelay frames, greedy-alive next
  /// hops), and complete the exchange among themselves with exactly-once
  /// delivery — frames are epoch-stamped and stale-epoch stage traffic is
  /// nacked. See docs/fault_model.md, "Membership epochs and degraded mode".
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

  /// Hang guard of the plain exchange's stage waits: each per-stage group
  /// arrival (and the validator's collectives) gets this budget before
  /// throwing core::TimeoutError naming the members that did not arrive. Defaults to the
  /// STFW_EXCHANGE_DEADLINE_MS environment variable (strict parse), falling
  /// back to 30 s; 0 waits forever (the pre-deadline behaviour).
  [[nodiscard]] std::chrono::milliseconds exchange_deadline() const noexcept {
    return exchange_deadline_;
  }
  void set_exchange_deadline(std::chrono::milliseconds d) noexcept { exchange_deadline_ = d; }

private:
  friend struct PlanCacheProbe;  // test access to the cache and the resilient epoch

  struct PlanCacheEntry {
    std::shared_ptr<runtime::ExchangePlan> plan;
    std::uint64_t last_use = 0;
  };

  class StageDriver;
  class Algorithm1;

  /// A cache hit: replays `plan`, resuming Algorithm 1 where a peer drifted.
  std::vector<InboundMessage> exchange_cached(StageDriver& drv, runtime::ExchangePlan& plan,
                                              std::span<const OutboundMessage> sends);
  /// The plan-replay frame source of both the cached and the strict path:
  /// gathers each stage's frames from `seeds` and the frozen layout, checks
  /// the inbound frames against it and parks them in `plan`. Returns dim()
  /// with the deliveries in plan.views_, or the first stage whose inbound
  /// frames drifted, moved into `*drifted` (a null `drifted` throws).
  int replay_stages(StageDriver& drv, runtime::ExchangePlan& plan,
                    std::span<const std::span<const std::byte>> seeds,
                    std::vector<runtime::Message>* drifted);
  /// The plan-cache key of a send list: its (dest, size) sequence.
  static core::PatternSignature signature_of(std::span<const OutboundMessage> sends);
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
  // Resilient exchange counter, carried in every resilient frame header.
  // Wraps modulo 2^32. Plain exchanges take their tags from
  // Comm::reserve_tags instead.
  std::uint32_t epoch_ = 0;
  bool validate_;
  std::chrono::milliseconds exchange_deadline_;
  LocalExchangeStats stats_;
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
