#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/exchange_plan.hpp"
#include "core/metrics.hpp"
#include "core/rank_state.hpp"
#include "core/vpt.hpp"
#include "core/wire.hpp"
#include "runtime/comm.hpp"
#include "runtime/membership.hpp"

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
  std::int64_t duplicate_frames_discarded = 0;  // repeated stage frames
  std::int64_t duplicate_submessages_discarded = 0;  // side-lane copy of a delivered sub
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
  std::int64_t stale_epoch_frames_refused = 0;  // nacked: sender's view predates a death
  std::int64_t relay_submessages = 0;      // seeds sent over the side lane
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
  /// degrading. >= 1. Side-lane frames are exempt: their loss is final,
  /// so they keep retrying until the settlement safety valve.
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
    int stage = -1;  // stage whose frame exhausted its budget; -1 = side lane
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
  /// and every rank must make its exchanges, plain and resilient, on all
  /// communicators of the run, in the same order. Needs a reliable
  /// transport: it throws core::Error when the cluster's fault injector
  /// faults messages.
  ///
  /// Repeated calls with an identical send pattern (same (dest, size)
  /// sequence) transparently replay a recorded plan instead of re-deriving
  /// routes and frame layouts — the persistent-collective fast path for
  /// iterative workloads. The cache holds the four most recently used
  /// patterns; a replay that detects mid-flight pattern drift on a peer
  /// falls back to Algorithm 1 with identical results.
  /// LocalExchangeStats.plan_{builds,hits,fallbacks} report what happened.
  std::vector<InboundMessage> exchange(std::span<const OutboundMessage> sends);

  /// Overlap variant: identical exchange, but `overlap` runs once between
  /// arriving at stage 0 and waiting for the stage-0 group — the
  /// window where communication-independent compute hides peer skew. The
  /// result is byte-identical to the plain overload.
  std::vector<InboundMessage> exchange(std::span<const OutboundMessage> sends,
                                       const OverlapHook& overlap);

  /// Executes Algorithm 1 over the resilient frame protocol: per-stage
  /// ack/retransmit with bounded exponential backoff, duplicate suppression,
  /// checksum rejection, direct-routing fallback and a per-rank failure
  /// report. Collective among the *alive* ranks; all must pass equal
  /// options, and it takes its tags from the rank's Comm, ordered with the
  /// plain exchanges as exchange() says. It neither reads nor fills the
  /// plan cache: every send is routed from the membership view the exchange
  /// polls.
  ///
  /// Unlike plain exchange(), this mode survives rank failure: when a rank
  /// dies (fault::RankCrashedError) the membership epoch advances and ends
  /// every survivor's wait, survivors re-home traffic stranded at the dead
  /// rank over the side lane (kRelay frames, each sent straight to its
  /// submessages' destination), and complete the exchange among themselves
  /// with exactly-once delivery — frames are stamped with their sender's
  /// membership epoch and stale-epoch stage traffic is nacked. See
  /// docs/fault_model.md, "Membership epochs and degraded mode".
  [[nodiscard]] ResilientExchangeResult exchange_resilient(
      std::span<const OutboundMessage> sends, const ResilienceOptions& options = {});

  /// Statistics of the most recent exchange() / exchange_resilient() on
  /// this rank.
  [[nodiscard]] const LocalExchangeStats& last_stats() const noexcept { return stats_; }

  /// True when the build carries the debug-mode exchange validator
  /// (CMake option STFW_VALIDATE=ON; see docs/validation.md).
  static bool validation_available() noexcept;

  /// Whether exchanges run under the invariant validator. Defaults to ON
  /// in validator-enabled builds unless the STFW_VALIDATE environment
  /// variable parses false (core::env_flag: 0/false/off/no; a malformed
  /// value throws core::ValidationError). The validator's conservation check
  /// is collective, so all ranks must agree on this flag; without
  /// STFW_VALIDATE=ON in the build the flag has no effect.
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
  friend struct PlanCacheProbe;  // test access to the plan cache

  /// Plans the transparent cache keeps; the least recently used one makes
  /// room for a new pattern.
  static constexpr std::size_t kPlanCacheCapacity = 4;

  /// One recorded plan plus the scratch its replays reuse: the raw inbound
  /// frames of each stage are parked here, so the next replay gathers from
  /// them instead of rebuilding a StfwRankState and a PayloadArena.
  struct CachedPlan {
    core::ExchangePlanLayout layout;
    // in_raw[f]: the raw wire bytes of layout.in_frames[f] received in the
    // most recent replay. Buffers arrive by ownership transfer from Comm; the
    // buffer a new frame displaces is freed.
    std::vector<std::vector<std::byte>> in_raw;
    std::uint64_t last_use = 0;
  };

  /// The routing scratch of a plan-cache miss and of exchange_resilient(),
  /// kept across exchanges so either allocates only where it outgrows the
  /// exchanges before it: the rank state, its stage outbox, the parse table
  /// of inbound frames, the delivery list and the resilient exchange's
  /// neighbor, frame and settlement tables. Boxed with a Vpt of its own,
  /// which the state points at, so moving the communicator leaves that
  /// pointer valid.
  struct MissScratch {
    /// A resilient receiver's decision on a neighbor's stage frame.
    enum class Heard : std::uint8_t { kNothing, kAccepted, kRefused /* stale-epoch nack */ };
    /// A frame a resilient sender tracks until it is acked or failed.
    struct OutFrame {
      int stage = -1;  // -1 for a side-lane (kRelay) frame
      core::Rank dest = -1;
      // No retained wire image: each transmission re-encodes the frame from
      // its header and its range of `tracked` (payloads stay in the arena),
      // and encode_frame is deterministic, so a retransmit is byte-identical.
      core::FrameHeader header;
      std::uint32_t first = 0;  // tracked[first, first + count): its submessages
      std::uint32_t count = 0;
      int attempts = 0;
      std::chrono::steady_clock::time_point next_retry{};
      std::chrono::milliseconds backoff{0};
      bool acked = false;
      bool failed = false;
    };
    /// A stage frame from a neighbor already past the receiver's stage.
    struct EarlyFrame {
      int stage;
      core::Rank sender;
      std::vector<std::byte> frame;  // the buffer it arrived in
    };
    MissScratch(const core::Vpt& v, core::Rank me) : vpt(v), state(vpt, me) {}
    void reset();  // starts an exchange, keeping capacity

    const core::Vpt vpt;
    core::StfwRankState state;
    core::StageOutbox outbox;
    std::vector<core::Submessage> parsed;
    std::vector<core::Submessage> delivered;
    std::vector<std::vector<Heard>> heard;  // [stage d][the neighbor's digit d]
    std::vector<core::Submessage> tracked;  // every tracked frame's submessages
    std::vector<core::Submessage> side;     // submessages grouped onto side frames
    std::vector<OutFrame> frames;           // indexed by seq
    std::vector<EarlyFrame> early;
    std::vector<runtime::Message> settle;   // settlement messages not yet acted on
    runtime::MembershipSnapshot mem;        // the view the exchange acts on
    std::vector<std::int64_t> last_report;  // per rank: its epoch, -1 for none
  };

  class StageDriver;
  class Algorithm1;

  /// A cache hit: gathers each stage's frames from `sends` and the frozen
  /// layout, checks the inbound frames against it and parks them in `plan`.
  /// Where a peer drifted, resumes Algorithm 1 from the parked frames and
  /// drops `plan` from the cache.
  std::vector<InboundMessage> replay(StageDriver& drv, CachedPlan& plan,
                                     std::span<const OutboundMessage> sends);
  /// Caches a freshly recorded layout, evicting the least recently used
  /// plan when the cache is full.
  void remember(core::ExchangePlanLayout layout);

  runtime::Comm* comm_;
  core::Vpt vpt_;
  bool validate_;
  std::chrono::milliseconds exchange_deadline_;
  LocalExchangeStats stats_;
  // stage_groups_[d]: this rank's dimension-d group, itself included,
  // ascending — the members each stage's arrival waits for.
  std::vector<std::vector<int>> stage_groups_;
  // Thread-confined like stats_: only the owning rank's exchanges touch it.
  std::vector<CachedPlan> plan_cache_;
  std::uint64_t plan_cache_tick_ = 0;
  std::unique_ptr<MissScratch> miss_;
  std::vector<runtime::Message> inbox_;  // the latest drain, kept for its capacity
};

}  // namespace stfw
