#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "message.hpp"
#include "vpt.hpp"

/// \file exchange_plan.hpp
/// Frozen layout of one store-and-forward exchange.
///
/// The paper's flagship workload (iterative SpMV, §5) performs the *same*
/// exchange every iteration: identical send pattern, identical VPT, only the
/// payload bytes change. Deriving the dimension-order routes, the per-stage
/// coalesced frame layouts, and all intermediate Submessage bookkeeping from
/// scratch each time is pure overhead — the store-and-forward analogue of
/// MPI persistent collectives is to record the schedule once and replay it.
///
/// ExchangePlanLayout is that record, from one rank's point of view:
///
///   - for every stage, the exact wire frames this rank sends (a prebuilt
///     wire image with payload gaps plus an offset table saying which bytes
///     fill each gap), and
///   - the exact frames it receives (source, size, and where inside the raw
///     frame every forwarded payload sits), and
///   - the delivery list (which seed payload / which received-frame slice
///     becomes each InboundMessage).
///
/// Replaying a plan therefore needs no StfwRankState, no PayloadArena, no
/// per-submessage vectors — only memcpys through the offset tables. The
/// layout is pure data (core has no runtime dependency); the executor lives
/// in runtime::StfwCommunicator.

namespace stfw::core {

/// Identity of a send pattern: an order-preserving copy of the caller's
/// (dest, size) sequence plus an order-insensitive FNV-1a key over the
/// sorted pairs for cheap cache lookup. Two patterns are equal only if the
/// exact sequences match — the hash alone is never trusted.
struct PatternSignature {
  std::uint64_t key = 0;
  std::vector<std::pair<Rank, std::uint32_t>> sequence;

  static PatternSignature of(std::span<const std::pair<Rank, std::uint32_t>> seq);

  friend bool operator==(const PatternSignature& a, const PatternSignature& b) {
    return a.key == b.key && a.sequence == b.sequence;
  }
};

/// Where the bytes of one planned payload slot come from at replay time:
/// either the caller's seed payload number `index`, or `bytes` bytes at
/// `offset` inside inbound raw frame `frame` of stage `stage`.
struct PayloadSrc {
  enum class Kind : std::uint8_t { kSeed, kRecv };
  Kind kind = Kind::kSeed;
  std::uint8_t stage = 0;   // kRecv: stage whose inbound frame holds the bytes
  std::uint16_t frame = 0;  // kRecv: frame index within that stage, drain order
  std::uint32_t index = 0;  // kSeed: position in the caller's send sequence
  std::uint32_t offset = 0; // kRecv: byte offset of the payload inside the frame
  std::uint32_t bytes = 0;

  friend bool operator==(const PayloadSrc&, const PayloadSrc&) = default;
};

/// One outgoing coalesced frame: the complete wire image with every payload
/// gap zeroed, and parallel offset/source tables for filling the gaps.
/// Zero-size payloads need no slot; `subs` keeps the full headers (offsets
/// meaningless) for the debug validator.
struct PlanOutFrame {
  Rank to = -1;
  std::vector<std::byte> image;
  std::vector<std::uint32_t> slot_offsets;  // image offset of each payload gap
  std::vector<PayloadSrc> slots;            // what fills each gap
  std::vector<Submessage> subs;
  std::uint64_t payload_bytes = 0;
};

/// One expected incoming frame: who sends it, how big it must be, and the
/// decoded headers with Submessage::offset repurposed as the payload's byte
/// offset *within the frame* (so replay never copies into an arena).
struct PlanInFrame {
  Rank source = -1;
  std::uint64_t wire_size = 0;
  std::vector<Submessage> subs;
};

/// One delivery: the InboundMessage's source rank and where its bytes live.
struct PlanDelivery {
  Rank source = -1;
  PayloadSrc src;
};

/// The complete frozen exchange, one rank's view. Immutable once built.
struct ExchangePlanLayout {
  PatternSignature signature;
  std::vector<int> vpt_dims;
  Rank rank = -1;

  std::vector<std::vector<PlanOutFrame>> out_frames;  // [stage][frame]
  std::vector<std::vector<PlanInFrame>> in_frames;    // [stage][frame]
  std::vector<PlanDelivery> deliveries;               // sorted by source

  /// Forward-buffer residency after each stage, frozen for the validator's
  /// on_stage_complete hook.
  std::vector<std::uint64_t> stage_buffered_bytes;
  std::vector<std::uint64_t> stage_buffered_subs;

  /// Frozen per-exchange stats (identical every replay by construction).
  std::int64_t messages_sent = 0;
  std::int64_t messages_received = 0;
  std::uint64_t payload_bytes_sent = 0;
  std::uint64_t wire_bytes_sent = 0;
  std::uint64_t seed_payload_bytes = 0;
  std::uint64_t delivered_payload_bytes = 0;
  std::uint64_t transit_peak_bytes = 0;

  int dim() const noexcept { return static_cast<int>(vpt_dims.size()); }
  std::uint64_t peak_buffer_bytes() const noexcept {
    return seed_payload_bytes + delivered_payload_bytes + transit_peak_bytes;
  }
};

/// Builds an ExchangePlanLayout from a stream of per-stage events, fed by a
/// recording Algorithm 1 run: StfwCommunicator::plan() or the transparent
/// cache's miss path, which run the same code and so freeze the same layout.
class PlanRecorder {
public:
  PlanRecorder(const Vpt& vpt, Rank me,
               std::span<const std::pair<Rank, std::uint32_t>> pattern);

  /// Record one outgoing stage frame. `srcs[k]` is the provenance of
  /// `subs[k]`'s payload (entries for zero-size submessages are ignored).
  void on_stage_send(int stage, Rank to, std::span<const Submessage> subs,
                     std::span<const PayloadSrc> srcs);

  /// Record one incoming stage frame (frames are appended in drain order).
  /// Returns the recorded frame; its subs carry the in-frame payload offsets
  /// the caller needs to register provenance for forwarded bytes.
  const PlanInFrame& on_stage_recv(int stage, Rank source,
                                   std::span<const Submessage> subs);

  /// Record forward-buffer residency at the end of `stage`.
  void on_stage_complete(int stage, std::uint64_t buffered_bytes,
                         std::uint64_t buffered_subs);

  /// Finish with the delivery list (already sorted by source) and each
  /// delivery's provenance. Invalidates the recorder.
  ExchangePlanLayout finish(std::span<const Submessage> delivered,
                            std::span<const PayloadSrc> delivered_srcs);

private:
  ExchangePlanLayout layout_;
};

/// Structural audit of a frozen layout, throwing core::ValidationError
/// ("plan-layout") on the first inconsistency. The zero-copy gather path
/// trusts the slot tables blindly on every replay — a mutated or corrupted
/// layout must be rejected here, before a single byte is read from caller
/// buffers, never discovered as an out-of-bounds memcpy. Checks: slot
/// offset/source tables agree in size; payload slots are ordered,
/// non-overlapping and inside their frame image; every seed reference is in
/// pattern range with the pattern's size; every recv reference points at a
/// recorded inbound frame and stays inside its wire size (deliveries
/// included); inbound submessage offsets stay inside their frame.
void validate_plan_layout(const ExchangePlanLayout& layout);

}  // namespace stfw::core
