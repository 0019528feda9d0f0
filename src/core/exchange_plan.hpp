#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "message.hpp"
#include "vpt.hpp"

/// \file exchange_plan.hpp
/// Frozen layout of one store-and-forward exchange. Iterative SpMV (§5)
/// repeats the same send pattern every iteration, so — as MPI persistent
/// collectives do — the routes and frame layouts are recorded once and
/// replayed. ExchangePlanLayout is that record, one rank's view, in a few
/// flat tables: every frame this rank sends (a range of the submessage table
/// `out_subs`, whose headers the replay writes onto the wire, and of the
/// parallel `out_srcs`, naming each payload's bytes), every frame it
/// receives (source, wire size, a range of `in_subs`), and the delivery
/// list. Frames are PODs, so recording one allocates nothing of its own, and
/// a replay needs no StfwRankState, no PayloadArena — only header writes and
/// payload memcpys. The executor lives in runtime::StfwCommunicator.

namespace stfw::core {

/// Where the bytes of one planned payload come from at replay time: either
/// the caller's seed payload number `index`, or `bytes` bytes at `offset`
/// inside inbound frame `frame` of stage `stage`. Empty submessages carry a
/// default PayloadSrc, through which no byte is read.
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

/// One outgoing coalesced frame: its submessages are
/// `out_subs[first, first + count)`, their sources the same range of
/// `out_srcs`, and `payload_bytes` the sum of their sizes.
struct PlanOutFrame {
  Rank to = -1;
  std::uint32_t first = 0;
  std::uint32_t count = 0;
  std::uint64_t payload_bytes = 0;
};

/// One expected incoming frame: who sends it, how big it must be, and its
/// submessages `in_subs[first, first + count)`, whose Submessage::offset is
/// the payload's byte offset *within the frame*.
struct PlanInFrame {
  Rank source = -1;
  std::uint64_t wire_size = 0;
  std::uint32_t first = 0;
  std::uint32_t count = 0;
};

/// One delivery: the InboundMessage's source rank and where its bytes live.
struct PlanDelivery {
  Rank source = -1;
  PayloadSrc src;
};

/// The complete frozen exchange, one rank's view. Immutable once built.
struct ExchangePlanLayout {
  /// The recorded send pattern: the caller's (dest, size) sequence, in send
  /// order. A replay needs exactly this sequence, since payload sources are
  /// positional.
  std::vector<std::pair<Rank, std::uint32_t>> pattern;
  Rank rank = -1;

  /// Frames in stage order: stage s owns out_frames[out_stage_begin[s],
  /// out_stage_begin[s + 1]), likewise in_frames; dim() + 1 begins each.
  std::vector<PlanOutFrame> out_frames;
  std::vector<std::uint32_t> out_stage_begin;
  std::vector<Submessage> out_subs;
  std::vector<PayloadSrc> out_srcs;  // parallel to out_subs
  std::vector<PlanInFrame> in_frames;  // drain (ascending-source) order
  std::vector<std::uint32_t> in_stage_begin;
  std::vector<Submessage> in_subs;
  std::vector<PlanDelivery> deliveries;  // sorted by source

  /// Forward-buffer residency (bytes, submessages) after each stage, frozen
  /// for the validator's on_stage_complete hook.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> stage_buffered;

  /// The paper's buffer metric (§6.2): seed plus delivered payload bytes
  /// plus the forward-buffer peak, identical every replay by construction.
  std::uint64_t peak_buffer_bytes = 0;

  int dim() const noexcept {
    return out_stage_begin.empty() ? 0 : static_cast<int>(out_stage_begin.size()) - 1;
  }

  // Views of an audited layout (validate_plan_layout).
  std::span<const PlanOutFrame> out_stage(int s) const {
    return stage_of(out_frames, out_stage_begin, s);
  }
  std::span<const PlanInFrame> in_stage(int s) const {
    return stage_of(in_frames, in_stage_begin, s);
  }
  std::span<const Submessage> subs_of(const PlanOutFrame& f) const { return range(out_subs, f); }
  std::span<const PayloadSrc> srcs_of(const PlanOutFrame& f) const { return range(out_srcs, f); }
  std::span<const Submessage> subs_of(const PlanInFrame& f) const { return range(in_subs, f); }
  /// in_frames position of the frame a kRecv source reads.
  std::size_t in_frame_of(const PayloadSrc& src) const {
    return in_stage_begin[src.stage] + std::size_t{src.frame};
  }

private:
  template <class T, class F>
  static std::span<const T> range(const std::vector<T>& table, const F& f) {
    return std::span(table).subspan(f.first, f.count);
  }
  template <class T>
  static std::span<const T> stage_of(const std::vector<T>& frames,
                                     const std::vector<std::uint32_t>& begin, int s) {
    const auto i = static_cast<std::size_t>(s);
    return std::span(frames).subspan(begin[i], begin[i + 1] - begin[i]);
  }
};

/// Builds an ExchangePlanLayout from the recording Algorithm 1 run of a
/// plan-cache miss in StfwCommunicator::exchange(), in stage order: a
/// stage's sends and receives, then its on_stage_complete. Every Submessage
/// handed in carries its payload's offset in the run's append-only
/// PayloadArena; the recorder maps each nonempty payload's offset to where a
/// replay finds the same bytes.
class PlanRecorder {
public:
  /// `seeds` is a capacity hint: the number of on_seed calls to come.
  PlanRecorder(const Vpt& vpt, Rank me, std::size_t seeds);

  /// Record the caller's next send, whose payload sits at `arena_offset`.
  void on_seed(Rank dest, std::uint64_t arena_offset, std::uint32_t bytes);

  /// Capacity hints, once per stage: the current stage is about to record
  /// `frames` outgoing (reserve_sends) or incoming (reserve_recvs) frames
  /// carrying `subs` submessages in all, so the tables grow once per stage
  /// instead of by doubling.
  void reserve_sends(std::size_t frames, std::size_t subs);
  void reserve_recvs(std::size_t frames, std::size_t subs);

  /// Record one outgoing frame of the current stage. Throws
  /// ValidationError ("plan-layout") when a nonempty payload's arena offset
  /// was never recorded as a seed or a received payload.
  void on_stage_send(int stage, Rank to, std::span<const Submessage> subs);

  /// Record one incoming frame of the current stage, in drain order; its
  /// payloads become sources for later stages and deliveries.
  void on_stage_recv(int stage, Rank source, std::span<const Submessage> subs);

  /// Record forward-buffer residency at the end of `stage`, closing it.
  void on_stage_complete(int stage, std::uint64_t buffered_bytes,
                         std::uint64_t buffered_subs);

  /// Finish, after every stage completed, with the delivery list (already
  /// sorted by source) and the run's buffer metric. Invalidates the recorder.
  ExchangePlanLayout finish(std::span<const Submessage> delivered,
                            std::uint64_t peak_buffer_bytes);

private:
  void note(std::uint64_t arena_offset, const PayloadSrc& src);
  PayloadSrc source_of(const Submessage& s) const;

  ExchangePlanLayout layout_;
  int stage_ = 0;  // the stage being recorded
  // (arena offset, source) of every nonempty payload, ascending by offset:
  // the arena only grows, so appends arrive in order.
  std::vector<std::pair<std::uint64_t, PayloadSrc>> provenance_;
};

/// Structural audit of a frozen layout, throwing core::ValidationError
/// ("plan-layout") on the first inconsistency. The gather trusts the tables
/// on every replay — it sizes each frame buffer from `payload_bytes` — so a
/// corrupt layout must die here, never as an out-of-bounds memcpy. Checks:
/// the stage begin tables agree on dim() and cover their frame tables
/// contiguously; out_srcs matches out_subs in size; frame ranges tile their
/// submessage table in order; each source's size is its submessage's; each
/// payload_bytes is its frame's sum; each inbound wire_size is
/// 4 + Σ(12 + size), with every payload offset where that puts it; seed
/// references match the pattern; recv references name a recorded frame of
/// an earlier stage (any stage, for deliveries) and stay inside it.
void validate_plan_layout(const ExchangePlanLayout& layout);

}  // namespace stfw::core
