#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/exchange_plan.hpp"

/// \file exchange_plan.hpp
/// Runtime handle for a frozen exchange schedule (core::ExchangePlanLayout)
/// plus the pooled mutable scratch its replays reuse: the raw inbound frames
/// of each stage are parked here so every planned exchange on the same
/// pattern recycles the same allocations instead of rebuilding a
/// StfwRankState, a PayloadArena and per-submessage vectors.
///
/// A plan is produced by StfwCommunicator::plan() (collective) or recorded
/// transparently by the communicator's plan cache on the first exchange()
/// with a new pattern. It is valid for the Vpt and rank it was built for and
/// is not thread-safe: one plan belongs to one rank's communicator.

namespace stfw {
class StfwCommunicator;
}

namespace stfw::runtime {

/// One delivered message of a zero-copy replay: `bytes` aliases either the
/// plan's parked inbound frame buffers or (for self-sends) the caller's own
/// payload buffer — no copy is made. Views stay valid until the next
/// exchange on the same plan begins, the plan is destroyed, or (self-sends)
/// the caller's payload buffer goes away, whichever comes first. See
/// docs/performance.md, "Zero-copy replay".
struct InboundView {
  core::Rank source = -1;
  std::span<const std::byte> bytes;
};

class ExchangePlan {
public:
  /// Audits the layout's slot tables before anything replays them: the
  /// gather path memcpys blindly through the frozen offsets, so a corrupt
  /// layout must die here as core::ValidationError ("plan-layout"), never as
  /// an out-of-bounds read from caller buffers.
  explicit ExchangePlan(core::ExchangePlanLayout layout) : layout_(std::move(layout)) {
    core::validate_plan_layout(layout_);
    in_raw_.resize(layout_.in_frames.size());
    for (std::size_t s = 0; s < in_raw_.size(); ++s)
      in_raw_[s].resize(layout_.in_frames[s].size());
  }

  const core::ExchangePlanLayout& layout() const noexcept { return layout_; }
  const core::PatternSignature& signature() const noexcept { return layout_.signature; }

private:
  friend class stfw::StfwCommunicator;

  core::ExchangePlanLayout layout_;
  // in_raw_[stage][frame]: the raw wire bytes received in the most recent
  // replay. Buffers arrive by ownership transfer from Comm; the buffer a new
  // frame displaces is released into the communicator's pool, so steady-state
  // replays cycle a fixed working set of allocations.
  std::vector<std::vector<std::vector<std::byte>>> in_raw_;
  // Scratch behind the span exchange_views() returns. Cleared at replay
  // entry, so after a drift/validation throw the previous views are gone
  // rather than dangling into recycled buffers.
  std::vector<InboundView> views_;
};

}  // namespace stfw::runtime
