#pragma once

#include <cstdint>
#include <vector>

#include "message.hpp"
#include "vpt.hpp"

/// \file rank_state.hpp
/// Per-process state of the store-and-forward scheme — Algorithm 1.
///
/// StfwRankState owns the forward buffers fwbuf[d][x] of one process and
/// implements the three phases of Algorithm 1:
///
///   1. seeding from the process's SendSet (lines 4-6),
///   2. per-stage outbox formation (lines 9-12) and scatter of received
///      submessages into later-stage buffers (lines 14-17),
///   3. gathering the submessages destined for this process (lines 18-21).
///
/// Both execution substrates (the threaded runtime and the BSP simulator)
/// drive this one class, so routing behaviour cannot diverge between them.

namespace stfw::core {

class StfwRankState {
public:
  StfwRankState(const Vpt& vpt, Rank me);

  Rank rank() const noexcept { return me_; }
  const Vpt& vpt() const noexcept { return *vpt_; }

  /// Algorithm 1 lines 4-6: queue an original message for `dest` in the
  /// buffer of the first dimension where our coordinates differ. A message
  /// to ourselves is delivered immediately (it never hits the network).
  /// `id` is the per-source submessage id (see Submessage::id); the plain
  /// exchange leaves it 0.
  void add_send(Rank dest, std::uint64_t payload_offset, std::uint32_t payload_bytes,
                std::uint32_t id = 0);

  /// Algorithm 1 lines 9-12: move the dimension-`stage` buffers out as
  /// coalesced messages, one frame per neighbor with something to forward,
  /// replacing the contents of `out` (whose capacity is reused). Frames
  /// ascend by neighbor; a frame's submessages keep their stash order.
  /// Buffers for `stage` are consumed by this call; routing guarantees
  /// nothing is scattered into them afterwards (asserted).
  void make_stage_outbox(int stage, StageOutbox& out);

  /// Algorithm 1 lines 14-17: scatter submessages received in `stage` into
  /// the buffers of the first dimension > stage where we differ from the
  /// destination; submessages addressed to us are delivered.
  void accept(int stage, std::span<const Submessage> subs);

  /// Algorithm 1 lines 18-21: the list L of submessages for this process,
  /// in arrival order. Complete after all n stages have run.
  const std::vector<Submessage>& delivered() const noexcept { return delivered_; }
  std::vector<Submessage> take_delivered() noexcept { return std::move(delivered_); }

  /// Bytes of payload currently parked in forward buffers.
  std::uint64_t buffered_payload_bytes() const noexcept { return buffered_bytes_; }

  /// Submessages currently parked in forward buffers — the paper's per-stage
  /// residency count (≤ K-1 for single-message-per-pair patterns).
  std::uint64_t buffered_submessage_count() const noexcept { return buffered_count_; }

  /// Total payload bytes delivered to this process so far.
  std::uint64_t delivered_payload_bytes() const noexcept { return delivered_bytes_; }

  /// Reset all buffers for a fresh exchange on the same VPT. Capacity is
  /// kept, so a reused state allocates only where an exchange outgrows the
  /// ones before it.
  void reset();

private:
  /// A submessage parked for stage d: `key` is the neighbor's digit d in
  /// the high half and the submessage's index in the stage's buffer in the
  /// low half, so sorting by key groups a neighbor's submessages in stash
  /// order without a stable sort.
  struct Parked {
    std::uint64_t key = 0;
    Submessage sub;
  };

  void stash(int stage_from, const Submessage& s);

  const Vpt* vpt_;
  Rank me_;
  int stages_consumed_ = 0;  // buffers for stages < this are gone
  // fwbuf_[d]: the paper's fwbuf[d][x] for every x at once, one flat vector
  // per dimension in stash order. Slot x == our own digit d never occurs
  // (self-routing is resolved at delivery). Flat rather than one vector per
  // x: a dimension of size k_d would otherwise cost up to k_d small vectors
  // per rank and stage, which is O(K^2) across ranks for the direct
  // topology at large K.
  std::vector<std::vector<Parked>> fwbuf_;
  std::vector<Submessage> delivered_;
  std::uint64_t buffered_bytes_ = 0;
  std::uint64_t buffered_count_ = 0;
  std::uint64_t delivered_bytes_ = 0;
};

}  // namespace stfw::core
