#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "vpt.hpp"

/// \file message.hpp
/// Submessages and payload storage.
///
/// The paper distinguishes *messages* (what travels between neighboring
/// processes in one stage, M_ij) from *submessages* (the original P2P
/// payloads (P_dest, m_src,dest) carried inside them). A submessage's
/// payload never changes while it is stored and forwarded, so payloads live
/// once in an append-only PayloadArena and submessages are small fixed-size
/// records referencing it. This is an implementation device of the in-process
/// substrates; the wire format serialized by wire.hpp carries the bytes.

namespace stfw::core {

/// One original point-to-point payload in flight: source, final destination,
/// and its bytes (offset/length into a PayloadArena).
struct Submessage {
  Rank source = -1;
  Rank dest = -1;
  std::uint64_t offset = 0;
  std::uint32_t size_bytes = 0;
  /// Per-source sequence number assigned at seeding, so (source, id)
  /// identifies a submessage exchange-wide. The resilient exchange carries
  /// it on the wire to deduplicate end-to-end when a retry-exhausted frame
  /// is re-routed directly even though the original was in fact accepted
  /// (the at-least-once window of docs/fault_model.md). The plain exchange
  /// ignores it.
  std::uint32_t id = 0;

  friend bool operator==(const Submessage&, const Submessage&) = default;
};

/// Append-only byte store for submessage payloads.
class PayloadArena {
public:
  /// Copies `bytes` into the arena and returns its offset.
  std::uint64_t add(std::span<const std::byte> bytes) {
    const std::uint64_t off = bytes_.size();
    bytes_.insert(bytes_.end(), bytes.begin(), bytes.end());
    return off;
  }

  std::span<const std::byte> view(const Submessage& s) const {
    return std::span<const std::byte>(bytes_.data() + s.offset, s.size_bytes);
  }

  std::uint64_t size_bytes() const noexcept { return bytes_.size(); }
  void clear() noexcept { bytes_.clear(); }
  void reserve(std::uint64_t n) { bytes_.reserve(n); }

private:
  std::vector<std::byte> bytes_;
};

/// One stage's coalesced messages (the paper's M_ij: all submessages a
/// process sends to one dimension-d neighbor in one stage) in flat form:
/// frame f carries `subs[f.first, f.first + f.count)` to neighbor `f.to`,
/// `f.payload_bytes` being their total size. Frames ascend by neighbor, and
/// a frame's submessages keep the order in which they were stashed.
struct StageOutbox {
  struct Frame {
    Rank to = -1;
    std::uint32_t first = 0;
    std::uint32_t count = 0;
    std::uint64_t payload_bytes = 0;
  };

  std::vector<Submessage> subs;
  std::vector<Frame> frames;

  std::span<const Submessage> subs_of(const Frame& f) const {
    return std::span(subs).subspan(f.first, f.count);
  }
};

}  // namespace stfw::core
