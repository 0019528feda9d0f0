#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

/// \file buffer_pool.hpp
/// Size-classed recycling of wire buffers.
///
/// The zero-copy replay path (docs/performance.md, "Zero-copy replay")
/// gathers every outgoing coalesced frame straight into one wire buffer and
/// parks every inbound raw frame until the next replay reuses its slots. Allocating those buffers fresh per (stage, neighbor)
/// per iteration puts the allocator on the hot path of exactly the loop the
/// plan layer exists to strip bare; the pool recycles them instead.
///
/// Buffers are binned by power-of-two capacity classes (kMinClassBytes up).
/// acquire(n) pops a cached buffer whose capacity covers the class of n —
/// steady-state replays request identical sizes, so the resize is a no-op
/// and no bytes are touched — and falls back to a fresh allocation sized to
/// the full class, so the buffer is reusable for anything in its class for
/// the rest of its life. release() returns a buffer to its class, dropping
/// it when the class is already full (the pool must never become a leak).
///
/// Under STFW_SANITIZE builds (STFW_SANITIZE_ENABLED) every released buffer
/// is poisoned with 0xA5 so a stale view into a recycled buffer reads
/// garbage loudly instead of yesterday's payload; the gather path overwrites
/// every byte it sends, so poison can never leak onto the wire.
///
/// Single-threaded by design: each StfwCommunicator owns one pool and calls
/// it only from its own rank thread. Buffers migrate across ranks inside
/// messages (acquired from the sender's pool, released into the receiver's);
/// a pool only ever touches buffers currently owned by its thread.

namespace stfw::core {

/// Cumulative counters; LocalExchangeStats reports per-exchange deltas.
struct BufferPoolStats {
  std::int64_t hits = 0;           // acquire served from the cache
  std::int64_t misses = 0;         // acquire fell back to the allocator
  std::int64_t dropped = 0;        // release into a full class (buffer freed)
  std::uint64_t reused_bytes = 0;  // bytes handed out without allocating
};

class BufferPool {
public:
  /// A buffer of exactly `bytes` size whose capacity covers the full size
  /// class. Contents are unspecified (poison after a sanitized reuse, zero
  /// when freshly allocated); callers must write every byte they send.
  std::vector<std::byte> acquire(std::size_t bytes);

  /// Return a buffer to the pool. Buffers below the minimum class or into a
  /// full class are simply freed. Safe for buffers the pool never handed
  /// out (inbound frames allocated by a peer's pool or by the unplanned
  /// path); they are binned by their actual capacity.
  void release(std::vector<std::byte> buf);

  /// Drop every cached buffer (the counters survive).
  void clear() { classes_.clear(); }

  [[nodiscard]] const BufferPoolStats& stats() const noexcept { return stats_; }

  /// Capacity of the size class serving a `bytes`-sized acquire.
  static std::size_t class_bytes(std::size_t bytes) noexcept;

  static constexpr std::size_t kMinClassBytes = 64;
  static constexpr std::size_t kMaxCachedPerClass = 32;

private:
  std::vector<std::vector<std::vector<std::byte>>> classes_;  // [class][cached]
  BufferPoolStats stats_;
};

}  // namespace stfw::core
