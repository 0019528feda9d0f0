#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <vector>

#include "message.hpp"

/// \file wire.hpp
/// Wire format of a coalesced stage message.
///
/// Layout (little-endian, packed):
///   u32 count
///   count times: { i32 source, i32 dest, u32 len, u8 bytes[len] }
/// The *tracked* format, the body of the resilient exchange's frames, also
/// carries each submessage's per-source id, between dest and len.
///
/// The threaded runtime ships stage messages in this format (as a real MPI
/// implementation would); the BSP simulator skips the byte copies but the
/// format is still what the buffer-size metric charges for.
///
/// On top of it sits a *frame* layer used by the resilient exchange
/// (docs/fault_model.md): every transmission is wrapped in a checksummed,
/// sequence-numbered header so drops, duplicates, reordering and truncation
/// become detectable and recoverable instead of fatal.

namespace stfw::core {

/// Bytes of the u32 count that opens a stage message and of each
/// submessage header {i32 source, i32 dest, u32 len}.
inline constexpr std::uint64_t kCountBytes = 4;
inline constexpr std::uint64_t kSubHeaderBytes = 12;

/// Bytes the wire format needs for a stage message with `count` submessages
/// totalling `payload_bytes` of payload.
constexpr std::uint64_t wire_size_bytes(std::uint64_t count, std::uint64_t payload_bytes) {
  return kCountBytes + count * kSubHeaderBytes + payload_bytes;
}

/// The one writer of the stage-message framing, shared by both encoders and
/// the plan replay's gather. Each writes at `out` and returns the position
/// past what it wrote; a submessage's payload follows its header.
inline std::byte* write_count(std::byte* out, std::uint32_t count) noexcept {
  std::memcpy(out, &count, kCountBytes);
  return out + kCountBytes;
}
inline std::byte* write_sub_header(std::byte* out, const Submessage& s,
                                   bool tracked = false) noexcept {
  std::memcpy(out, &s.source, 4);
  std::memcpy(out + 4, &s.dest, 4);
  if (tracked) std::memcpy(out + 8, &s.id, 4);
  std::memcpy(out + (tracked ? 12 : 8), &s.size_bytes, 4);
  return out + kSubHeaderBytes + (tracked ? 4 : 0);
}

/// Serialize one coalesced stage message carrying `subs`, pulling payload
/// bytes from `arena`.
std::vector<std::byte> serialize(std::span<const Submessage> subs, const PayloadArena& arena);

/// Parse a wire buffer: its payloads are appended to `arena` and its
/// submessages, which reference them, to `out`, whose capacity a caller
/// parsing frame after frame reuses. Returns the appended range of `out`.
/// Throws Error on malformed input, possibly after appending a prefix.
std::span<const Submessage> deserialize(std::span<const std::byte> wire, PayloadArena& arena,
                                        std::vector<Submessage>& out);

/// deserialize for the tracked format: final destinations use the ids to
/// drop a submessage that arrives both via store-and-forward and via the
/// direct fallback.
std::span<const Submessage> deserialize_tracked(std::span<const std::byte> wire,
                                                PayloadArena& arena,
                                                std::vector<Submessage>& out);

/// The submessage count a stage message's header claims, in either format;
/// 0 for a buffer too short to hold one. Unvalidated: deserialize checks it.
inline std::uint32_t claimed_count(std::span<const std::byte> wire) noexcept {
  std::uint32_t count = 0;
  if (wire.size() >= kCountBytes) std::memcpy(&count, wire.data(), kCountBytes);
  return count;
}

// --- resilient frame layer -------------------------------------------------
//
// Frame layout (little-endian, packed):
//   u32 magic  u16 kind  u16 stage  u32 member_epoch  u32 seq  i32 sender
//   u32 body_len  u64 checksum  u8 body[body_len]
//
// `seq` is monotonically increasing per sender within one exchange, and each
// exchange posts its frames under a tag of its own (Comm::reserve_tags), so
// every frame a rank emits is identified by (tag, sender, seq); acks echo the
// seq they acknowledge. `member_epoch` is the cluster membership
// version the sender believed in when it built the frame: receivers whose
// membership has advanced past it nack the frame, forcing the sender to
// observe the failure and re-route before retrying (docs/fault_model.md,
// "Membership epochs"). `checksum` is digest64 of the body, seeded with
// digest64 of all preceding header bytes; with the exact-length check it
// catches truncation and any corruption confined to one 8-byte word of the
// header or the body, which covers every single-bit and single-byte fault.

inline constexpr std::uint32_t kFrameMagic = 0x53544652u;  // "STFR"
inline constexpr std::uint64_t kFrameOverheadBytes = 32;

enum class FrameKind : std::uint16_t {
  kData = 1,   // a serialized stage message routed between stage neighbors
  kAck = 2,    // acknowledges (sender, seq); empty body
  // 3 was the retired kDirect; decode_frame rejects it.
  kNack = 4,   // refuses (sender, seq): receiver moved past that stage or
               // has a newer membership epoch; the sender should re-route
               // instead of retrying
  kRelay = 5,  // tracked submessages off the stages (detours around a dead
               // rank, fallbacks), sent straight to their destination,
               // which delivers them all
};

struct FrameHeader {
  FrameKind kind = FrameKind::kData;
  std::uint16_t stage = 0;  // sending stage, echoed by kAck/kNack; 0 for kRelay
  std::uint32_t member_epoch = 0;  // sender's membership version
  std::uint32_t seq = 0;    // per-sender frame counter (acked seq for kAck)
  std::int32_t sender = -1; // authoritative origin of the frame
  std::uint32_t body_len = 0;
};

/// A decoded frame; `body` aliases the input buffer.
struct DecodedFrame {
  FrameHeader header;
  std::span<const std::byte> body;
};

/// 64-bit digest of `bytes`, chained through `seed`. `bytes` is read as
/// 8-byte words in host byte order, like every field here, in four lanes;
/// the lanes, the length, the leftover words and the zero-padded tail are
/// then folded in order. Every step is `h = (h ^ word) * 1099511628211`, a
/// bijection of `h` for a fixed word and of the word for a fixed `h`, so
/// any change confined to one 8-byte word of `bytes`, or to `seed`, changes
/// the digest. Differences spread only toward higher bits, so changes in
/// several words can cancel: a checksum, not a hash for adversarial input.
std::uint64_t digest64(std::span<const std::byte> bytes,
                       std::uint64_t seed = 14695981039346656037ull) noexcept;

/// Wrap `body` in a frame with `header` (its body_len is overwritten) and a
/// freshly computed checksum. The second form frames the tracked stage
/// message carrying `subs`, written in place with payloads from `arena`.
std::vector<std::byte> encode_frame(FrameHeader header, std::span<const std::byte> body);
std::vector<std::byte> encode_frame(FrameHeader header, std::span<const Submessage> subs,
                                    const PayloadArena& arena);

/// Parse a frame. Returns std::nullopt — never throws — when the buffer is
/// truncated, carries the wrong magic, or fails the checksum: a corrupt
/// frame is indistinguishable from a lost one and is recovered the same way
/// (sender retransmission), so it is dropped rather than raised.
std::optional<DecodedFrame> decode_frame(std::span<const std::byte> wire) noexcept;

}  // namespace stfw::core
