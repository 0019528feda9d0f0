#include "wire.hpp"

#include <cstring>

#include "error.hpp"

namespace stfw::core {

namespace {

// resize + memcpy rather than insert(end, p, p + sizeof(T)): gcc 12's
// -Wstringop-overflow misfires on the 4-byte insert path at -O2.
template <class T>
void put(std::vector<std::byte>& out, T v) {
  const std::size_t pos = out.size();
  out.resize(pos + sizeof(T));
  std::memcpy(out.data() + pos, &v, sizeof(T));
}

template <class T>
T get(std::span<const std::byte> in, std::size_t& pos) {
  require(pos + sizeof(T) <= in.size(), "deserialize: truncated buffer");
  T v;
  std::memcpy(&v, in.data() + pos, sizeof(T));
  pos += sizeof(T);
  return v;
}

// The plain and the tracked formats differ only in the tracked one's u32 id
// between dest and len.
std::vector<std::byte> serialize_as(std::span<const Submessage> subs, const PayloadArena& arena,
                                    bool tracked) {
  std::uint64_t payload_bytes = 0;
  for (const Submessage& s : subs) payload_bytes += s.size_bytes;
  std::vector<std::byte> out(wire_size_bytes(subs.size(), payload_bytes) +
                             (tracked ? 4 * subs.size() : 0));
  std::byte* pos = write_count(out.data(), static_cast<std::uint32_t>(subs.size()));
  for (const Submessage& s : subs) {
    pos = write_sub_header(pos, s, tracked);
    if (s.size_bytes > 0) std::memcpy(pos, arena.view(s).data(), s.size_bytes);
    pos += s.size_bytes;
  }
  return out;
}

std::span<const Submessage> deserialize_as(std::span<const std::byte> wire, PayloadArena& arena,
                                           std::vector<Submessage>& out, bool tracked) {
  std::size_t pos = 0;
  const auto count = get<std::uint32_t>(wire, pos);
  // Every submessage needs at least its header.
  require(static_cast<std::uint64_t>(count) * (kSubHeaderBytes + (tracked ? 4 : 0)) <=
              wire.size() - pos,
          "deserialize: submessage count exceeds buffer");
  const std::size_t first = out.size();
  for (std::uint32_t i = 0; i < count; ++i) {
    Submessage s;
    s.source = get<std::int32_t>(wire, pos);
    s.dest = get<std::int32_t>(wire, pos);
    if (tracked) s.id = get<std::uint32_t>(wire, pos);
    s.size_bytes = get<std::uint32_t>(wire, pos);
    require(pos + s.size_bytes <= wire.size(), "deserialize: truncated payload");
    s.offset = arena.add(std::span<const std::byte>(wire.data() + pos, s.size_bytes));
    pos += s.size_bytes;
    out.push_back(s);
  }
  require(pos == wire.size(), "deserialize: trailing bytes");
  return std::span<const Submessage>(out).subspan(first);
}

}  // namespace

std::vector<std::byte> serialize(std::span<const Submessage> subs, const PayloadArena& arena) {
  return serialize_as(subs, arena, false);
}

std::span<const Submessage> deserialize(std::span<const std::byte> wire, PayloadArena& arena,
                                        std::vector<Submessage>& out) {
  return deserialize_as(wire, arena, out, false);
}

std::vector<std::byte> serialize_tracked(std::span<const Submessage> subs,
                                         const PayloadArena& arena) {
  return serialize_as(subs, arena, true);
}

std::span<const Submessage> deserialize_tracked(std::span<const std::byte> wire,
                                                PayloadArena& arena,
                                                std::vector<Submessage>& out) {
  return deserialize_as(wire, arena, out, true);
}

std::uint64_t digest64(std::span<const std::byte> bytes, std::uint64_t seed) noexcept {
  const auto step = [](std::uint64_t h, std::uint64_t word) {
    return (h ^ word) * 1099511628211ull;
  };
  const auto word_at = [&bytes](std::size_t pos) {
    std::uint64_t w = 0;
    std::memcpy(&w, bytes.data() + pos, sizeof w);
    return w;
  };
  const std::size_t n = bytes.size();
  std::size_t pos = 0;
  // Four lanes with distinct seeds keep four multiply chains in flight; a
  // single chain would wait out the multiply latency on every word.
  std::uint64_t a = 0x9e3779b97f4a7c15ull;
  std::uint64_t b = 0xc2b2ae3d27d4eb4full;
  std::uint64_t c = 0x165667b19e3779f9ull;
  std::uint64_t d = 0x27d4eb2f165667c5ull;
  for (; n - pos >= 32; pos += 32) {
    a = step(a, word_at(pos));
    b = step(b, word_at(pos + 8));
    c = step(c, word_at(pos + 16));
    d = step(d, word_at(pos + 24));
  }
  std::uint64_t h = step(step(step(step(seed, a), b), c), d);
  h = step(h, n);
  for (; n - pos >= 8; pos += 8) h = step(h, word_at(pos));
  if (pos < n) {
    std::uint64_t tail = 0;
    std::memcpy(&tail, bytes.data() + pos, n - pos);
    h = step(h, tail);
  }
  return h;
}

std::vector<std::byte> encode_frame(FrameHeader header, std::span<const std::byte> body) {
  header.body_len = static_cast<std::uint32_t>(body.size());
  std::vector<std::byte> out;
  out.reserve(kFrameOverheadBytes + body.size());
  put<std::uint32_t>(out, kFrameMagic);
  put<std::uint16_t>(out, static_cast<std::uint16_t>(header.kind));
  put<std::uint16_t>(out, header.stage);
  put<std::uint32_t>(out, header.member_epoch);
  put<std::uint32_t>(out, header.seq);
  put<std::int32_t>(out, header.sender);
  put<std::uint32_t>(out, header.body_len);
  // Checksum covers everything framed so far plus the body.
  const std::uint64_t sum = digest64(body, digest64(out));
  put<std::uint64_t>(out, sum);
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

std::optional<DecodedFrame> decode_frame(std::span<const std::byte> wire) noexcept {
  if (wire.size() < kFrameOverheadBytes) return std::nullopt;
  std::size_t pos = 0;
  if (get<std::uint32_t>(wire, pos) != kFrameMagic) return std::nullopt;
  DecodedFrame f;
  const auto kind = get<std::uint16_t>(wire, pos);
  if (kind < static_cast<std::uint16_t>(FrameKind::kData) ||
      kind > static_cast<std::uint16_t>(FrameKind::kRelay))
    return std::nullopt;
  f.header.kind = static_cast<FrameKind>(kind);
  f.header.stage = get<std::uint16_t>(wire, pos);
  f.header.member_epoch = get<std::uint32_t>(wire, pos);
  f.header.seq = get<std::uint32_t>(wire, pos);
  f.header.sender = get<std::int32_t>(wire, pos);
  f.header.body_len = get<std::uint32_t>(wire, pos);
  const std::size_t checksum_pos = pos;
  const auto claimed = get<std::uint64_t>(wire, pos);
  if (wire.size() != kFrameOverheadBytes + f.header.body_len) return std::nullopt;
  f.body = wire.subspan(pos);
  const std::uint64_t sum = digest64(f.body, digest64(wire.first(checksum_pos)));
  if (sum != claimed) return std::nullopt;
  return f;
}

}  // namespace stfw::core
