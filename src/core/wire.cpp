#include "wire.hpp"

#include <cstring>

#include "error.hpp"

namespace stfw::core {

namespace {

template <class T>
std::byte* put(std::byte* out, T v) noexcept {
  std::memcpy(out, &v, sizeof(T));
  return out + sizeof(T);
}

template <class T>
T get(std::span<const std::byte> in, std::size_t& pos) {
  require(pos + sizeof(T) <= in.size(), "deserialize: truncated buffer");
  T v;
  std::memcpy(&v, in.data() + pos, sizeof(T));
  pos += sizeof(T);
  return v;
}

// `offset` leading bytes, then the stage message carrying `subs`; the
// tracked format differs only in its u32 id between dest and len.
std::vector<std::byte> with_body(std::size_t offset, std::span<const Submessage> subs,
                                 const PayloadArena& arena, bool tracked) {
  std::uint64_t payload_bytes = 0;
  for (const Submessage& s : subs) payload_bytes += s.size_bytes;
  std::vector<std::byte> out(offset + wire_size_bytes(subs.size(), payload_bytes) +
                             (tracked ? 4 * subs.size() : 0));
  std::byte* pos = write_count(out.data() + offset, static_cast<std::uint32_t>(subs.size()));
  for (const Submessage& s : subs) {
    pos = write_sub_header(pos, s, tracked);
    if (s.size_bytes > 0) std::memcpy(pos, arena.view(s).data(), s.size_bytes);
    pos += s.size_bytes;
  }
  return out;
}

// `frame`, whose body follows kFrameOverheadBytes, with header and checksum.
std::vector<std::byte> sealed(std::vector<std::byte> frame, FrameHeader h) noexcept {
  std::byte* pos = put<std::uint32_t>(frame.data(), kFrameMagic);
  pos = put<std::uint16_t>(pos, static_cast<std::uint16_t>(h.kind));
  pos = put<std::uint16_t>(pos, h.stage);
  pos = put<std::uint32_t>(pos, h.member_epoch);
  pos = put<std::uint32_t>(pos, h.seq);
  pos = put<std::int32_t>(pos, h.sender);
  pos = put<std::uint32_t>(pos, static_cast<std::uint32_t>(frame.size() - kFrameOverheadBytes));
  const std::span<const std::byte> all(frame);
  const auto framed = static_cast<std::size_t>(pos - frame.data());
  put<std::uint64_t>(pos, digest64(all.subspan(kFrameOverheadBytes), digest64(all.first(framed))));
  return frame;
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
  return with_body(0, subs, arena, false);
}

std::span<const Submessage> deserialize(std::span<const std::byte> wire, PayloadArena& arena,
                                        std::vector<Submessage>& out) {
  return deserialize_as(wire, arena, out, false);
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
  std::vector<std::byte> out(kFrameOverheadBytes + body.size());
  if (!body.empty()) std::memcpy(out.data() + kFrameOverheadBytes, body.data(), body.size());
  return sealed(std::move(out), header);
}

std::vector<std::byte> encode_frame(FrameHeader header, std::span<const Submessage> subs,
                                    const PayloadArena& arena) {
  return sealed(with_body(kFrameOverheadBytes, subs, arena, true), header);
}

std::optional<DecodedFrame> decode_frame(std::span<const std::byte> wire) noexcept {
  if (wire.size() < kFrameOverheadBytes) return std::nullopt;
  std::size_t pos = 0;
  if (get<std::uint32_t>(wire, pos) != kFrameMagic) return std::nullopt;
  DecodedFrame f;
  const auto kind = get<std::uint16_t>(wire, pos);
  if (kind < static_cast<std::uint16_t>(FrameKind::kData) ||
      kind > static_cast<std::uint16_t>(FrameKind::kRelay) || kind == 3 /* retired */)
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
