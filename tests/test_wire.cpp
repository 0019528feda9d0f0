#include "core/wire.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "core/error.hpp"

namespace stfw::core {
namespace {

std::vector<std::byte> bytes_of(std::initializer_list<int> values) {
  std::vector<std::byte> out;
  for (int v : values) out.push_back(static_cast<std::byte>(v));
  return out;
}

// Parses `wire` into a fresh submessage table.
std::vector<Submessage> parse(std::span<const std::byte> wire, PayloadArena& arena,
                              bool tracked = false) {
  std::vector<Submessage> out;
  if (tracked)
    deserialize_tracked(wire, arena, out);
  else
    deserialize(wire, arena, out);
  return out;
}

// The tracked body carrying `subs`, cut from the frame encoder's output:
// the tracked format is written only as a frame body.
std::vector<std::byte> tracked_body(std::span<const Submessage> subs, const PayloadArena& arena) {
  const std::vector<std::byte> frame = encode_frame(FrameHeader{}, subs, arena);
  return {frame.begin() + static_cast<std::ptrdiff_t>(kFrameOverheadBytes), frame.end()};
}

TEST(Wire, EmptyMessageRoundTrip) {
  PayloadArena arena;
  std::vector<Submessage> m;
  const auto wire = serialize(m, arena);
  EXPECT_EQ(wire.size(), wire_size_bytes(0, 0));
  PayloadArena arena2;
  const auto subs = parse(wire, arena2);
  EXPECT_TRUE(subs.empty());
}

TEST(Wire, RoundTripPreservesHeadersAndPayloads) {
  PayloadArena arena;
  std::vector<Submessage> m;
  const auto p1 = bytes_of({1, 2, 3, 4});
  const auto p2 = bytes_of({});
  const auto p3 = bytes_of({0xde, 0xad, 0xbe, 0xef, 0x42});
  m.push_back(Submessage{2, 9, arena.add(p1), 4});
  m.push_back(Submessage{3, 5, arena.add(p2), 0});
  m.push_back(Submessage{11, 9, arena.add(p3), 5});

  const auto wire = serialize(m, arena);
  EXPECT_EQ(wire.size(), wire_size_bytes(3, 9));

  PayloadArena arena2;
  const auto subs = parse(wire, arena2);
  ASSERT_EQ(subs.size(), 3u);
  EXPECT_EQ(subs[0].source, 2);
  EXPECT_EQ(subs[0].dest, 9);
  EXPECT_EQ(subs[1].source, 3);
  EXPECT_EQ(subs[1].dest, 5);
  EXPECT_EQ(subs[2].source, 11);
  EXPECT_EQ(subs[2].dest, 9);
  const auto v1 = arena2.view(subs[0]);
  const auto v3 = arena2.view(subs[2]);
  EXPECT_TRUE(std::equal(v1.begin(), v1.end(), p1.begin(), p1.end()));
  EXPECT_TRUE(std::equal(v3.begin(), v3.end(), p3.begin(), p3.end()));
}

TEST(Wire, RandomizedRoundTrip) {
  std::mt19937_64 rng(42);
  std::uniform_int_distribution<int> count_dist(0, 40);
  std::uniform_int_distribution<int> len_dist(0, 64);
  std::uniform_int_distribution<int> byte_dist(0, 255);
  for (int trial = 0; trial < 50; ++trial) {
    PayloadArena arena;
    std::vector<Submessage> m;
    const int count = count_dist(rng);
    std::vector<std::vector<std::byte>> payloads;
    for (int i = 0; i < count; ++i) {
      std::vector<std::byte> p(static_cast<std::size_t>(len_dist(rng)));
      for (auto& b : p) b = static_cast<std::byte>(byte_dist(rng));
      m.push_back(
          Submessage{i, i + 1, arena.add(p), static_cast<std::uint32_t>(p.size())});
      payloads.push_back(std::move(p));
    }
    PayloadArena arena2;
    const auto subs = parse(serialize(m, arena), arena2);
    ASSERT_EQ(subs.size(), payloads.size());
    for (std::size_t i = 0; i < subs.size(); ++i) {
      const auto view = arena2.view(subs[i]);
      EXPECT_TRUE(std::equal(view.begin(), view.end(), payloads[i].begin(), payloads[i].end()));
    }
  }
}

TEST(Wire, ParsesByAppendingToTheCallersTable) {
  PayloadArena arena;
  const auto p = bytes_of({7, 8, 9});
  const std::vector<Submessage> first{Submessage{1, 2, arena.add(p), 3}};
  const std::vector<Submessage> second{Submessage{4, 5, arena.add(p), 3},
                                       Submessage{6, 7, arena.add(p), 3}};
  PayloadArena arena2;
  std::vector<Submessage> table;
  const auto a = deserialize(serialize(first, arena), arena2, table);
  ASSERT_EQ(a.size(), 1u);
  EXPECT_EQ(a[0].source, 1);
  const auto b = deserialize(serialize(second, arena), arena2, table);
  ASSERT_EQ(table.size(), 3u);  // appended, not replaced
  ASSERT_EQ(b.size(), 2u);      // the returned range is the new frame's
  EXPECT_EQ(b.data(), table.data() + 1);
  EXPECT_EQ(b[1].dest, 7);
  const auto v = arena2.view(b[1]);
  EXPECT_TRUE(std::equal(v.begin(), v.end(), p.begin(), p.end()));
}

TEST(Wire, ClaimedCountReadsTheHeader) {
  PayloadArena arena;
  const std::vector<Submessage> subs(5, Submessage{0, 1, 0, 0});
  EXPECT_EQ(claimed_count(serialize(subs, arena)), 5u);
  EXPECT_EQ(claimed_count(tracked_body(subs, arena)), 5u);
  EXPECT_EQ(claimed_count(bytes_of({1, 0, 0})), 0u);  // shorter than the count
}

TEST(Wire, RejectsTruncatedHeader) {
  const auto wire = bytes_of({1, 0, 0});  // 3 bytes < u32 count
  PayloadArena arena;
  EXPECT_THROW(parse(wire, arena), Error);
}

TEST(Wire, RejectsTruncatedPayload) {
  PayloadArena arena;
  std::vector<Submessage> m;
  const auto p = bytes_of({1, 2, 3, 4, 5, 6, 7, 8});
  m.push_back(Submessage{0, 1, arena.add(p), 8});
  auto wire = serialize(m, arena);
  // erase, not resize(size() - 3): gcc 12 cannot see that size() >= 3 here and
  // flags the shrinking resize with a bogus -Wstringop-overflow under asan.
  wire.erase(wire.end() - 3, wire.end());
  PayloadArena arena2;
  EXPECT_THROW(parse(wire, arena2), Error);
}

TEST(Wire, RejectsTrailingGarbage) {
  PayloadArena arena;
  std::vector<Submessage> m;
  auto wire = serialize(m, arena);
  wire.push_back(std::byte{0});
  PayloadArena arena2;
  EXPECT_THROW(parse(wire, arena2), Error);
}

TEST(Wire, TrackedRoundTripPreservesIds) {
  PayloadArena arena;
  std::vector<Submessage> m;
  const auto p1 = bytes_of({1, 2, 3, 4});
  const auto p2 = bytes_of({});
  m.push_back(Submessage{2, 9, arena.add(p1), 4, 11});
  m.push_back(Submessage{3, 5, arena.add(p2), 0, 0xffffffffu});
  const auto wire = tracked_body(m, arena);
  // The tracked layout costs exactly 4 extra bytes per submessage.
  EXPECT_EQ(wire.size(), wire_size_bytes(2, 4) + 2 * 4);
  PayloadArena arena2;
  const auto subs = parse(wire, arena2, true);
  ASSERT_EQ(subs.size(), 2u);
  EXPECT_EQ(subs[0].source, 2);
  EXPECT_EQ(subs[0].dest, 9);
  EXPECT_EQ(subs[0].id, 11u);
  EXPECT_EQ(subs[1].id, 0xffffffffu);
  const auto v1 = arena2.view(subs[0]);
  EXPECT_TRUE(std::equal(v1.begin(), v1.end(), p1.begin(), p1.end()));
}

TEST(Wire, TrackedRejectsTruncation) {
  PayloadArena arena;
  std::vector<Submessage> m;
  const auto p = bytes_of({1, 2, 3, 4, 5, 6, 7, 8});
  m.push_back(Submessage{0, 1, arena.add(p), 8, 3});
  auto wire = tracked_body(m, arena);
  wire.erase(wire.end() - 3, wire.end());
  PayloadArena arena2;
  EXPECT_THROW(parse(wire, arena2, true), Error);
}

TEST(Frame, RoundTripPreservesHeaderAndBody) {
  const auto body = bytes_of({10, 20, 30, 40, 50});
  FrameHeader h;
  h.kind = FrameKind::kData;
  h.stage = 3;
  h.member_epoch = 17;
  h.seq = 12345;
  h.sender = 42;
  const auto wire = encode_frame(h, body);
  EXPECT_EQ(wire.size(), kFrameOverheadBytes + body.size());

  const auto dec = decode_frame(wire);
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(dec->header.kind, FrameKind::kData);
  EXPECT_EQ(dec->header.stage, 3);
  EXPECT_EQ(dec->header.member_epoch, 17u);
  EXPECT_EQ(dec->header.seq, 12345u);
  EXPECT_EQ(dec->header.sender, 42);
  EXPECT_EQ(dec->header.body_len, 5u);
  EXPECT_TRUE(std::equal(dec->body.begin(), dec->body.end(), body.begin(), body.end()));
}

TEST(Frame, EmptyBodyRoundTrip) {
  FrameHeader h;
  h.kind = FrameKind::kAck;
  h.seq = 9;
  h.sender = 1;
  const auto wire = encode_frame(h, {});
  EXPECT_EQ(wire.size(), kFrameOverheadBytes);
  const auto dec = decode_frame(wire);
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(dec->header.kind, FrameKind::kAck);
  EXPECT_TRUE(dec->body.empty());
}

TEST(Frame, DetectsTruncationAnywhere) {
  const auto body = bytes_of({1, 2, 3, 4, 5, 6, 7, 8});
  FrameHeader h;
  h.sender = 0;
  const auto wire = encode_frame(h, body);
  for (std::size_t len = 0; len < wire.size(); ++len) {
    const std::span<const std::byte> prefix(wire.data(), len);
    EXPECT_FALSE(decode_frame(prefix).has_value()) << "accepted a " << len << "-byte prefix";
  }
}

TEST(Frame, DetectsSingleBitCorruptionAnywhere) {
  FrameHeader h;
  h.kind = FrameKind::kRelay;
  h.member_epoch = 3;
  h.seq = 7;
  h.sender = 5;
  // Lengths on both sides of the digest's word (8) and lane-block (32)
  // boundaries, so the tail, leftover-word and lane paths all get mutated.
  for (const std::size_t len :
       std::initializer_list<std::size_t>{0, 1, 7, 8, 9, 31, 32, 33, 63, 64, 65}) {
    std::vector<std::byte> body(len);
    for (std::size_t i = 0; i < len; ++i) body[i] = static_cast<std::byte>(0xa5 ^ (i * 29));
    const auto wire = encode_frame(h, body);
    ASSERT_TRUE(decode_frame(wire).has_value()) << len << "-byte body";
    for (std::size_t i = 0; i < wire.size(); ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        auto bad = wire;
        bad[i] ^= static_cast<std::byte>(1 << bit);
        EXPECT_FALSE(decode_frame(bad).has_value())
            << len << "-byte body: accepted a flipped bit " << bit << " at byte " << i;
      }
    }
  }
}

TEST(Frame, RejectsWrongMagicAndBadKind) {
  FrameHeader h;
  h.sender = 0;
  auto wire = encode_frame(h, {});
  auto bad_magic = wire;
  bad_magic[0] = std::byte{0};
  EXPECT_FALSE(decode_frame(bad_magic).has_value());
  // Kind lives at offset 4; an out-of-range value must be rejected even if
  // someone recomputed the checksum over it. 3 was the retired direct
  // fallback's kind and 6 the retired failure notice's.
  for (const int kind : {0, 3, 6, 99}) {
    FrameHeader weird = h;
    weird.kind = static_cast<FrameKind>(kind);
    EXPECT_FALSE(decode_frame(encode_frame(weird, {})).has_value()) << "kind " << kind;
  }
}

TEST(Frame, ChecksumCoversHeaderNotJustBody) {
  // Two frames with identical bodies but different seq must have different
  // checksums — otherwise a reordered wire buffer could impersonate another
  // frame.
  const auto body = bytes_of({1, 2, 3});
  FrameHeader a;
  a.seq = 1;
  a.sender = 0;
  FrameHeader b = a;
  b.seq = 2;
  const auto wa = encode_frame(a, body);
  const auto wb = encode_frame(b, body);
  const std::span<const std::byte> ca(wa.data() + 24, 8);
  const std::span<const std::byte> cb(wb.data() + 24, 8);
  EXPECT_FALSE(std::equal(ca.begin(), ca.end(), cb.begin(), cb.end()));
}

TEST(Frame, MemberEpochRoundTripsAndIsChecksummed) {
  const auto body = bytes_of({9, 8, 7});
  FrameHeader h;
  h.kind = FrameKind::kRelay;
  h.stage = 1;
  h.member_epoch = 6;
  h.seq = 11;
  h.sender = 2;
  const auto wire = encode_frame(h, body);
  const auto dec = decode_frame(wire);
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(dec->header.kind, FrameKind::kRelay);
  EXPECT_EQ(dec->header.member_epoch, 6u);

  // Two frames differing only in membership claim must differ in checksum:
  // a stale frame cannot be patched into a fresh one without re-signing.
  FrameHeader h2 = h;
  h2.member_epoch = 7;
  const auto wire2 = encode_frame(h2, body);
  const std::span<const std::byte> ca(wire.data() + 24, 8);
  const std::span<const std::byte> cb(wire2.data() + 24, 8);
  EXPECT_FALSE(std::equal(ca.begin(), ca.end(), cb.begin(), cb.end()));
}

TEST(Frame, TrackedFrameIsTheFrameOfItsBody) {
  // The tracked encoder writes header and body in one buffer. Its bytes are
  // those of framing the tracked body on its own: u32 count, then per
  // submessage i32 source, i32 dest, u32 id, u32 len and the payload.
  PayloadArena arena;
  const auto p = bytes_of({7, 8, 9});
  const std::vector<Submessage> subs = {Submessage{5, 6, arena.add(p), 3, 0x01020304u}};
  FrameHeader h;
  h.kind = FrameKind::kRelay;
  h.member_epoch = 4;
  h.seq = 99;
  h.sender = 5;
  const auto wire = encode_frame(h, subs, arena);
  const auto body = bytes_of({1, 0, 0, 0, 5, 0, 0, 0, 6, 0, 0, 0, 4, 3, 2, 1, 3, 0, 0, 0, 7, 8, 9});
  EXPECT_EQ(wire, encode_frame(h, body));
  const auto dec = decode_frame(wire);
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(dec->header.seq, 99u);
  PayloadArena arena2;
  const auto back = parse(dec->body, arena2, true);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].id, 0x01020304u);
}

TEST(Frame, DigestIsStable) {
  // Reference values from an independent transcription of the digest64
  // definition (wire.hpp) on a little-endian host. The lengths cover the
  // tail-only (3), one-word (8), words-plus-tail (31), one lane block (32),
  // block-plus-tail (33) and many-block (4096) paths.
  std::vector<std::byte> data(4096);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<std::byte>(i * 37 + 11);
  const std::span<const std::byte> all(data);
  EXPECT_EQ(digest64({}), 0x9fffe57be8b2ba21ull);
  EXPECT_EQ(digest64(all.first(3)), 0xc752db8cc1670419ull);
  EXPECT_EQ(digest64(all.first(8)), 0x702a81659f8ef0e6ull);
  EXPECT_EQ(digest64(all.first(31)), 0x75a01388a2c49648ull);
  EXPECT_EQ(digest64(all.first(32)), 0x5f740af6319f2e7dull);
  EXPECT_EQ(digest64(all.first(33)), 0xd1594e56517868d3ull);
  EXPECT_EQ(digest64(all), 0x37a01db0e163ae21ull);
  EXPECT_EQ(digest64(bytes_of({'a', 'b', 'c'}), 1), 0x94afe98330fc0cffull);
}

TEST(PayloadArenaTest, ViewsRemainValidAcrossAdds) {
  PayloadArena arena;
  const auto p1 = bytes_of({1, 2, 3});
  const Submessage s1{0, 1, arena.add(p1), 3};
  for (int i = 0; i < 1000; ++i) arena.add(p1);
  const auto view = arena.view(s1);
  EXPECT_TRUE(std::equal(view.begin(), view.end(), p1.begin(), p1.end()));
  EXPECT_EQ(arena.size_bytes(), 3u * 1001u);
}

}  // namespace
}  // namespace stfw::core
