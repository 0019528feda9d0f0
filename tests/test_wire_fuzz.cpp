// Property/fuzz tests of the wire formats (ISSUE 4 satellite). Run under the
// asan-ubsan preset these double as memory-safety proofs: every single-byte
// mutation of a checksummed frame must be rejected, and no mutation of any
// wire image — frame or plain — may read out of bounds or crash.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "core/exchange_plan.hpp"
#include "core/message.hpp"
#include "core/vpt.hpp"
#include "core/wire.hpp"

namespace stfw::core {
namespace {

std::vector<std::byte> random_body(std::mt19937_64& rng, std::size_t max_len) {
  std::uniform_int_distribution<std::size_t> len_dist(0, max_len);
  std::uniform_int_distribution<int> byte_dist(0, 255);
  std::vector<std::byte> body(len_dist(rng));
  for (std::byte& b : body) b = static_cast<std::byte>(byte_dist(rng));
  return body;
}

FrameHeader random_header(std::mt19937_64& rng) {
  constexpr std::array kLiveKinds = {FrameKind::kData, FrameKind::kAck, FrameKind::kNack,
                                     FrameKind::kRelay};
  std::uniform_int_distribution<std::size_t> kind_dist(0, kLiveKinds.size() - 1);
  std::uniform_int_distribution<std::uint32_t> u32_dist;
  FrameHeader h;
  h.kind = kLiveKinds[kind_dist(rng)];
  h.stage = static_cast<std::uint16_t>(u32_dist(rng) & 0xffff);
  h.member_epoch = u32_dist(rng);
  h.seq = u32_dist(rng);
  h.sender = static_cast<std::int32_t>(u32_dist(rng) & 0x7fffffff);
  return h;
}

TEST(WireFuzz, RandomFramesRoundTripLosslessly) {
  std::mt19937_64 rng(20190717);
  for (int trial = 0; trial < 200; ++trial) {
    const FrameHeader h = random_header(rng);
    const auto body = random_body(rng, 256);
    const auto wire = encode_frame(h, body);
    ASSERT_EQ(wire.size(), kFrameOverheadBytes + body.size());

    const auto decoded = decode_frame(wire);
    ASSERT_TRUE(decoded.has_value()) << "trial " << trial;
    EXPECT_EQ(decoded->header.kind, h.kind);
    EXPECT_EQ(decoded->header.stage, h.stage);
    EXPECT_EQ(decoded->header.member_epoch, h.member_epoch);
    EXPECT_EQ(decoded->header.seq, h.seq);
    EXPECT_EQ(decoded->header.sender, h.sender);
    EXPECT_EQ(decoded->header.body_len, body.size());
    EXPECT_TRUE(std::equal(decoded->body.begin(), decoded->body.end(), body.begin(), body.end()));
  }
}

TEST(WireFuzz, EverySingleByteMutationIsRejected) {
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 8; ++trial) {
    const FrameHeader h = random_header(rng);
    const auto body = random_body(rng, 48);
    const auto wire = encode_frame(h, body);
    for (std::size_t pos = 0; pos < wire.size(); ++pos) {
      for (int delta = 1; delta < 256; ++delta) {
        auto mutated = wire;
        mutated[pos] = static_cast<std::byte>(static_cast<int>(mutated[pos]) ^ delta);
        // The checksum covers every header field and the whole body, so any
        // single-byte change — including of the checksum itself — must read
        // as corruption.
        EXPECT_FALSE(decode_frame(mutated).has_value())
            << "mutation at byte " << pos << " xor " << delta << " was accepted";
      }
    }
  }

  // A real data frame carries kilobytes, so its body runs through the
  // digest's four-lane loop, which bodies of at most 48 bytes barely reach.
  // Exhausting all 4128 x 255 mutations is too slow; sample 4000 of them.
  const FrameHeader h = random_header(rng);
  std::vector<std::byte> body(4096);
  std::uniform_int_distribution<int> byte_dist(0, 255);
  for (std::byte& b : body) b = static_cast<std::byte>(byte_dist(rng));
  const auto wire = encode_frame(h, body);
  ASSERT_TRUE(decode_frame(wire).has_value());
  std::uniform_int_distribution<std::size_t> pos_dist(0, wire.size() - 1);
  std::uniform_int_distribution<int> delta_dist(1, 255);
  auto mutated = wire;
  for (int trial = 0; trial < 4000; ++trial) {
    const std::size_t pos = pos_dist(rng);
    const int delta = delta_dist(rng);
    mutated[pos] = static_cast<std::byte>(static_cast<int>(wire[pos]) ^ delta);
    EXPECT_FALSE(decode_frame(mutated).has_value())
        << "4 KB body: mutation at byte " << pos << " xor " << delta << " was accepted";
    mutated[pos] = wire[pos];
  }
}

TEST(WireFuzz, EveryTruncationPrefixIsRejected) {
  std::mt19937_64 rng(11);
  const FrameHeader h = random_header(rng);
  const auto body = random_body(rng, 64);
  const auto wire = encode_frame(h, body);
  for (std::size_t len = 0; len < wire.size(); ++len) {
    const std::vector<std::byte> prefix(wire.begin(),
                                        wire.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_FALSE(decode_frame(prefix).has_value()) << "prefix of " << len << " bytes accepted";
  }
  // Trailing garbage beyond body_len is equally a framing violation.
  auto padded = wire;
  padded.push_back(std::byte{0});
  EXPECT_FALSE(decode_frame(padded).has_value());
}

TEST(WireFuzz, RandomGarbageNeverCrashesFrameDecode) {
  std::mt19937_64 rng(13);
  std::uniform_int_distribution<int> byte_dist(0, 255);
  for (int trial = 0; trial < 500; ++trial) {
    auto garbage = random_body(rng, 128);
    // Half the trials start with the real magic so decode exercises the
    // deeper header/checksum checks instead of bailing on byte 0.
    if (trial % 2 == 0 && garbage.size() >= 4) {
      garbage[0] = static_cast<std::byte>(kFrameMagic & 0xff);
      garbage[1] = static_cast<std::byte>((kFrameMagic >> 8) & 0xff);
      garbage[2] = static_cast<std::byte>((kFrameMagic >> 16) & 0xff);
      garbage[3] = static_cast<std::byte>((kFrameMagic >> 24) & 0xff);
    }
    (void)decode_frame(garbage);  // must not crash or read OOB; result is moot
  }
}

/// One random plain-format stage message (the paper's unchecksummed wire
/// image) with its serialized bytes.
std::vector<std::byte> random_stage_wire(std::mt19937_64& rng, bool tracked) {
  std::uniform_int_distribution<int> count_dist(0, 12);
  std::uniform_int_distribution<int> rank_dist(0, 1 << 20);
  PayloadArena arena;
  // Two draws for the frame's endpoints, which the format does not carry,
  // keep the input stream the suite has always fuzzed with.
  for (int skip = 0; skip < 2; ++skip) (void)rank_dist(rng);
  std::vector<Submessage> m;
  const int count = count_dist(rng);
  for (int i = 0; i < count; ++i) {
    const auto payload = random_body(rng, 40);
    Submessage s;
    s.source = rank_dist(rng);
    s.dest = rank_dist(rng);
    s.offset = arena.add(payload);
    s.size_bytes = static_cast<std::uint32_t>(payload.size());
    s.id = static_cast<std::uint32_t>(i);
    m.push_back(s);
  }
  if (!tracked) return serialize(m, arena);
  // The tracked format is written only as a frame body.
  const std::vector<std::byte> frame = encode_frame(FrameHeader{}, m, arena);
  return {frame.begin() + static_cast<std::ptrdiff_t>(kFrameOverheadBytes), frame.end()};
}

/// The plain format has no checksum: a mutation may legitimately decode (it
/// changed a rank id or a payload byte), but it must never read out of
/// bounds, crash, or produce submessages pointing outside the arena.
TEST(WireFuzz, MutatedStageMessagesDecodeSafelyOrThrow) {
  std::mt19937_64 rng(17);
  std::uniform_int_distribution<int> byte_dist(1, 255);
  for (const bool tracked : {false, true}) {
    for (int trial = 0; trial < 20; ++trial) {
      const auto wire = random_stage_wire(rng, tracked);
      for (std::size_t pos = 0; pos < wire.size(); ++pos) {
        auto mutated = wire;
        mutated[pos] =
            static_cast<std::byte>(static_cast<int>(mutated[pos]) ^ byte_dist(rng));
        PayloadArena arena;
        std::vector<Submessage> out;
        try {
          const auto subs = tracked ? deserialize_tracked(mutated, arena, out)
                                    : deserialize(mutated, arena, out);
          for (const Submessage& s : subs) {
            ASSERT_LE(s.offset + s.size_bytes, arena.size_bytes())
                << "submessage points outside the arena";
          }
        } catch (const Error&) {
          // Malformed counts/lengths are rejected loudly — equally fine.
        }
      }
    }
  }
}

/// Stale-epoch replay: an attacker (or a delayed network) re-delivering an
/// old frame can never make it claim a newer membership than it was signed
/// with — flipping the member_epoch bytes breaks the checksum. A sender that
/// advances its claim re-encodes the frame from its header instead.
TEST(WireFuzz, PatchedMemberEpochFailsChecksum) {
  std::mt19937_64 rng(37);
  for (int trial = 0; trial < 50; ++trial) {
    FrameHeader h = random_header(rng);
    h.member_epoch = 3;
    const auto body = random_body(rng, 64);
    auto patched = encode_frame(h, body);
    // Patching the member_epoch field (offset 8) without re-signing must
    // read as corruption.
    patched[8] = static_cast<std::byte>(9);
    EXPECT_FALSE(decode_frame(patched).has_value()) << "trial " << trial;
  }
}

// ---------------------------------------------------------------------------
// Plan-layout fuzzing. The gather path trusts a frozen layout's tables
// blindly — it sizes each frame buffer from payload_bytes and writes headers
// and payloads through the submessage ranges with no per-replay checks — so
// validate_plan_layout (run once when exchange() caches a recorded plan) is
// the only thing standing between a corrupted layout and an out-of-bounds
// access. Every mutation class it promises to reject is pinned here, plus a
// random sweep proving the validator itself never crashes and never accepts
// a layout whose ranges leave their tables.

/// A small but fully featured recorded layout at rank 1 of BL(4): seeds of
/// 8, 4 and 0 bytes at arena offsets 0, 8 and 12; one out-frame per
/// destination (the second carries the empty submessage); one inbound frame
/// whose 6-byte payload (arena offset 12) is delivered out of that frame.
ExchangePlanLayout recorded_layout() {
  PlanRecorder rec(Vpt::direct(4), /*me=*/1, 3);
  rec.on_seed(2, 0, 8);
  rec.on_seed(3, 8, 4);
  rec.on_seed(3, 12, 0);
  const Submessage to2{1, 2, 0, 8, 0};
  const Submessage to3[] = {{1, 3, 8, 4, 1}, {1, 3, 12, 0, 2}};
  rec.on_stage_send(0, 2, {&to2, 1});
  rec.on_stage_send(0, 3, to3);
  const Submessage in{0, 1, 12, 6, 0};
  rec.on_stage_recv(0, 0, {&in, 1});
  rec.on_stage_complete(0, 0, 0);
  return rec.finish({&in, 1}, 26);
}

/// Reads every span a replay of `l` would read — frame ranges, sources,
/// parked-frame slices — so ASan turns an accepted out-of-table range into
/// a failure.
std::uint64_t walk_like_a_replay(const ExchangePlanLayout& l) {
  std::uint64_t sum = 0;
  const auto read = [&](const PayloadSrc& src) {
    if (src.bytes == 0) return;
    if (src.kind == PayloadSrc::Kind::kSeed) {
      sum += l.pattern.at(src.index).second;
    } else {
      sum += l.in_frames[l.in_frame_of(src)].wire_size - src.offset - src.bytes;
    }
  };
  for (int s = 0; s < l.dim(); ++s) {
    for (const PlanOutFrame& f : l.out_stage(s)) {
      for (const Submessage& sub : l.subs_of(f)) sum += sub.size_bytes;
      for (const PayloadSrc& src : l.srcs_of(f)) read(src);
    }
    for (const PlanInFrame& f : l.in_stage(s))
      for (const Submessage& sub : l.subs_of(f)) sum += sub.offset;
  }
  for (const PlanDelivery& d : l.deliveries) read(d.src);
  return sum;
}

TEST(PlanLayoutFuzz, BaselineRecordedLayoutValidates) {
  const ExchangePlanLayout layout = recorded_layout();
  EXPECT_NO_THROW(validate_plan_layout(layout));
  ASSERT_EQ(layout.out_frames.size(), 2u);
  EXPECT_EQ(layout.out_subs.size(), 3u);
  EXPECT_EQ(layout.out_srcs[2], PayloadSrc{});  // the empty submessage's placeholder
  EXPECT_EQ(layout.in_frames[0].wire_size, 22u);
  EXPECT_EQ(layout.deliveries[0].src.offset, 16u);
}

TEST(PlanLayoutFuzz, EveryTargetedTableMutationIsRejected) {
  using Mutator = void (*)(ExchangePlanLayout&);
  struct Case {
    const char* what;
    Mutator mutate;
    const char* expect;  // fragment of the ValidationError message
  };
  const Case cases[] = {
      {"stage count mismatch", [](ExchangePlanLayout& l) { l.in_stage_begin.pop_back(); },
       "stage begin tables disagree"},
      {"source table size mismatch", [](ExchangePlanLayout& l) { l.out_srcs.pop_back(); },
       "out_srcs/out_subs size mismatch"},
      {"out-frame range past its table", [](ExchangePlanLayout& l) { l.out_frames[1].count = 3; },
       "out-frame submessage range is outside its table"},
      {"overlapping out-frame ranges", [](ExchangePlanLayout& l) { l.out_frames[1].first = 0; },
       "out-frame submessage range is outside its table or out of order"},
      {"seed index out of range", [](ExchangePlanLayout& l) { l.out_srcs[0].index = 99; },
       "seed index out of range"},
      {"seed size disagrees with pattern", [](ExchangePlanLayout& l) { l.pattern[0].second = 7; },
       "seed size disagrees with the pattern"},
      {"recv stage out of range", [](ExchangePlanLayout& l) { l.deliveries[0].src.stage = 7; },
       "recv stage out of range"},
      {"recv frame out of range", [](ExchangePlanLayout& l) { l.deliveries[0].src.frame = 9; },
       "recv frame index out of range"},
      {"recv source past inbound frame",
       [](ExchangePlanLayout& l) {
         l.deliveries[0].src.offset = static_cast<std::uint32_t>(l.in_frames[0].wire_size);
       },
       "recv source reads past its inbound frame"},
      {"inbound submessage past frame",
       [](ExchangePlanLayout& l) { l.in_subs[0].size_bytes = 1000; },
       "inbound wire_size disagrees with its submessages"},
      {"in-frame range past its table", [](ExchangePlanLayout& l) { l.in_frames[0].count = 2; },
       "in-frame submessage range is outside its table"},
      {"payload_bytes mismatch", [](ExchangePlanLayout& l) { l.out_frames[0].payload_bytes = 9; },
       "payload_bytes disagrees with its submessages"},
      {"source/submessage size mismatch",
       [](ExchangePlanLayout& l) { l.out_subs[0].size_bytes = 7; },
       "payload source size disagrees with its submessage"},
      {"stage ranges not contiguous", [](ExchangePlanLayout& l) { l.out_stage_begin[1] = 1; },
       "out-frame stage ranges are not contiguous"},
      {"inbound wire_size mismatch", [](ExchangePlanLayout& l) { l.in_frames[0].wire_size += 1; },
       "inbound wire_size disagrees with its submessages"},
      {"inbound payload offset moved", [](ExchangePlanLayout& l) { l.in_subs[0].offset = 4; },
       "inbound payload offset disagrees with its frame"},
      {"out-frame reads a frame not yet parked",
       [](ExchangePlanLayout& l) {
         l.out_subs[0].size_bytes = 6;
         l.out_frames[0].payload_bytes = 6;
         l.out_srcs[0] = l.deliveries[0].src;
       },
       "out-frame source: recv stage out of range"},
      {"residency table stage count", [](ExchangePlanLayout& l) { l.stage_buffered.clear(); },
       "stage residency table disagrees"},
      {"submessage no frame covers",
       [](ExchangePlanLayout& l) {
         l.out_subs.push_back(l.out_subs[0]);
         l.out_srcs.push_back(l.out_srcs[0]);
       },
       "submessage table has entries no frame covers"},
  };
  for (const Case& c : cases) {
    ExchangePlanLayout mutated = recorded_layout();
    c.mutate(mutated);
    try {
      validate_plan_layout(mutated);
      ADD_FAILURE() << c.what << ": accepted";
    } catch (const ValidationError& e) {
      EXPECT_EQ(e.check(), "plan-layout") << c.what;
      EXPECT_NE(std::string(e.what()).find(c.expect), std::string::npos)
          << c.what << ": " << e.what();
    }
  }
}

/// Random numeric corruption of every table and index field: the validator
/// must either accept (a mutation can be semantically harmless) or throw
/// ValidationError — never crash or read out of bounds — and every layout it
/// accepts must keep each replay read inside its table (the asan-ubsan
/// preset turns a violation of either into a failure).
TEST(PlanLayoutFuzz, RandomFieldCorruptionValidatesOrThrowsButNeverCrashes) {
  std::mt19937_64 rng(41);
  std::uniform_int_distribution<std::uint32_t> val_dist;
  const ExchangePlanLayout base = recorded_layout();
  int accepted = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    ExchangePlanLayout l = base;
    for (int hit = 1 + static_cast<int>(val_dist(rng) % 3); hit > 0; --hit) {
      const std::uint32_t v = val_dist(rng);
      PlanOutFrame& out = l.out_frames[v % 2];
      switch (val_dist(rng) % 16) {
        case 0: out.first = v % 5; break;
        case 1: out.count = v % 5; break;
        case 2: out.payload_bytes = v % 32; break;
        case 3: l.out_srcs[v % 3].bytes = v % 16; break;
        case 4: l.out_srcs[v % 3].index = v % 8; break;
        case 5: l.out_subs[v % 3].size_bytes = v % 16; break;
        case 6: l.out_stage_begin[v % 2] = v % 4; break;
        case 7: l.in_stage_begin[v % 2] = v % 3; break;
        case 8: l.in_frames[0].first = v % 3; break;
        case 9: l.in_frames[0].count = v % 3; break;
        case 10: l.in_frames[0].wire_size = v % 40; break;
        case 11: l.in_subs[0].size_bytes = v % 32; break;
        case 12: l.in_subs[0].offset = v % 32; break;
        case 13: l.deliveries[0].src.offset = v % 64; break;
        case 14: l.deliveries[0].src.bytes = v % 64; break;
        case 15:
          l.deliveries[0].src.frame = static_cast<std::uint16_t>(v % 4);
          l.deliveries[0].src.stage = static_cast<std::uint8_t>((v >> 8) % 4);
          break;
      }
    }
    try {
      validate_plan_layout(l);
    } catch (const ValidationError&) {
      continue;  // rejected loudly — the contract
    }
    ++accepted;
    (void)walk_like_a_replay(l);
  }
  EXPECT_GT(accepted, 0);  // some corruption is harmless (e.g. a rewritten equal value)
}

TEST(WireFuzz, TruncatedStageMessagesThrowOrDecodeSafely) {
  std::mt19937_64 rng(19);
  for (const bool tracked : {false, true}) {
    const auto wire = random_stage_wire(rng, tracked);
    for (std::size_t len = 0; len < wire.size(); ++len) {
      const std::vector<std::byte> prefix(wire.begin(),
                                          wire.begin() + static_cast<std::ptrdiff_t>(len));
      PayloadArena arena;
      std::vector<Submessage> out;
      try {
        const auto subs = tracked ? deserialize_tracked(prefix, arena, out)
                                  : deserialize(prefix, arena, out);
        for (const Submessage& s : subs)
          ASSERT_LE(s.offset + s.size_bytes, arena.size_bytes());
      } catch (const Error&) {
      }
    }
  }
}

}  // namespace
}  // namespace stfw::core
