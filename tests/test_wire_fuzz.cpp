// Property/fuzz tests of the wire formats (ISSUE 4 satellite). Run under the
// asan-ubsan preset these double as memory-safety proofs: every single-byte
// mutation of a checksummed frame must be rejected, and no mutation of any
// wire image — frame or plain — may read out of bounds or crash.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <random>
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
  std::uniform_int_distribution<int> kind_dist(1, 5);  // kData..kRelay
  std::uniform_int_distribution<std::uint32_t> u32_dist;
  FrameHeader h;
  h.kind = static_cast<FrameKind>(kind_dist(rng));
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
  StageMessage m{rank_dist(rng), rank_dist(rng), {}};
  const int count = count_dist(rng);
  for (int i = 0; i < count; ++i) {
    const auto payload = random_body(rng, 40);
    Submessage s;
    s.source = rank_dist(rng);
    s.dest = rank_dist(rng);
    s.offset = arena.add(payload);
    s.size_bytes = static_cast<std::uint32_t>(payload.size());
    s.id = static_cast<std::uint32_t>(i);
    m.subs.push_back(s);
  }
  return tracked ? serialize_tracked(m, arena) : serialize(m, arena);
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
        try {
          const auto subs =
              tracked ? deserialize_tracked(mutated, arena) : deserialize(mutated, arena);
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
// Plan-layout fuzzing. The gather path trusts a frozen layout's slot tables
// blindly — memcpys straight through them with no per-replay checks — so
// validate_plan_layout (run once when exchange() caches a recorded plan) is
// the only thing standing between a corrupted layout and an out-of-bounds
// read. Every mutation class it promises to reject is pinned
// here, plus a random sweep proving the validator itself never crashes.

/// A small but fully featured recorded layout: one out-frame with two seed
/// slots, one inbound frame, one forwarded delivery out of that frame.
ExchangePlanLayout recorded_layout() {
  const Vpt vpt = Vpt::direct(4);
  const std::vector<std::pair<Rank, std::uint32_t>> pattern = {{2, 8}, {3, 4}};
  PlanRecorder rec(vpt, /*me=*/1, pattern);

  std::vector<Submessage> outs(2);
  outs[0].source = 1;
  outs[0].dest = 2;
  outs[0].size_bytes = 8;
  outs[1].source = 1;
  outs[1].dest = 3;
  outs[1].size_bytes = 4;
  outs[1].id = 1;
  std::vector<PayloadSrc> srcs(2);
  srcs[0].index = 0;
  srcs[0].bytes = 8;
  srcs[1].index = 1;
  srcs[1].bytes = 4;
  rec.on_stage_send(0, 2, outs, srcs);

  Submessage in{};
  in.source = 0;
  in.dest = 1;
  in.size_bytes = 6;
  const PlanInFrame& inf = rec.on_stage_recv(0, 0, {&in, 1});
  rec.on_stage_complete(0, 0, 0);

  Submessage del{};
  del.source = 0;
  del.dest = 1;
  del.size_bytes = 6;
  PayloadSrc del_src;
  del_src.kind = PayloadSrc::Kind::kRecv;
  del_src.stage = 0;
  del_src.frame = 0;
  del_src.offset = static_cast<std::uint32_t>(inf.subs[0].offset);
  del_src.bytes = 6;
  return rec.finish({&del, 1}, {&del_src, 1});
}

TEST(PlanLayoutFuzz, BaselineRecordedLayoutValidates) {
  const ExchangePlanLayout layout = recorded_layout();
  EXPECT_NO_THROW(validate_plan_layout(layout));
}

TEST(PlanLayoutFuzz, EveryTargetedSlotTableMutationIsRejected) {
  using Mutator = void (*)(ExchangePlanLayout&);
  const std::pair<const char*, Mutator> mutations[] = {
      {"stage count mismatch", [](ExchangePlanLayout& l) { l.in_frames.clear(); }},
      {"slot table size mismatch",
       [](ExchangePlanLayout& l) { l.out_frames[0][0].slot_offsets.pop_back(); }},
      {"slot past frame image",
       [](ExchangePlanLayout& l) {
         l.out_frames[0][0].slot_offsets[1] =
             static_cast<std::uint32_t>(l.out_frames[0][0].image.size());
       }},
      {"overlapping slots",
       [](ExchangePlanLayout& l) {
         l.out_frames[0][0].slot_offsets[1] = l.out_frames[0][0].slot_offsets[0];
       }},
      {"seed index out of range",
       [](ExchangePlanLayout& l) { l.out_frames[0][0].slots[0].index = 99; }},
      {"seed size disagrees with pattern",
       [](ExchangePlanLayout& l) { l.pattern[0].second = 7; }},
      {"recv stage out of range",
       [](ExchangePlanLayout& l) { l.deliveries[0].src.stage = 7; }},
      {"recv frame out of range",
       [](ExchangePlanLayout& l) { l.deliveries[0].src.frame = 9; }},
      {"recv slot past inbound frame",
       [](ExchangePlanLayout& l) {
         l.deliveries[0].src.offset =
             static_cast<std::uint32_t>(l.in_frames[0][0].wire_size);
       }},
      {"inbound submessage past frame",
       [](ExchangePlanLayout& l) { l.in_frames[0][0].subs[0].size_bytes = 1000; }},
  };
  for (const auto& [what, mutate] : mutations) {
    ExchangePlanLayout mutated = recorded_layout();
    mutate(mutated);
    EXPECT_THROW(validate_plan_layout(mutated), ValidationError) << what;
  }
}

/// Random numeric corruption: the validator must either accept (a mutation
/// can be semantically harmless) or throw ValidationError — never crash or
/// read out of bounds (the asan-ubsan preset turns the latter into failures).
TEST(PlanLayoutFuzz, RandomFieldCorruptionValidatesOrThrowsButNeverCrashes) {
  std::mt19937_64 rng(41);
  std::uniform_int_distribution<std::uint32_t> val_dist;
  const ExchangePlanLayout base = recorded_layout();
  for (int trial = 0; trial < 500; ++trial) {
    ExchangePlanLayout l = base;
    for (int hit = 1 + static_cast<int>(val_dist(rng) % 3); hit > 0; --hit) {
      const std::uint32_t v = val_dist(rng);
      switch (val_dist(rng) % 8) {
        case 0: l.out_frames[0][0].slot_offsets[v % 2] = v; break;
        case 1: l.out_frames[0][0].slots[v % 2].bytes = v % 64; break;
        case 2: l.out_frames[0][0].slots[v % 2].index = v % 8; break;
        case 3: l.deliveries[0].src.offset = v % 64; break;
        case 4: l.deliveries[0].src.bytes = v % 64; break;
        case 5: l.deliveries[0].src.frame = static_cast<std::uint16_t>(v % 4); break;
        case 6: l.deliveries[0].src.stage = static_cast<std::uint8_t>(v % 4); break;
        case 7: l.in_frames[0][0].subs[0].size_bytes = v % 128; break;
      }
    }
    try {
      validate_plan_layout(l);
    } catch (const ValidationError&) {
      // Rejected loudly — the contract.
    }
  }
}

TEST(WireFuzz, TruncatedStageMessagesThrowOrDecodeSafely) {
  std::mt19937_64 rng(19);
  for (const bool tracked : {false, true}) {
    const auto wire = random_stage_wire(rng, tracked);
    for (std::size_t len = 0; len < wire.size(); ++len) {
      const std::vector<std::byte> prefix(wire.begin(),
                                          wire.begin() + static_cast<std::ptrdiff_t>(len));
      PayloadArena arena;
      try {
        const auto subs =
            tracked ? deserialize_tracked(prefix, arena) : deserialize(prefix, arena);
        for (const Submessage& s : subs)
          ASSERT_LE(s.offset + s.size_bytes, arena.size_bytes());
      } catch (const Error&) {
      }
    }
  }
}

}  // namespace
}  // namespace stfw::core
