#include "exchange_plan.hpp"

#include <algorithm>
#include <cstring>

#include "error.hpp"
#include "wire.hpp"

namespace stfw::core {

namespace {

void put_u32(std::vector<std::byte>& out, std::uint32_t v) {
  const std::size_t pos = out.size();
  out.resize(pos + sizeof(v));
  std::memcpy(out.data() + pos, &v, sizeof(v));
}

void put_i32(std::vector<std::byte>& out, std::int32_t v) {
  const std::size_t pos = out.size();
  out.resize(pos + sizeof(v));
  std::memcpy(out.data() + pos, &v, sizeof(v));
}

void hash_u64(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 1099511628211ull;
  }
}

}  // namespace

PatternSignature PatternSignature::of(
    std::span<const std::pair<Rank, std::uint32_t>> seq) {
  PatternSignature sig;
  sig.sequence.assign(seq.begin(), seq.end());
  std::vector<std::pair<Rank, std::uint32_t>> sorted = sig.sequence;
  std::sort(sorted.begin(), sorted.end());
  std::uint64_t h = 14695981039346656037ull;
  hash_u64(h, sorted.size());
  for (const auto& [dest, size] : sorted) {
    hash_u64(h, static_cast<std::uint64_t>(static_cast<std::uint32_t>(dest)));
    hash_u64(h, size);
  }
  sig.key = h;
  return sig;
}

PlanRecorder::PlanRecorder(const Vpt& vpt, Rank me,
                           std::span<const std::pair<Rank, std::uint32_t>> pattern) {
  layout_.signature = PatternSignature::of(pattern);
  layout_.vpt_dims = vpt.dim_sizes();
  layout_.rank = me;
  const int n = vpt.dim();
  require(n > 0 && n <= 127, "PlanRecorder: VPT dimension out of range");
  layout_.out_frames.resize(static_cast<std::size_t>(n));
  layout_.in_frames.resize(static_cast<std::size_t>(n));
  layout_.stage_buffered_bytes.assign(static_cast<std::size_t>(n), 0);
  layout_.stage_buffered_subs.assign(static_cast<std::size_t>(n), 0);
  for (const auto& [dest, size] : pattern) {
    require(dest >= 0 && dest < vpt.size(), "PlanRecorder: destination out of range");
    layout_.seed_payload_bytes += size;
  }
}

void PlanRecorder::on_stage_send(int stage, Rank to, std::span<const Submessage> subs,
                                 std::span<const PayloadSrc> srcs) {
  STFW_ASSERT(stage >= 0 && stage < layout_.dim(), "plan: send stage out of range");
  STFW_ASSERT(subs.size() == srcs.size(), "plan: provenance/submessage count mismatch");
  PlanOutFrame frame;
  frame.to = to;
  frame.subs.assign(subs.begin(), subs.end());
  std::uint64_t payload = 0;
  for (const Submessage& s : subs) payload += s.size_bytes;
  frame.payload_bytes = payload;
  const std::uint64_t total = wire_size_bytes(subs.size(), payload);
  require(total <= 0xffffffffull, "plan: frame exceeds 4 GiB wire limit");
  frame.image.reserve(total);
  put_u32(frame.image, static_cast<std::uint32_t>(subs.size()));
  for (std::size_t k = 0; k < subs.size(); ++k) {
    const Submessage& s = subs[k];
    put_i32(frame.image, s.source);
    put_i32(frame.image, s.dest);
    put_u32(frame.image, s.size_bytes);
    if (s.size_bytes > 0) {
      STFW_ASSERT(srcs[k].bytes == s.size_bytes, "plan: provenance size mismatch");
      frame.slot_offsets.push_back(static_cast<std::uint32_t>(frame.image.size()));
      frame.slots.push_back(srcs[k]);
      frame.image.resize(frame.image.size() + s.size_bytes);  // zeroed gap
    }
  }
  layout_.messages_sent += 1;
  layout_.payload_bytes_sent += payload;
  layout_.wire_bytes_sent += frame.image.size();
  layout_.out_frames[static_cast<std::size_t>(stage)].push_back(std::move(frame));
}

const PlanInFrame& PlanRecorder::on_stage_recv(int stage, Rank source,
                                               std::span<const Submessage> subs) {
  STFW_ASSERT(stage >= 0 && stage < layout_.dim(), "plan: recv stage out of range");
  auto& frames = layout_.in_frames[static_cast<std::size_t>(stage)];
  require(frames.size() < 0xffff, "plan: too many inbound frames in one stage");
  PlanInFrame frame;
  frame.source = source;
  frame.subs.assign(subs.begin(), subs.end());
  std::uint64_t pos = 4;  // past the u32 count
  for (Submessage& s : frame.subs) {
    pos += 12;  // past {source, dest, len}
    s.offset = pos;
    pos += s.size_bytes;
  }
  frame.wire_size = pos;
  layout_.messages_received += 1;
  frames.push_back(std::move(frame));
  return frames.back();
}

void PlanRecorder::on_stage_complete(int stage, std::uint64_t buffered_bytes,
                                     std::uint64_t buffered_subs) {
  STFW_ASSERT(stage >= 0 && stage < layout_.dim(), "plan: stage out of range");
  layout_.stage_buffered_bytes[static_cast<std::size_t>(stage)] = buffered_bytes;
  layout_.stage_buffered_subs[static_cast<std::size_t>(stage)] = buffered_subs;
  layout_.transit_peak_bytes = std::max(layout_.transit_peak_bytes, buffered_bytes);
}

ExchangePlanLayout PlanRecorder::finish(std::span<const Submessage> delivered,
                                        std::span<const PayloadSrc> delivered_srcs) {
  STFW_ASSERT(delivered.size() == delivered_srcs.size(),
              "plan: delivery provenance count mismatch");
  layout_.deliveries.reserve(delivered.size());
  for (std::size_t i = 0; i < delivered.size(); ++i) {
    STFW_ASSERT(delivered_srcs[i].bytes == delivered[i].size_bytes,
                "plan: delivery provenance size mismatch");
    layout_.deliveries.push_back(PlanDelivery{delivered[i].source, delivered_srcs[i]});
    layout_.delivered_payload_bytes += delivered[i].size_bytes;
  }
  return std::move(layout_);
}

void validate_plan_layout(const ExchangePlanLayout& layout) {
  const auto bad = [&](int stage, const std::string& detail) {
    throw ValidationError("plan-layout", static_cast<int>(layout.rank), stage, detail);
  };
  const std::size_t nstages = layout.out_frames.size();
  if (layout.in_frames.size() != nstages)
    bad(-1, "in_frames/out_frames stage count mismatch");

  // Provenance bounds shared by payload slots and deliveries: the gather
  // path memcpys straight out of whatever this PayloadSrc names, so every
  // reference must be provably inside its buffer before any byte moves.
  const auto check_src = [&](int stage, const PayloadSrc& src, const char* where) {
    // Zero-size sources are placeholders (recorded plans use a default
    // PayloadSrc for empty submessages); no byte is ever read through them.
    if (src.bytes == 0) return;
    if (src.kind == PayloadSrc::Kind::kSeed) {
      if (src.index >= layout.signature.sequence.size())
        bad(stage, std::string(where) + ": seed index out of range");
      if (src.bytes != layout.signature.sequence[src.index].second)
        bad(stage, std::string(where) + ": seed slot size disagrees with the pattern");
      return;
    }
    const auto rs = static_cast<std::size_t>(src.stage);
    if (rs >= nstages) bad(stage, std::string(where) + ": recv stage out of range");
    const auto& stage_in = layout.in_frames[rs];
    if (src.frame >= stage_in.size())
      bad(stage, std::string(where) + ": recv frame index out of range");
    const std::uint64_t end =
        static_cast<std::uint64_t>(src.offset) + static_cast<std::uint64_t>(src.bytes);
    if (end > stage_in[src.frame].wire_size)
      bad(stage, std::string(where) + ": recv slot reads past its inbound frame");
  };

  for (std::size_t s = 0; s < nstages; ++s) {
    const int stage = static_cast<int>(s);
    for (const PlanOutFrame& f : layout.out_frames[s]) {
      if (f.slot_offsets.size() != f.slots.size())
        bad(stage, "slot offset/source table size mismatch");
      std::uint64_t prev_end = 0;
      for (std::size_t k = 0; k < f.slots.size(); ++k) {
        const std::uint64_t off = f.slot_offsets[k];
        const std::uint64_t end = off + static_cast<std::uint64_t>(f.slots[k].bytes);
        if (off < prev_end) bad(stage, "payload slots overlap or are out of order");
        if (end > f.image.size()) bad(stage, "payload slot exceeds the frame image");
        prev_end = end;
        check_src(stage, f.slots[k], "out-frame slot");
      }
    }
    for (const PlanInFrame& f : layout.in_frames[s]) {
      for (const Submessage& sub : f.subs) {
        const std::uint64_t end = sub.offset + static_cast<std::uint64_t>(sub.size_bytes);
        if (end > f.wire_size) bad(stage, "inbound submessage exceeds its frame");
      }
    }
  }
  for (const PlanDelivery& d : layout.deliveries) check_src(-1, d.src, "delivery");
}

}  // namespace stfw::core
