#include "exchange_plan.hpp"

#include <algorithm>
#include <string>

#include "error.hpp"
#include "wire.hpp"

namespace stfw::core {

PlanRecorder::PlanRecorder(const Vpt& vpt, Rank me, std::size_t seeds) {
  const auto n = static_cast<std::size_t>(vpt.dim());
  require(n > 0 && n <= 127, "PlanRecorder: VPT dimension out of range");
  layout_.rank = me;
  layout_.pattern.reserve(seeds);
  provenance_.reserve(seeds);
  layout_.out_stage_begin.assign(n + 1, 0);
  layout_.in_stage_begin.assign(n + 1, 0);
  layout_.stage_buffered.resize(n);
}

void PlanRecorder::note(std::uint64_t arena_offset, const PayloadSrc& src) {
  if (src.bytes == 0) return;
  STFW_ASSERT(provenance_.empty() || provenance_.back().first < arena_offset,
              "plan: payload offsets must ascend");
  provenance_.emplace_back(arena_offset, src);
}

PayloadSrc PlanRecorder::source_of(const Submessage& s) const {
  if (s.size_bytes == 0) return PayloadSrc{};
  const auto it = std::ranges::lower_bound(provenance_, s.offset, {},
                                           &std::pair<std::uint64_t, PayloadSrc>::first);
  if (it == provenance_.end() || it->first != s.offset || it->second.bytes != s.size_bytes)
    throw ValidationError("plan-layout", static_cast<int>(layout_.rank), stage_,
                          "no recorded source for the " + std::to_string(s.size_bytes) +
                              "-byte payload at arena offset " + std::to_string(s.offset));
  return it->second;
}

void PlanRecorder::on_seed(Rank dest, std::uint64_t arena_offset, std::uint32_t bytes) {
  const auto index = static_cast<std::uint32_t>(layout_.pattern.size());
  note(arena_offset, PayloadSrc{PayloadSrc::Kind::kSeed, 0, 0, index, 0, bytes});
  layout_.pattern.emplace_back(dest, bytes);
}

void PlanRecorder::reserve_sends(std::size_t frames, std::size_t subs) {
  layout_.out_frames.reserve(layout_.out_frames.size() + frames);
  layout_.out_subs.reserve(layout_.out_subs.size() + subs);
  layout_.out_srcs.reserve(layout_.out_srcs.size() + subs);
}

void PlanRecorder::reserve_recvs(std::size_t frames, std::size_t subs) {
  layout_.in_frames.reserve(layout_.in_frames.size() + frames);
  layout_.in_subs.reserve(layout_.in_subs.size() + subs);
  provenance_.reserve(provenance_.size() + subs);
}

void PlanRecorder::on_stage_send(int stage, Rank to, std::span<const Submessage> subs) {
  STFW_ASSERT(stage == stage_ && stage < layout_.dim(), "plan: send outside the open stage");
  PlanOutFrame frame{to, static_cast<std::uint32_t>(layout_.out_subs.size()),
                     static_cast<std::uint32_t>(subs.size()), 0};
  for (const Submessage& s : subs) {
    layout_.out_srcs.push_back(source_of(s));
    layout_.out_subs.push_back(s);
    frame.payload_bytes += s.size_bytes;
  }
  require(wire_size_bytes(frame.count, frame.payload_bytes) <= 0xffffffffull,
          "plan: frame exceeds 4 GiB wire limit");
  layout_.out_frames.push_back(frame);
}

void PlanRecorder::on_stage_recv(int stage, Rank source, std::span<const Submessage> subs) {
  STFW_ASSERT(stage == stage_ && stage < layout_.dim(), "plan: recv outside the open stage");
  const std::size_t index =
      layout_.in_frames.size() - layout_.in_stage_begin[static_cast<std::size_t>(stage)];
  require(index < 0xffff, "plan: too many inbound frames in one stage");
  PlanInFrame frame{source, kCountBytes, static_cast<std::uint32_t>(layout_.in_subs.size()),
                    static_cast<std::uint32_t>(subs.size())};
  for (Submessage s : subs) {
    frame.wire_size += kSubHeaderBytes;  // the payload follows its header
    note(s.offset, PayloadSrc{PayloadSrc::Kind::kRecv, static_cast<std::uint8_t>(stage),
                              static_cast<std::uint16_t>(index), 0,
                              static_cast<std::uint32_t>(frame.wire_size), s.size_bytes});
    s.offset = frame.wire_size;
    layout_.in_subs.push_back(s);
    frame.wire_size += s.size_bytes;
  }
  layout_.in_frames.push_back(frame);
}

void PlanRecorder::on_stage_complete(int stage, std::uint64_t buffered_bytes,
                                     std::uint64_t buffered_subs) {
  STFW_ASSERT(stage == stage_ && stage < layout_.dim(), "plan: stage out of order");
  const auto s = static_cast<std::size_t>(stage);
  layout_.stage_buffered[s] = {buffered_bytes, buffered_subs};
  layout_.out_stage_begin[s + 1] = static_cast<std::uint32_t>(layout_.out_frames.size());
  layout_.in_stage_begin[s + 1] = static_cast<std::uint32_t>(layout_.in_frames.size());
  ++stage_;
}

ExchangePlanLayout PlanRecorder::finish(std::span<const Submessage> delivered,
                                        std::uint64_t peak_buffer_bytes) {
  require(stage_ == layout_.dim(), "plan: finished before its last stage completed");
  layout_.peak_buffer_bytes = peak_buffer_bytes;
  layout_.deliveries.reserve(delivered.size());
  for (const Submessage& s : delivered)
    layout_.deliveries.push_back(PlanDelivery{s.source, source_of(s)});
  return std::move(layout_);
}

void validate_plan_layout(const ExchangePlanLayout& layout) {
  const auto bad = [&](int stage, const std::string& detail) {
    throw ValidationError("plan-layout", static_cast<int>(layout.rank), stage, detail);
  };
  const auto nstages = static_cast<std::size_t>(layout.dim());
  if (layout.out_stage_begin.empty() || layout.in_stage_begin.size() != nstages + 1)
    bad(-1, "stage begin tables disagree on the stage count");
  if (layout.stage_buffered.size() != nstages)
    bad(-1, "stage residency table disagrees on the stage count");
  // Stage s owns frames [begin[s], begin[s + 1]).
  const auto check_stages = [&](const std::vector<std::uint32_t>& begin, std::size_t frames,
                                const char* what) {
    if (begin.front() != 0 || begin.back() != frames || !std::ranges::is_sorted(begin))
      bad(-1, std::string(what) + " stage ranges are not contiguous");
  };
  check_stages(layout.out_stage_begin, layout.out_frames.size(), "out-frame");
  check_stages(layout.in_stage_begin, layout.in_frames.size(), "in-frame");
  if (layout.out_srcs.size() != layout.out_subs.size())
    bad(-1, "out_srcs/out_subs size mismatch");

  // Frame ranges [first, first + count) tile their table in order; `cursor`
  // is where the next one starts.
  const auto check_range = [&](int stage, std::uint32_t first, std::uint32_t count,
                               std::size_t& cursor, std::size_t table, const char* what) {
    if (first != cursor || std::uint64_t{first} + count > table)
      bad(stage, std::string(what) + " submessage range is outside its table or out of order");
    cursor = std::size_t{first} + count;
  };

  // The gather memcpys straight out of whatever a PayloadSrc names, so each
  // must lie inside its buffer. An out-frame may only read frames of earlier
  // stages: later ones are not parked yet when it is gathered. Zero-size
  // sources are placeholders; no byte is read through them.
  const auto check_src = [&](int stage, std::size_t readable_stages, const PayloadSrc& src,
                             const char* where) {
    if (src.bytes == 0) return;
    if (src.kind == PayloadSrc::Kind::kSeed) {
      if (src.index >= layout.pattern.size())
        bad(stage, std::string(where) + ": seed index out of range");
      if (src.bytes != layout.pattern[src.index].second)
        bad(stage, std::string(where) + ": seed size disagrees with the pattern");
      return;
    }
    const auto rs = static_cast<std::size_t>(src.stage);
    if (rs >= readable_stages) bad(stage, std::string(where) + ": recv stage out of range");
    if (src.frame >= layout.in_stage(static_cast<int>(rs)).size())
      bad(stage, std::string(where) + ": recv frame index out of range");
    const std::uint64_t end =
        static_cast<std::uint64_t>(src.offset) + static_cast<std::uint64_t>(src.bytes);
    if (end > layout.in_frames[layout.in_frame_of(src)].wire_size)
      bad(stage, std::string(where) + ": recv source reads past its inbound frame");
  };

  std::size_t out_cursor = 0;
  std::size_t in_cursor = 0;
  for (std::size_t s = 0; s < nstages; ++s) {
    const int stage = static_cast<int>(s);
    for (const PlanOutFrame& f : layout.out_stage(stage)) {
      check_range(stage, f.first, f.count, out_cursor, layout.out_subs.size(), "out-frame");
      const auto subs = layout.subs_of(f);
      const auto srcs = layout.srcs_of(f);
      std::uint64_t payload = 0;
      for (std::size_t k = 0; k < subs.size(); ++k) {
        if (srcs[k].bytes != subs[k].size_bytes)
          bad(stage, "payload source size disagrees with its submessage");
        check_src(stage, s, srcs[k], "out-frame source");
        payload += subs[k].size_bytes;
      }
      if (payload != f.payload_bytes)
        bad(stage, "out-frame payload_bytes disagrees with its submessages");
    }
    for (const PlanInFrame& f : layout.in_stage(stage)) {
      check_range(stage, f.first, f.count, in_cursor, layout.in_subs.size(), "in-frame");
      std::uint64_t pos = kCountBytes;
      for (const Submessage& sub : layout.subs_of(f)) {
        pos += kSubHeaderBytes;
        if (sub.offset != pos) bad(stage, "inbound payload offset disagrees with its frame");
        pos += sub.size_bytes;
      }
      if (pos != f.wire_size) bad(stage, "inbound wire_size disagrees with its submessages");
    }
  }
  if (out_cursor != layout.out_subs.size() || in_cursor != layout.in_subs.size())
    bad(-1, "submessage table has entries no frame covers");
  for (const PlanDelivery& d : layout.deliveries) check_src(-1, nstages, d.src, "delivery");
}

}  // namespace stfw::core
