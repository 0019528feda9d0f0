#include "rank_state.hpp"

#include <algorithm>

#include "error.hpp"

namespace stfw::core {

StfwRankState::StfwRankState(const Vpt& vpt, Rank me) : vpt_(&vpt), me_(me) {
  require(me >= 0 && me < vpt.size(), "StfwRankState: rank out of range");
  fwbuf_.resize(static_cast<std::size_t>(vpt.dim()));
}

void StfwRankState::add_send(Rank dest, std::uint64_t payload_offset,
                             std::uint32_t payload_bytes, std::uint32_t id) {
  require(dest >= 0 && dest < vpt_->size(), "add_send: destination out of range");
  require(stages_consumed_ == 0, "add_send: exchange already started");
  const Submessage s{me_, dest, payload_offset, payload_bytes, id};
  if (dest == me_) {
    delivered_.push_back(s);
    delivered_bytes_ += payload_bytes;
    return;
  }
  stash(-1, s);
}

void StfwRankState::stash(int stage_from, const Submessage& s) {
  const int d = vpt_->first_diff_dim_after(me_, s.dest, stage_from);
  if (d < 0) {
    STFW_ASSERT(s.dest == me_, "stash: no differing dimension but not addressed to me");
    delivered_.push_back(s);
    delivered_bytes_ += s.size_bytes;
    return;
  }
  STFW_ASSERT(d >= stages_consumed_, "stash: routing targets an already-consumed stage buffer");
  std::vector<Parked>& parked = fwbuf_[static_cast<std::size_t>(d)];
  const auto digit = static_cast<std::uint64_t>(vpt_->coord(s.dest, d));
  parked.push_back(Parked{digit << 32 | parked.size(), s});
  buffered_bytes_ += s.size_bytes;
  ++buffered_count_;
}

void StfwRankState::make_stage_outbox(int stage, StageOutbox& out) {
  require(stage == stages_consumed_, "make_stage_outbox: stages must run in order");
  require(stage < vpt_->dim(), "make_stage_outbox: stage out of range");
  std::vector<Parked>& parked = fwbuf_[static_cast<std::size_t>(stage)];
  std::sort(parked.begin(), parked.end(),
            [](const Parked& a, const Parked& b) { return a.key < b.key; });
  out.subs.clear();
  out.frames.clear();
  out.subs.reserve(parked.size());
  const int mine = vpt_->coord(me_, stage);
  int digit = -1;
  for (const Parked& p : parked) {
    const auto x = static_cast<int>(p.key >> 32);
    if (x != digit) {
      STFW_ASSERT(x != mine, "make_stage_outbox: own-coordinate slot must stay empty");
      digit = x;
      out.frames.push_back(StageOutbox::Frame{vpt_->with_coord(me_, stage, x),
                                              static_cast<std::uint32_t>(out.subs.size()), 0, 0});
    }
    StageOutbox::Frame& f = out.frames.back();
    ++f.count;
    f.payload_bytes += p.sub.size_bytes;
    buffered_bytes_ -= p.sub.size_bytes;
    out.subs.push_back(p.sub);
  }
  buffered_count_ -= parked.size();
  parked.clear();
  ++stages_consumed_;
}

void StfwRankState::accept(int stage, std::span<const Submessage> subs) {
  require(stage == stages_consumed_ - 1,
          "accept: received messages belong to the stage just consumed");
  for (const Submessage& s : subs) {
    STFW_ASSERT(vpt_->coord(s.dest, stage) == vpt_->coord(me_, stage),
                "accept: dimension-order routing violated");
    stash(stage, s);
  }
}

void StfwRankState::reset() {
  for (auto& dim : fwbuf_) dim.clear();
  delivered_.clear();
  stages_consumed_ = 0;
  buffered_bytes_ = 0;
  buffered_count_ = 0;
  delivered_bytes_ = 0;
}

}  // namespace stfw::core
