#include "stfw_communicator.hpp"

#include <algorithm>
#include <cstring>
#include <optional>
#include <unordered_map>
#include <utility>

#include "core/env.hpp"
#include "core/error.hpp"
#include "core/exchange_plan.hpp"
#include "core/verify_hooks.hpp"
#include "core/wire.hpp"
#include "fault/fault_injector.hpp"
#include "validate/exchange_validator.hpp"

namespace stfw {

using core::PayloadArena;
using core::StageMessage;
using core::StfwRankState;
using core::Submessage;

namespace {

constexpr std::size_t kDefaultPlanCacheCapacity = 4;

// Hang guard of the plain exchange's stage waits: generous against real
// schedules (stages complete in microseconds) yet finite, so a lost rank
// surfaces as core::TimeoutError instead of an untimed hang.
constexpr std::uint64_t kDefaultExchangeDeadlineMs = 30000;

// Plain exchange closes a stage on its group's arrival, not on a count of
// frames, so a dropped or delayed frame would simply be missing from the
// result. Message faults are refused before the exchange claims its tags;
// the injector's stall and crash sites stay allowed.
fault::FaultInjector* reliable_injector(const runtime::Comm& comm) {
  fault::FaultInjector* injector = comm.fault_injector();
  if (injector == nullptr) return nullptr;
  const fault::FaultConfig& f = injector->config();
  core::require(f.drop_prob <= 0 && f.duplicate_prob <= 0 && f.reorder_prob <= 0 &&
                    f.truncate_prob <= 0 && f.delay_prob <= 0,
                "plain exchange needs a reliable transport, but the cluster's fault injector "
                "drops, duplicates, reorders, truncates or delays messages — use "
                "exchange_resilient()");
  return injector;
}

// in_raw[stage][frame]: the inbound frames a plan replay parked.
using ParkedFrames = std::vector<std::vector<std::vector<std::byte>>>;

// The bytes a frozen PayloadSrc names: one of the caller's seed payloads or
// a slice of a parked inbound frame.
std::span<const std::byte> payload_of(const core::PayloadSrc& src,
                                      std::span<const std::span<const std::byte>> seeds,
                                      const ParkedFrames& in_raw) {
  if (src.bytes == 0) return {};
  const std::byte* from = src.kind == core::PayloadSrc::Kind::kSeed
                              ? seeds[src.index].data()
                              : in_raw[src.stage][src.frame].data() + src.offset;
  return {from, src.bytes};
}

// True when a received wire frame has exactly the submessage headers the
// plan expects at the planned offsets.
bool frame_headers_match(std::span<const std::byte> raw, const core::PlanInFrame& f) {
  if (raw.size() != f.wire_size || raw.size() < 4) return false;
  std::uint32_t count = 0;
  std::memcpy(&count, raw.data(), 4);
  if (count != f.subs.size()) return false;
  for (const Submessage& s : f.subs) {
    const std::byte* h = raw.data() + s.offset - 12;
    std::int32_t source = -1;
    std::int32_t dest = -1;
    std::uint32_t len = 0;
    std::memcpy(&source, h, 4);
    std::memcpy(&dest, h + 4, 4);
    std::memcpy(&len, h + 8, 4);
    if (source != s.source || dest != s.dest || len != s.size_bytes) return false;
  }
  return true;
}

// True when one stage's inbound frames (ascending source) are the frozen
// roster: each expected frame from its planned source with its planned
// headers, and nothing else. A missing or extra frame means a peer's
// pattern drifted since the plan was recorded.
bool roster_matches(std::span<const runtime::Message> msgs,
                    std::span<const core::PlanInFrame> expected) {
  if (msgs.size() != expected.size()) return false;
  for (std::size_t i = 0; i < msgs.size(); ++i)
    if (msgs[i].source != static_cast<int>(expected[i].source) ||
        !frame_headers_match(msgs[i].data, expected[i]))
      return false;
  return true;
}

// Scatter/gather assembly of one planned frame into a fresh wire buffer:
// template segments of the frozen image (the submessage headers between the
// payload gaps) are interleaved with payload memcpys straight from the seed
// views / parked inbound frames. Every byte of the buffer is written exactly
// once — no image pre-copy, no double-written payload bytes. Slot offsets
// were audited by validate_plan_layout at plan construction, so the
// arithmetic here can trust them.
std::vector<std::byte> gather_planned_frame(const core::PlanOutFrame& frame,
                                            std::span<const std::span<const std::byte>> seeds,
                                            const ParkedFrames& in_raw) {
  std::vector<std::byte> wire(frame.image.size());
  const std::byte* img = frame.image.data();
  std::byte* out = wire.data();
  std::size_t cursor = 0;
  for (std::size_t i = 0; i < frame.slots.size(); ++i) {
    const core::PayloadSrc& src = frame.slots[i];
    const std::size_t off = frame.slot_offsets[i];
    if (off > cursor) std::memcpy(out + cursor, img + cursor, off - cursor);
    std::memcpy(out + off, payload_of(src, seeds, in_raw).data(), src.bytes);
    cursor = off + src.bytes;
  }
  if (cursor < frame.image.size())
    std::memcpy(out + cursor, img + cursor, frame.image.size() - cursor);
  return wire;
}

std::vector<InboundMessage> copies_of(std::span<const runtime::InboundView> views) {
  std::vector<InboundMessage> result;
  result.reserve(views.size());
  for (const runtime::InboundView& v : views)
    result.push_back(InboundMessage{v.source, {v.bytes.begin(), v.bytes.end()}});
  return result;
}

std::vector<std::span<const std::byte>> seed_views_of(std::span<const OutboundMessage> sends) {
  std::vector<std::span<const std::byte>> views;
  views.reserve(sends.size());
  for (const OutboundMessage& s : sends) views.emplace_back(s.bytes);
  return views;
}

}  // namespace

/// The stage engine of every plain exchange (paper Algorithm 1, lines 8-18).
/// step() runs one stage for either frame source — Algorithm1 below, or a
/// frozen plan's replay (replay_stages) — which hands its frames to step()
/// through a template callback, so a frame costs no indirect call. The
/// driver claims the exchange's stage tags up front and owns the validator,
/// engaged only when validation is on in a validator build.
class StfwCommunicator::StageDriver {
public:
  StageDriver(StfwCommunicator& c, LocalExchangeStats& stats, const OverlapHook* overlap)
      : c_(c),
        stats_(stats),
        overlap_(overlap),
        me_(static_cast<core::Rank>(c.comm_->rank())),
        injector_(reliable_injector(*c.comm_)),
        tag_base_(c.comm_->reserve_tags(c.vpt_.dim())) {
    stats_ = LocalExchangeStats{};
    if (c.validate_ && validation_available()) validator.emplace(c.vpt_, me_);
  }

  std::optional<validate::ExchangeValidator> validator;

  core::Rank me() const noexcept { return me_; }
  const core::Vpt& vpt() const noexcept { return c_.vpt_; }
  LocalExchangeStats& stats() noexcept { return stats_; }

  /// Hands the caller's sends to the validator's conservation claims.
  void seed(std::span<const OutboundMessage> sends) {
    if (validator)
      for (const OutboundMessage& s : sends) validator->on_seed(s.dest, s.bytes);
  }

  /// Runs stage `stage`: posts every frame `frames(post)` hands to
  /// post(to, subs, wire, payload_bytes), arrives at the stage's
  /// dimension-`stage` group, runs the overlap hook after stage 0's
  /// arrival, awaits the group and drains the stage tag. Frames of later
  /// stages and exchanges wait in the mailbox under their own tags. Returns
  /// exactly the stage's real frames addressed to this rank, in
  /// ascending-source order.
  template <class Frames>
  std::vector<runtime::Message> step(int stage, Frames&& frames) {
    STFW_VERIFY_HOOK(stage(static_cast<int>(me_), stage));
    if (injector_ != nullptr) injector_->at_stage(static_cast<int>(me_), stage);
    const int tag = tag_base_ + stage;
    frames([&](core::Rank to, std::span<const Submessage> subs, std::vector<std::byte> wire,
               std::uint64_t payload_bytes) {
      if (validator)
        validator->on_stage_send(stage, StageMessage{me_, to, {subs.begin(), subs.end()}});
      ++stats_.messages_sent;
      stats_.payload_bytes_sent += payload_bytes;
      stats_.wire_bytes_sent += wire.size();
      c_.comm_->send(static_cast<int>(to), tag, std::move(wire));
    });
    // This rank's dimension-`stage` group, itself included, ascending:
    // with_coord over ascending digit values yields ascending ranks.
    group_.clear();
    for (int v = 0; v < c_.vpt_.dim_size(stage); ++v)
      group_.push_back(static_cast<int>(c_.vpt_.with_coord(me_, stage, v)));
    c_.comm_->arrive(group_, tag);
    if (stage == 0 && overlap_ != nullptr && *overlap_) (*overlap_)();
    c_.comm_->await_arrival(group_, tag, deadline());
    std::vector<runtime::Message> msgs = c_.comm_->drain(tag);
    stats_.messages_received += static_cast<std::int64_t>(msgs.size());
    return msgs;
  }

  /// The validator's collective conservation and buffer-bound verdict over
  /// this rank's deliveries (no-op without a validator).
  void finish(std::span<const Submessage> delivered, const PayloadArena& arena) {
    if (!validator) return;
    const auto summaries = c_.comm_->allgather(validator->summary_blob(), deadline());
    validator->finish(delivered, arena, stats_.messages_sent, summaries);
  }

private:
  runtime::Deadline deadline() const {
    return c_.exchange_deadline_.count() == 0 ? runtime::Deadline::never()
                                              : runtime::Deadline::in(c_.exchange_deadline_);
  }

  StfwCommunicator& c_;
  LocalExchangeStats& stats_;
  const OverlapHook* overlap_;
  const core::Rank me_;
  fault::FaultInjector* const injector_;  // checked before tag_base_ claims the tags
  // The exchange's dim() stage tags from Comm::reserve_tags: a base that is
  // a multiple of dim(), below exchange_resilient's fixed tags at 1 << 28,
  // and shared with no other plain exchange of the run until the range
  // wraps. Neighbor dependencies keep each rank within a few exchanges of
  // its peers, so the wrap never reuses a tag still in flight.
  const int tag_base_;
  std::vector<int> group_;
};

/// Algorithm 1's frame source: the rank's routing state and payload arena.
/// A recording run also feeds a PlanRecorder, tracking per arena offset
/// where each payload comes from at replay time (seed index or inbound-frame
/// slice), so the finished layout replays the routing with plain memcpys.
class StfwCommunicator::Algorithm1 {
public:
  Algorithm1(StageDriver& drv, std::span<const OutboundMessage> sends,
             const core::PatternSignature* record_as)
      : drv_(drv), state_(drv.vpt(), drv.me()) {
    if (record_as != nullptr) recorder_.emplace(drv.vpt(), drv.me(), record_as->sequence);
    for (std::size_t i = 0; i < sends.size(); ++i) {
      const std::vector<std::byte>& bytes = sends[i].bytes;
      const std::uint64_t off = arena_.add(bytes);
      state_.add_send(sends[i].dest, off, static_cast<std::uint32_t>(bytes.size()));
      if (recorder_ && !bytes.empty()) {
        core::PayloadSrc src;
        src.index = static_cast<std::uint32_t>(i);
        src.bytes = static_cast<std::uint32_t>(bytes.size());
        provenance_.insert_or_assign(off, src);
      }
      seed_bytes_ += bytes.size();
    }
  }

  /// Runs stages [first, n), then finishes the exchange.
  void run(int first) {
    for (int stage = first; stage < drv_.vpt().dim(); ++stage) {
      std::vector<runtime::Message> msgs = drv_.step(stage, [&](auto&& post) {
        outbox_.clear();
        state_.make_stage_outbox(stage, outbox_);
        for (const StageMessage& m : outbox_) {
          if (recorder_) recorder_->on_stage_send(stage, m.to, m.subs, provenance(m.subs));
          post(m.to, m.subs, core::serialize(m, arena_), m.payload_bytes());
        }
      });
      accept(stage, msgs);
    }
    finish();
  }

  /// Drift resume: rebuilds the state a plan replay reached by `stage` from
  /// the frames it parked for the earlier stages, accepts the frames that
  /// arrived at `stage`, and runs the rest. The replay already sent this
  /// stage's frames and those of every earlier one, all determined by this
  /// rank's own (unchanged) pattern, so the rebuilt outboxes are discarded.
  void resume(int stage, const ParkedFrames& parked, std::span<const runtime::Message> arrived) {
    for (int s = 0; s < stage; ++s) {
      outbox_.clear();
      state_.make_stage_outbox(s, outbox_);
      for (const std::vector<std::byte>& raw : parked[static_cast<std::size_t>(s)])
        state_.accept(s, core::deserialize(raw, arena_));
      transit_peak_ = std::max(transit_peak_, state_.buffered_payload_bytes());
    }
    outbox_.clear();
    state_.make_stage_outbox(stage, outbox_);
    accept(stage, arrived);
    run(stage + 1);
  }

  /// The deliveries, sorted by source.
  std::vector<InboundMessage> inbox() const {
    std::vector<InboundMessage> result;
    result.reserve(delivered_.size());
    for (const Submessage& s : delivered_) {
      const auto payload = arena_.view(s);
      result.push_back(InboundMessage{s.source, {payload.begin(), payload.end()}});
    }
    return result;
  }

  /// The recorded layout (recording runs only).
  core::ExchangePlanLayout layout() {
    return recorder_->finish(delivered_, provenance(delivered_));
  }

private:
  std::span<const core::PayloadSrc> provenance(std::span<const Submessage> subs) {
    srcs_.clear();
    for (const Submessage& s : subs)
      srcs_.push_back(s.size_bytes == 0 ? core::PayloadSrc{} : provenance_.at(s.offset));
    return srcs_;
  }

  void accept(int stage, std::span<const runtime::Message> msgs) {
    std::uint16_t frame_index = 0;
    for (const runtime::Message& m : msgs) {
      const auto source = static_cast<core::Rank>(m.source);
      const std::vector<Submessage> subs = core::deserialize(m.data, arena_);
      if (drv_.validator) drv_.validator->on_stage_recv(stage, source, subs);
      if (recorder_) {
        const core::PlanInFrame& frame = recorder_->on_stage_recv(stage, source, subs);
        for (std::size_t k = 0; k < subs.size(); ++k) {
          if (subs[k].size_bytes == 0) continue;
          core::PayloadSrc src;
          src.kind = core::PayloadSrc::Kind::kRecv;
          src.stage = static_cast<std::uint8_t>(stage);
          src.frame = frame_index;
          src.offset = static_cast<std::uint32_t>(frame.subs[k].offset);
          src.bytes = subs[k].size_bytes;
          provenance_.insert_or_assign(subs[k].offset, src);
        }
      }
      state_.accept(stage, subs);
      ++frame_index;
    }
    const std::uint64_t bytes = state_.buffered_payload_bytes();
    const std::uint64_t count = state_.buffered_submessage_count();
    transit_peak_ = std::max(transit_peak_, bytes);
    if (recorder_) recorder_->on_stage_complete(stage, bytes, count);
    if (drv_.validator) drv_.validator->on_stage_complete(stage, bytes, count);
  }

  void finish() {
    // Paper Section 6.2 buffer metric: original send + receive buffers plus
    // the store-and-forward transit residency.
    drv_.stats().peak_buffer_bytes =
        seed_bytes_ + state_.delivered_payload_bytes() + transit_peak_;
    delivered_ = state_.take_delivered();
    drv_.finish(delivered_, arena_);
    std::stable_sort(delivered_.begin(), delivered_.end(),
                     [](const Submessage& a, const Submessage& b) { return a.source < b.source; });
  }

  StageDriver& drv_;
  StfwRankState state_;
  PayloadArena arena_;
  std::optional<core::PlanRecorder> recorder_;
  std::unordered_map<std::uint64_t, core::PayloadSrc> provenance_;
  std::vector<StageMessage> outbox_;
  std::vector<core::PayloadSrc> srcs_;
  std::vector<Submessage> delivered_;
  std::uint64_t seed_bytes_ = 0;
  std::uint64_t transit_peak_ = 0;
};

bool StfwCommunicator::validation_available() noexcept {
#if STFW_VALIDATE_ENABLED
  return true;
#else
  return false;
#endif
}

StfwCommunicator::StfwCommunicator(runtime::Comm& comm, core::Vpt vpt)
    : comm_(&comm),
      vpt_(std::move(vpt)),
      // Strict parse (core/env): a typo'd STFW_VALIDATE throws instead of
      // silently leaving the validator on. Not read without a validator.
      validate_(validation_available() && core::env_flag("STFW_VALIDATE", true)),
      exchange_deadline_(std::chrono::milliseconds(
          core::env_u64("STFW_EXCHANGE_DEADLINE_MS", kDefaultExchangeDeadlineMs))),
      plan_cache_capacity_(kDefaultPlanCacheCapacity) {
  core::require(vpt_.size() == comm.size(),
                "StfwCommunicator: VPT size must equal communicator size");
}

core::PatternSignature StfwCommunicator::signature_of(std::span<const OutboundMessage> sends) {
  std::vector<std::pair<core::Rank, std::uint32_t>> pattern;
  pattern.reserve(sends.size());
  for (const OutboundMessage& s : sends)
    pattern.emplace_back(s.dest, static_cast<std::uint32_t>(s.bytes.size()));
  return core::PatternSignature::of(pattern);
}

std::size_t StfwCommunicator::plan_cache_capacity() const {
  core::MutexLock lock(plan_cache_mu_);
  return plan_cache_capacity_;
}

std::size_t StfwCommunicator::plan_cache_size() const {
  core::MutexLock lock(plan_cache_mu_);
  return plan_cache_.size();
}

void StfwCommunicator::set_plan_cache_capacity(std::size_t capacity) {
  core::MutexLock lock(plan_cache_mu_);
  plan_cache_capacity_ = capacity;
  plan_cache_evict_to(capacity);
}

void StfwCommunicator::plan_cache_evict_to(std::size_t capacity) {
  while (plan_cache_.size() > capacity) {
    std::size_t lru = 0;
    for (std::size_t i = 1; i < plan_cache_.size(); ++i)
      if (plan_cache_[i].last_use < plan_cache_[lru].last_use) lru = i;
    plan_cache_[lru] = std::move(plan_cache_.back());
    plan_cache_.pop_back();
  }
}

std::shared_ptr<runtime::ExchangePlan> StfwCommunicator::plan_cache_find(
    const core::PatternSignature& sig) {
  core::MutexLock lock(plan_cache_mu_);
  for (PlanCacheEntry& e : plan_cache_) {
    if (e.plan->signature() == sig) {
      e.last_use = ++plan_cache_tick_;
      return e.plan;
    }
  }
  return nullptr;
}

void StfwCommunicator::plan_cache_insert(std::shared_ptr<runtime::ExchangePlan> plan) {
  core::MutexLock lock(plan_cache_mu_);
  if (plan_cache_capacity_ == 0) return;
  for (PlanCacheEntry& e : plan_cache_) {
    if (e.plan->signature() == plan->signature()) {
      e.plan = std::move(plan);
      e.last_use = ++plan_cache_tick_;
      return;
    }
  }
  plan_cache_evict_to(plan_cache_capacity_ - 1);
  plan_cache_.push_back(PlanCacheEntry{std::move(plan), ++plan_cache_tick_});
}

void StfwCommunicator::plan_cache_erase(const core::PatternSignature& sig) {
  core::MutexLock lock(plan_cache_mu_);
  for (std::size_t i = 0; i < plan_cache_.size(); ++i) {
    if (plan_cache_[i].plan->signature() == sig) {
      plan_cache_[i] = std::move(plan_cache_.back());
      plan_cache_.pop_back();
      return;
    }
  }
}

std::vector<InboundMessage> StfwCommunicator::exchange(std::span<const OutboundMessage> sends) {
  return exchange(sends, OverlapHook{});
}

std::vector<InboundMessage> StfwCommunicator::exchange(std::span<const OutboundMessage> sends,
                                                       const OverlapHook& overlap) {
  // Plain exchange() assumes a reliable transport *and* full membership: its
  // frozen neighbor roster cannot route around a dead rank, so a degraded
  // cluster must use exchange_resilient() (docs/fault_model.md).
  core::require(!comm_->membership().any_failed(),
                "exchange: cluster is degraded (a rank died); plain exchange() cannot "
                "survive rank failure — use exchange_resilient()");
  for (const OutboundMessage& s : sends)
    core::require(s.dest >= 0 && s.dest < comm_->size(), "exchange: destination out of range");
  StageDriver drv(*this, stats_, &overlap);
  drv.seed(sends);
  std::optional<core::PatternSignature> sig;
  if (plan_cache_capacity() > 0) {
    sig = signature_of(sends);
    // The shared_ptr pins the plan for the call: a drift fallback erases the
    // cache entry while the plan's parked frames are still in use.
    if (const std::shared_ptr<runtime::ExchangePlan> hit = plan_cache_find(*sig))
      return exchange_cached(drv, *hit, sends);
  }
  // Algorithm 1 from stage 0; a cache miss records itself as the next plan.
  Algorithm1 alg(drv, sends, sig ? &*sig : nullptr);
  alg.run(0);
  if (sig) {
    plan_cache_insert(std::make_shared<runtime::ExchangePlan>(alg.layout()));
    stats_.plan_builds = 1;
  }
  return alg.inbox();
}

std::vector<InboundMessage> StfwCommunicator::exchange_cached(
    StageDriver& drv, runtime::ExchangePlan& plan, std::span<const OutboundMessage> sends) {
  const std::vector<std::span<const std::byte>> seeds = seed_views_of(sends);
  std::vector<runtime::Message> drifted;
  const int stage = replay_stages(drv, plan, seeds, &drifted);
  if (stage == vpt_.dim()) return copies_of(plan.views_);
  // A peer's pattern drifted since the plan was recorded: carry on as
  // Algorithm 1 from the drifted stage. Peers that missed the cache, hit it
  // or fell back at another stage all close each stage on the same group
  // arrival, so the cluster stays deadlock-free without a barrier.
  stats_.plan_fallbacks = 1;
  plan_cache_erase(plan.signature());
  Algorithm1 alg(drv, sends, nullptr);
  alg.resume(stage, plan.in_raw_, drifted);
  return alg.inbox();
}

int StfwCommunicator::replay_stages(StageDriver& drv, runtime::ExchangePlan& plan,
                                    std::span<const std::span<const std::byte>> seeds,
                                    std::vector<runtime::Message>* drifted) {
  const core::ExchangePlanLayout& layout = plan.layout();
  const int n = vpt_.dim();
  drv.stats().plan_hits = 1;
  // Any replay recycles the plan's parked frames, so views handed out by an
  // earlier replay stop being valid here; clearing them first leaves an
  // empty span behind a throw, never a dangling one.
  plan.views_.clear();
  int stage = 0;
  for (; stage < n; ++stage) {
    const auto si = static_cast<std::size_t>(stage);
    std::vector<runtime::Message> msgs = drv.step(stage, [&](auto&& post) {
      for (const core::PlanOutFrame& f : layout.out_frames[si])
        post(f.to, f.subs, gather_planned_frame(f, seeds, plan.in_raw_), f.payload_bytes);
    });
    if (!roster_matches(msgs, layout.in_frames[si])) {
      core::require(drifted != nullptr,
                    "exchange(plan): inbound frames deviate from the plan; the send pattern "
                    "changed since plan() (use plain exchange() for iteration-varying "
                    "patterns)");
      *drifted = std::move(msgs);
      break;
    }
    // Park the frames; the buffer each one displaces is freed.
    for (std::size_t fi = 0; fi < msgs.size(); ++fi) {
      const core::PlanInFrame& expected = layout.in_frames[si][fi];
      if (drv.validator) drv.validator->on_stage_recv(stage, expected.source, expected.subs);
      plan.in_raw_[si][fi] = std::move(msgs[fi].data);
    }
    if (drv.validator)
      drv.validator->on_stage_complete(stage, layout.stage_buffered_bytes[si],
                                       layout.stage_buffered_subs[si]);
  }
  if (stage < n) return stage;

  drv.stats().peak_buffer_bytes = layout.peak_buffer_bytes();
  for (const core::PlanDelivery& d : layout.deliveries)
    plan.views_.push_back(runtime::InboundView{d.source, payload_of(d.src, seeds, plan.in_raw_)});
  if (drv.validator) {
    // The verdict covers exactly the bytes the views hand out.
    PayloadArena arena;
    std::vector<Submessage> delivered;
    for (const runtime::InboundView& v : plan.views_) {
      Submessage s;
      s.source = v.source;
      s.dest = drv.me();
      s.size_bytes = static_cast<std::uint32_t>(v.bytes.size());
      s.offset = arena.add(v.bytes);
      delivered.push_back(s);
    }
    drv.finish(delivered, arena);
  }
  return n;
}

std::shared_ptr<runtime::ExchangePlan> StfwCommunicator::plan(
    std::span<const OutboundMessage> sends) {
  core::require(!comm_->membership().any_failed(),
                "plan: cluster is degraded (a rank died); the planning collective "
                "cannot survive rank failure — use exchange_resilient()");
  // A recording Algorithm 1 run. Its stats go to a scratch record and its
  // plan to the caller, so last_stats() and the cache stay as they were.
  LocalExchangeStats scratch;
  StageDriver drv(*this, scratch, nullptr);
  drv.seed(sends);
  const core::PatternSignature sig = signature_of(sends);
  Algorithm1 alg(drv, sends, &sig);
  alg.run(0);
  return std::make_shared<runtime::ExchangePlan>(alg.layout());
}

std::vector<InboundMessage> StfwCommunicator::exchange(
    runtime::ExchangePlan& plan, std::span<const std::span<const std::byte>> payloads) {
  return copies_of(exchange_views(plan, payloads));
}

std::span<const runtime::InboundView> StfwCommunicator::exchange_views(
    runtime::ExchangePlan& plan, std::span<const std::span<const std::byte>> payloads) {
  core::require(!comm_->membership().any_failed(),
                "exchange(plan): cluster is degraded (a rank died); planned replay "
                "cannot survive rank failure — use exchange_resilient()");
  const core::ExchangePlanLayout& layout = plan.layout();
  core::require(layout.rank == static_cast<core::Rank>(comm_->rank()),
                "exchange(plan): plan belongs to another rank");
  core::require(layout.vpt_dims == vpt_.dim_sizes(),
                "exchange(plan): plan was built for a different VPT");
  const auto& sequence = layout.signature.sequence;
  core::require(payloads.size() == sequence.size(),
                "exchange(plan): payload count differs from the planned pattern");
  for (std::size_t i = 0; i < payloads.size(); ++i)
    core::require(payloads[i].size() == sequence[i].second,
                  "exchange(plan): payload size differs from the planned pattern");

  StageDriver drv(*this, stats_, nullptr);
  if (drv.validator)
    for (std::size_t i = 0; i < payloads.size(); ++i)
      drv.validator->on_seed(sequence[i].first, payloads[i]);
  // Strict: every rank replays the same collective plan, so drift throws.
  (void)replay_stages(drv, plan, payloads, nullptr);
  return plan.views_;
}

std::vector<InboundMessage> StfwCommunicator::exchange(runtime::ExchangePlan& plan,
                                                       std::span<const OutboundMessage> sends) {
  const auto& sequence = plan.layout().signature.sequence;
  core::require(sends.size() == sequence.size(),
                "exchange(plan): send count differs from the planned pattern");
  for (std::size_t i = 0; i < sends.size(); ++i)
    core::require(sends[i].dest == sequence[i].first &&
                      sends[i].bytes.size() == sequence[i].second,
                  "exchange(plan): send pattern differs from the planned pattern");
  const std::vector<std::span<const std::byte>> views = seed_views_of(sends);
  return exchange(plan, views);
}

}  // namespace stfw
