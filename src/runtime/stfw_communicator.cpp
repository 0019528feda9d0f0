#include "stfw_communicator.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <optional>
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
using core::StageOutbox;
using core::StfwRankState;
using core::Submessage;

namespace {

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

// The inbound frames a plan replay parked, by global in-frame number.
using ParkedFrames = std::vector<std::vector<std::byte>>;

// The bytes a frozen PayloadSrc names: one of the caller's seed payloads or
// a slice of a parked inbound frame.
std::span<const std::byte> payload_of(const core::PayloadSrc& src,
                                      std::span<const OutboundMessage> seeds,
                                      const core::ExchangePlanLayout& layout,
                                      const ParkedFrames& in_raw) {
  if (src.bytes == 0) return {};
  const std::byte* from = src.kind == core::PayloadSrc::Kind::kSeed
                              ? seeds[src.index].bytes.data()
                              : in_raw[layout.in_frame_of(src)].data() + src.offset;
  return {from, src.bytes};
}

// True when one stage's inbound frames (ascending source) are the frozen
// roster: each expected frame from its planned source, of its planned size,
// with its planned submessage headers, and nothing else. A missing or extra
// frame means a peer's pattern drifted since the plan was recorded. The
// audited layout puts every header inside wire_size, so the comparison
// stays inside a frame of that size.
bool roster_matches(std::span<const runtime::Message> msgs,
                    const core::ExchangePlanLayout& layout,
                    std::span<const core::PlanInFrame> expected) {
  if (msgs.size() != expected.size()) return false;
  std::array<std::byte, core::kSubHeaderBytes> want{};
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    const std::vector<std::byte>& raw = msgs[i].data;
    if (msgs[i].source != static_cast<int>(expected[i].source) ||
        raw.size() != expected[i].wire_size || core::claimed_count(raw) != expected[i].count)
      return false;
    for (const Submessage& s : layout.subs_of(expected[i])) {
      core::write_sub_header(want.data(), s);
      if (std::memcmp(raw.data() + s.offset - want.size(), want.data(), want.size()) != 0)
        return false;
    }
  }
  return true;
}

// Scatter/gather assembly of one planned frame into a fresh wire buffer:
// the count and each submessage header are written from the frozen
// submessage table (core::write_sub_header, the writer serialize uses),
// each followed by a payload memcpy straight from the caller's sends or the
// parked inbound frames. Every byte of the buffer is written exactly once. The
// tables were audited by validate_plan_layout when the plan was cached —
// payload_bytes is the sum of the frame's sizes, and each source holds as
// many bytes as its submessage — so the buffer holds every write.
std::vector<std::byte> gather_planned_frame(const core::ExchangePlanLayout& layout,
                                            const core::PlanOutFrame& frame,
                                            std::span<const OutboundMessage> seeds,
                                            const ParkedFrames& in_raw) {
  std::vector<std::byte> wire(core::wire_size_bytes(frame.count, frame.payload_bytes));
  std::byte* pos = core::write_count(wire.data(), frame.count);
  const core::PayloadSrc* src = layout.srcs_of(frame).data();
  for (const Submessage& s : layout.subs_of(frame)) {
    pos = core::write_sub_header(pos, s);
    if (s.size_bytes > 0)
      std::memcpy(pos, payload_of(*src, seeds, layout, in_raw).data(), s.size_bytes);
    pos += s.size_bytes;
    ++src;
  }
  return wire;
}

// True when `sends` has exactly the recorded (dest, size) sequence.
bool same_pattern(std::span<const std::pair<core::Rank, std::uint32_t>> pattern,
                  std::span<const OutboundMessage> sends) {
  return std::ranges::equal(pattern, sends, [](const auto& p, const OutboundMessage& s) {
    return p.first == s.dest && p.second == s.bytes.size();
  });
}

}  // namespace

/// The stage engine of every plain exchange (paper Algorithm 1, lines 8-18).
/// step() runs one stage for either frame source — Algorithm1 below, or a
/// cached plan's replay — which hands its frames to step()
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
  /// ascending-source order, in the communicator's inbox, which the next
  /// step refills.
  template <class Frames>
  std::vector<runtime::Message>& step(int stage, Frames&& frames) {
    STFW_VERIFY_HOOK(stage(static_cast<int>(me_), stage));
    if (injector_ != nullptr) injector_->at_stage(static_cast<int>(me_), stage);
    const int tag = tag_base_ + stage;
    frames([&](core::Rank to, std::span<const Submessage> subs, std::vector<std::byte> wire,
               std::uint64_t payload_bytes) {
      if (validator) validator->on_stage_send(stage, to, subs);
      ++stats_.messages_sent;
      stats_.payload_bytes_sent += payload_bytes;
      stats_.wire_bytes_sent += wire.size();
      c_.comm_->send(static_cast<int>(to), tag, std::move(wire));
    });
    const std::vector<int>& group = c_.stage_groups_[static_cast<std::size_t>(stage)];
    c_.comm_->arrive(group, tag);
    if (stage == 0 && overlap_ != nullptr && *overlap_) (*overlap_)();
    c_.comm_->await_arrival(group, tag, deadline());
    c_.inbox_.clear();
    c_.comm_->drain(tag, c_.inbox_);
    stats_.messages_received += static_cast<std::int64_t>(c_.inbox_.size());
    return c_.inbox_;
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
  // a multiple of dim(), below 1 << 28, where exchange_resilient lifts its
  // own reserved tag, and shared with no other plain exchange of the run
  // until the range wraps. Neighbor dependencies keep each rank within a few
  // exchanges of its peers, so the wrap never reuses a tag still in flight.
  const int tag_base_;
};

/// Algorithm 1's frame source: the rank's routing state and payload arena.
/// The routing tables come from the communicator's MissScratch, so a miss
/// allocates per table and only where it outgrows earlier misses; the arena
/// is the exchange's own, grown once up front for the seeds and once per
/// stage by exactly the payload its frames carry. A recording run also
/// feeds a PlanRecorder every seed, frame and delivery with its arena
/// offsets; the recorder maps each offset to where the bytes come from at
/// replay time (seed index or inbound-frame slice), so the finished layout
/// replays the routing with plain memcpys.
class StfwCommunicator::Algorithm1 {
public:
  Algorithm1(StageDriver& drv, MissScratch& scratch, std::span<const OutboundMessage> sends,
             bool record)
      : drv_(drv), s_(scratch) {
    s_.reset();
    if (record) recorder_.emplace(drv.vpt(), drv.me(), sends.size());
    for (const OutboundMessage& send : sends) seed_bytes_ += send.bytes.size();
    arena_.reserve(seed_bytes_);
    for (const OutboundMessage& send : sends) {
      const auto size = static_cast<std::uint32_t>(send.bytes.size());
      const std::uint64_t off = arena_.add(send.bytes);
      s_.state.add_send(send.dest, off, size);
      if (recorder_) recorder_->on_seed(send.dest, off, size);
    }
  }

  /// Runs stages [first, n), then finishes the exchange.
  void run(int first) {
    for (int stage = first; stage < drv_.vpt().dim(); ++stage) {
      std::vector<runtime::Message>& msgs = drv_.step(stage, [&](auto&& post) {
        const StageOutbox& out = s_.outbox;
        s_.state.make_stage_outbox(stage, s_.outbox);
        if (recorder_) recorder_->reserve_sends(out.frames.size(), out.subs.size());
        for (const StageOutbox::Frame& f : out.frames) {
          const std::span<const Submessage> subs = out.subs_of(f);
          if (recorder_) recorder_->on_stage_send(stage, f.to, subs);
          post(f.to, subs, core::serialize(subs, arena_), f.payload_bytes);
        }
      });
      accept(stage, msgs);
      msgs.clear();  // the arena holds the payloads: free the buffers now
    }
    finish();
  }

  /// Drift resume: rebuilds the state a cached replay reached by `stage` from
  /// the frames it parked for the earlier stages, accepts the frames that
  /// arrived at `stage`, and runs the rest. The replay already sent this
  /// stage's frames and those of every earlier one, all determined by this
  /// rank's own (unchanged) pattern, so the rebuilt outboxes are discarded.
  void resume(int stage, const CachedPlan& plan, std::span<const runtime::Message> arrived) {
    for (int s = 0; s < stage; ++s) {
      s_.state.make_stage_outbox(s, s_.outbox);
      const auto si = static_cast<std::size_t>(s);
      for (std::size_t f = plan.layout.in_stage_begin[si]; f < plan.layout.in_stage_begin[si + 1];
           ++f) {
        s_.parsed.clear();
        s_.state.accept(s, core::deserialize(plan.in_raw[f], arena_, s_.parsed));
      }
      transit_peak_ = std::max(transit_peak_, s_.state.buffered_payload_bytes());
    }
    s_.state.make_stage_outbox(stage, s_.outbox);
    accept(stage, arrived);
    run(stage + 1);
  }

  /// The deliveries, sorted by source.
  std::vector<InboundMessage> inbox() const {
    std::vector<InboundMessage> result;
    result.reserve(s_.delivered.size());
    for (const Submessage& s : s_.delivered) {
      const auto payload = arena_.view(s);
      result.push_back(InboundMessage{s.source, {payload.begin(), payload.end()}});
    }
    return result;
  }

  /// The recorded layout (recording runs only).
  core::ExchangePlanLayout layout() {
    return recorder_->finish(s_.delivered, drv_.stats().peak_buffer_bytes);
  }

private:
  void accept(int stage, std::span<const runtime::Message> msgs) {
    // Size the arena and the recorder's tables for the whole stage before
    // parsing: a frame's payload is its bytes less its headers. A count the
    // frame cannot hold is capped here; the parse rejects the frame.
    std::uint64_t payload = 0;
    std::uint64_t subs_in = 0;
    for (const runtime::Message& m : msgs) {
      const std::uint64_t size = m.data.size();
      const std::uint64_t count =
          std::min<std::uint64_t>(core::claimed_count(m.data), size / core::kSubHeaderBytes);
      subs_in += count;
      payload += size - std::min(size, core::wire_size_bytes(count, 0));
    }
    arena_.reserve(arena_.size_bytes() + payload);
    if (recorder_) recorder_->reserve_recvs(msgs.size(), subs_in);
    for (const runtime::Message& m : msgs) {
      const auto source = static_cast<core::Rank>(m.source);
      s_.parsed.clear();
      const std::span<const Submessage> subs = core::deserialize(m.data, arena_, s_.parsed);
      if (drv_.validator) drv_.validator->on_stage_recv(stage, source, subs);
      if (recorder_) recorder_->on_stage_recv(stage, source, subs);
      s_.state.accept(stage, subs);
    }
    const std::uint64_t bytes = s_.state.buffered_payload_bytes();
    const std::uint64_t count = s_.state.buffered_submessage_count();
    transit_peak_ = std::max(transit_peak_, bytes);
    if (recorder_) recorder_->on_stage_complete(stage, bytes, count);
    if (drv_.validator) drv_.validator->on_stage_complete(stage, bytes, count);
  }

  void finish() {
    // Paper Section 6.2 buffer metric: original send + receive buffers plus
    // the store-and-forward transit residency.
    drv_.stats().peak_buffer_bytes =
        seed_bytes_ + s_.state.delivered_payload_bytes() + transit_peak_;
    s_.delivered.assign(s_.state.delivered().begin(), s_.state.delivered().end());
    drv_.finish(s_.delivered, arena_);
    // Stable by source, by insertion: std::stable_sort allocates a buffer.
    std::vector<Submessage>& d = s_.delivered;
    for (auto it = d.begin(); it != d.end(); ++it)
      std::rotate(std::ranges::upper_bound(d.begin(), it, it->source, {}, &Submessage::source), it,
                  it + 1);
  }

  StageDriver& drv_;
  MissScratch& s_;
  PayloadArena arena_;
  std::optional<core::PlanRecorder> recorder_;
  std::uint64_t seed_bytes_ = 0;
  std::uint64_t transit_peak_ = 0;
};

void StfwCommunicator::MissScratch::reset() {
  state.reset();
  delivered.clear();
  heard.resize(vpt.dim_sizes().size());
  for (std::size_t d = 0; d < heard.size(); ++d)
    heard[d].assign(static_cast<std::size_t>(vpt.dim_sizes()[d]), Heard::kNothing);
  tracked.clear();
  frames.clear();
  early.clear();
  settle.clear();
  last_report.assign(static_cast<std::size_t>(vpt.size()), -1);
}

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
          core::env_u64("STFW_EXCHANGE_DEADLINE_MS", kDefaultExchangeDeadlineMs))) {
  core::require(vpt_.size() == comm.size(),
                "StfwCommunicator: VPT size must equal communicator size");
  miss_ = std::make_unique<MissScratch>(vpt_, static_cast<core::Rank>(comm.rank()));
  // Each stage's group, this rank included, ascending: with_coord over
  // ascending digit values yields ascending ranks.
  for (int d = 0; d < vpt_.dim(); ++d) {
    std::vector<int>& group = stage_groups_.emplace_back();
    for (int v = 0; v < vpt_.dim_size(d); ++v)
      group.push_back(static_cast<int>(vpt_.with_coord(comm.rank(), d, v)));
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
  for (CachedPlan& plan : plan_cache_)
    if (same_pattern(plan.layout.pattern, sends)) return replay(drv, plan, sends);
  // Algorithm 1 from stage 0; a cache miss records itself as the next plan.
  Algorithm1 alg(drv, *miss_, sends, true);
  alg.run(0);
  remember(alg.layout());
  stats_.plan_builds = 1;
  return alg.inbox();
}

void StfwCommunicator::remember(core::ExchangePlanLayout layout) {
  // Audit the frozen offsets once, before any replay memcpys through them:
  // a corrupt layout dies here as core::ValidationError ("plan-layout").
  core::validate_plan_layout(layout);
  CachedPlan plan{std::move(layout), {}, ++plan_cache_tick_};
  plan.in_raw.resize(plan.layout.in_frames.size());
  if (plan_cache_.size() < kPlanCacheCapacity)
    plan_cache_.push_back(std::move(plan));
  else
    *std::ranges::min_element(plan_cache_, {}, &CachedPlan::last_use) = std::move(plan);
}

std::vector<InboundMessage> StfwCommunicator::replay(StageDriver& drv, CachedPlan& plan,
                                                     std::span<const OutboundMessage> sends) {
  plan.last_use = ++plan_cache_tick_;
  stats_.plan_hits = 1;
  const core::ExchangePlanLayout& layout = plan.layout;
  const int n = vpt_.dim();
  for (int stage = 0; stage < n; ++stage) {
    const auto si = static_cast<std::size_t>(stage);
    std::vector<runtime::Message>& msgs = drv.step(stage, [&](auto&& post) {
      for (const core::PlanOutFrame& f : layout.out_stage(stage))
        post(f.to, layout.subs_of(f), gather_planned_frame(layout, f, sends, plan.in_raw),
             f.payload_bytes);
    });
    const std::span<const core::PlanInFrame> expected = layout.in_stage(stage);
    if (!roster_matches(msgs, layout, expected)) {
      // A peer's pattern drifted since the plan was recorded: carry on as
      // Algorithm 1 from this stage. Peers that missed the cache, hit it or
      // fell back at another stage all close each stage on the same group
      // arrival, so the cluster stays deadlock-free without a barrier. The
      // resume reads the parked frames, so the entry goes only after it.
      stats_.plan_fallbacks = 1;
      Algorithm1 alg(drv, *miss_, sends, false);
      alg.resume(stage, plan, msgs);
      plan_cache_.erase(plan_cache_.begin() + (&plan - plan_cache_.data()));
      return alg.inbox();
    }
    // Park the frames; the buffer each one displaces is freed.
    for (std::size_t fi = 0; fi < msgs.size(); ++fi) {
      if (drv.validator)
        drv.validator->on_stage_recv(stage, expected[fi].source, layout.subs_of(expected[fi]));
      plan.in_raw[layout.in_stage_begin[si] + fi] = std::move(msgs[fi].data);
    }
    if (drv.validator)
      drv.validator->on_stage_complete(stage, layout.stage_buffered[si].first,
                                       layout.stage_buffered[si].second);
  }

  stats_.peak_buffer_bytes = layout.peak_buffer_bytes;
  std::vector<InboundMessage> result;
  result.reserve(layout.deliveries.size());
  for (const core::PlanDelivery& d : layout.deliveries) {
    const std::span<const std::byte> bytes = payload_of(d.src, sends, layout, plan.in_raw);
    result.push_back(InboundMessage{d.source, {bytes.begin(), bytes.end()}});
  }
  if (drv.validator) {
    // The verdict covers exactly the bytes handed out.
    PayloadArena arena;
    std::vector<Submessage> delivered;
    delivered.reserve(result.size());
    for (const InboundMessage& m : result)
      delivered.push_back(Submessage{m.source, drv.me(), arena.add(m.bytes),
                                     static_cast<std::uint32_t>(m.bytes.size())});
    drv.finish(delivered, arena);
  }
  return result;
}

}  // namespace stfw
