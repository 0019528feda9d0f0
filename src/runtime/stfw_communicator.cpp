#include "stfw_communicator.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <limits>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <unordered_map>
#include <utility>

#include "core/env.hpp"
#include "core/error.hpp"
#include "core/exchange_plan.hpp"
#include "core/wire.hpp"
#include "fault/fault_injector.hpp"

#if STFW_VALIDATE_ENABLED
#include "validate/exchange_validator.hpp"
#endif

namespace stfw {

using core::PayloadArena;
using core::StageMessage;
using core::StfwRankState;
using core::Submessage;

namespace {

// Fixed tags of the resilient frame protocol, far above any plain-exchange
// stage tag (epoch * dim + stage); the exchange epoch travels inside the
// frame header instead of the tag.
constexpr int kResilientDataTag = 1 << 28;
constexpr int kResilientAckTag = (1 << 28) + 1;

// Settlement control traffic of exchange_resilient, on the reliable negative
// tags: reports and wave replies flow to the root on kSettleReportTag, wave
// queries and the verdict flow from it on kSettleDoneTag.
constexpr int kSettleReportTag = -1002;
constexpr int kSettleDoneTag = -1003;

struct SettleMsg {
  enum class Kind : std::uint8_t { kReport = 1, kReply = 2, kQuery = 3, kDone = 4 };
  Kind kind = Kind::kReport;
  bool lost = false;   // report/reply: this rank lost traffic; done: anyone did
  bool clean = false;  // reply: settled, unchanged since the last report
  std::uint32_t member_epoch = 0;
  std::uint32_t wave = 0;        // reply/query
  std::int32_t alive_count = 0;  // done
};

constexpr std::size_t kSettleMsgBytes = 15;

std::vector<std::byte> encode_settle(const SettleMsg& m) {
  std::vector<std::byte> out(kSettleMsgBytes);
  out[0] = static_cast<std::byte>(m.kind);
  out[1] = static_cast<std::byte>(m.lost ? 1 : 0);
  out[2] = static_cast<std::byte>(m.clean ? 1 : 0);
  std::memcpy(out.data() + 3, &m.member_epoch, 4);
  std::memcpy(out.data() + 7, &m.wave, 4);
  std::memcpy(out.data() + 11, &m.alive_count, 4);
  return out;
}

std::optional<SettleMsg> decode_settle(std::span<const std::byte> raw) {
  if (raw.size() != kSettleMsgBytes) return std::nullopt;
  const auto kind = static_cast<std::uint8_t>(raw[0]);
  if (kind < 1 || kind > 4) return std::nullopt;
  SettleMsg m;
  m.kind = static_cast<SettleMsg::Kind>(kind);
  m.lost = raw[1] != std::byte{0};
  m.clean = raw[2] != std::byte{0};
  std::memcpy(&m.member_epoch, raw.data() + 3, 4);
  std::memcpy(&m.wave, raw.data() + 7, 4);
  std::memcpy(&m.alive_count, raw.data() + 11, 4);
  return m;
}

constexpr std::size_t kDefaultPlanCacheCapacity = 4;

// Hang guard of the plain exchange's dependency waits: generous against real
// schedules (stages complete in microseconds) yet finite, so a lost rank
// surfaces as core::TimeoutError instead of an untimed hang.
constexpr std::uint64_t kDefaultExchangeDeadlineMs = 30000;

// Regularized stage traffic: every (stage, dimension-d neighbor) pair
// carries exactly one frame. Neighbors the outbox leaves empty still get a
// 4-byte empty StageMessage (submessage count 0) so each receiver can block
// on per-neighbor frame counters — dependency-driven progress — instead of
// a global barrier. A real frame always carries >= 1 submessage header, so
// on the wire empty <=> filler, on both the payload format (core::serialize)
// and the header-only planning format (serialize_headers).
std::vector<std::byte> filler_frame() { return std::vector<std::byte>(4); }

bool is_filler_frame(std::span<const std::byte> raw) noexcept { return raw.size() == 4; }

// Stage boundary annotation for stfw-verify schedule traces; pairs with the
// fault injector's at_stage sites so a race/oracle report can name the
// dimension-order stage it happened in. No-op unless an engine is installed.
inline void verify_stage_tag(int rank, int stage) {
#if STFW_VERIFY_ENABLED
  STFW_VERIFY_HOOK(stage(rank, stage));
#else
  (void)rank;
  (void)stage;
#endif
}

std::vector<std::pair<core::Rank, std::uint32_t>> pattern_of(
    std::span<const OutboundMessage> sends) {
  std::vector<std::pair<core::Rank, std::uint32_t>> pattern;
  pattern.reserve(sends.size());
  for (const OutboundMessage& s : sends)
    pattern.emplace_back(s.dest, static_cast<std::uint32_t>(s.bytes.size()));
  return pattern;
}

// Header-only wire format of the planning pass: u32 count, then per
// submessage { i32 source, i32 dest, u32 len }. Only plan() traffic uses it
// (a collective, so no other reader can see these frames).
std::vector<std::byte> serialize_headers(const StageMessage& msg) {
  std::vector<std::byte> out(4 + msg.subs.size() * 12);
  std::byte* p = out.data();
  const auto count = static_cast<std::uint32_t>(msg.subs.size());
  std::memcpy(p, &count, 4);
  p += 4;
  for (const Submessage& s : msg.subs) {
    std::memcpy(p, &s.source, 4);
    std::memcpy(p + 4, &s.dest, 4);
    std::memcpy(p + 8, &s.size_bytes, 4);
    p += 12;
  }
  return out;
}

std::vector<Submessage> deserialize_headers(std::span<const std::byte> wire) {
  core::require(wire.size() >= 4, "plan: truncated header frame");
  std::uint32_t count = 0;
  std::memcpy(&count, wire.data(), 4);
  core::require(wire.size() == 4 + static_cast<std::size_t>(count) * 12,
                "plan: header frame size mismatch");
  std::vector<Submessage> subs(count);
  const std::byte* p = wire.data() + 4;
  for (Submessage& s : subs) {
    std::memcpy(&s.source, p, 4);
    std::memcpy(&s.dest, p + 4, 4);
    std::memcpy(&s.size_bytes, p + 8, 4);
    p += 12;
  }
  return subs;
}

// Provenance encoding of the planning pass: StfwRankState routes
// Submessage::offset untouched, so while planning it carries where the
// payload will come from at replay time instead of an arena offset.
constexpr std::uint64_t kProvRecvBit = 1ull << 63;

std::uint64_t encode_recv_prov(int stage, std::size_t frame, std::uint64_t offset) {
  return kProvRecvBit | (static_cast<std::uint64_t>(stage) << 48) |
         (static_cast<std::uint64_t>(frame) << 32) | offset;
}

core::PayloadSrc decode_prov(std::uint64_t enc, std::uint32_t bytes) {
  core::PayloadSrc src;
  src.bytes = bytes;
  if ((enc & kProvRecvBit) == 0) {
    src.kind = core::PayloadSrc::Kind::kSeed;
    src.index = static_cast<std::uint32_t>(enc);
  } else {
    src.kind = core::PayloadSrc::Kind::kRecv;
    src.stage = static_cast<std::uint8_t>((enc >> 48) & 0x7fu);
    src.frame = static_cast<std::uint16_t>((enc >> 32) & 0xffffu);
    src.offset = static_cast<std::uint32_t>(enc & 0xffffffffull);
  }
  return src;
}

// True when a received wire frame has exactly the submessage headers the
// plan expects at the planned offsets. Any deviation means a peer's pattern
// drifted since the plan was recorded.
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

// Copies `frame`'s prebuilt wire image and fills its payload gaps from the
// seed payload views / previously received raw frames. The historical
// copying assembly, kept as the zero-copy A/B baseline (set_zero_copy(false)
// / STFW_ZERO_COPY=0): every payload byte is written twice, once as the
// image's zeroed gap and once as the payload itself.
std::vector<std::byte> fill_planned_frame(
    const core::PlanOutFrame& frame, std::span<const std::span<const std::byte>> seeds,
    const std::vector<std::vector<std::vector<std::byte>>>& in_raw) {
  std::vector<std::byte> wire(frame.image);
  for (std::size_t i = 0; i < frame.slots.size(); ++i) {
    const core::PayloadSrc& src = frame.slots[i];
    const std::byte* from = src.kind == core::PayloadSrc::Kind::kSeed
                                ? seeds[src.index].data()
                                : in_raw[src.stage][src.frame].data() + src.offset;
    std::memcpy(wire.data() + frame.slot_offsets[i], from, src.bytes);
  }
  return wire;
}

// Scatter/gather assembly of one planned frame into a pooled wire buffer:
// template segments of the frozen image (the submessage headers between the
// payload gaps) are interleaved with payload memcpys straight from the seed
// views / parked inbound frames. Every byte of the buffer is written exactly
// once — no image pre-copy, no double-written payload bytes, and (since the
// pool's sanitize-mode poison is fully overwritten) nothing stale can leak
// onto the wire. Slot offsets were audited by validate_plan_layout at plan
// construction, so the arithmetic here can trust them.
std::vector<std::byte> gather_planned_frame(
    core::BufferPool& pool, const core::PlanOutFrame& frame,
    std::span<const std::span<const std::byte>> seeds,
    const std::vector<std::vector<std::vector<std::byte>>>& in_raw) {
  std::vector<std::byte> wire = pool.acquire(frame.image.size());
  const std::byte* img = frame.image.data();
  std::byte* out = wire.data();
  std::size_t cursor = 0;
  for (std::size_t i = 0; i < frame.slots.size(); ++i) {
    const core::PayloadSrc& src = frame.slots[i];
    const std::size_t off = frame.slot_offsets[i];
    if (off > cursor) std::memcpy(out + cursor, img + cursor, off - cursor);
    const std::byte* from = src.kind == core::PayloadSrc::Kind::kSeed
                                ? seeds[src.index].data()
                                : in_raw[src.stage][src.frame].data() + src.offset;
    std::memcpy(out + off, from, src.bytes);
    cursor = off + src.bytes;
  }
  if (cursor < frame.image.size())
    std::memcpy(out + cursor, img + cursor, frame.image.size() - cursor);
  return wire;
}

// Per-exchange pool counters: the difference between the communicator pool's
// cumulative stats now and at exchange entry.
void record_pool_delta(LocalExchangeStats& stats, const core::BufferPoolStats& now,
                       const core::BufferPoolStats& before) {
  stats.pool_hits = now.hits - before.hits;
  stats.pool_misses = now.misses - before.misses;
  stats.pool_reused_bytes = now.reused_bytes - before.reused_bytes;
}

// Materializes the InboundMessages of a completed planned exchange.
std::vector<InboundMessage> planned_result(
    const core::ExchangePlanLayout& layout, std::span<const std::span<const std::byte>> seeds,
    const std::vector<std::vector<std::vector<std::byte>>>& in_raw) {
  std::vector<InboundMessage> result;
  result.reserve(layout.deliveries.size());
  for (const core::PlanDelivery& d : layout.deliveries) {
    if (d.src.bytes == 0) {
      result.push_back(InboundMessage{d.source, {}});
      continue;
    }
    const std::byte* from = d.src.kind == core::PayloadSrc::Kind::kSeed
                                ? seeds[d.src.index].data()
                                : in_raw[d.src.stage][d.src.frame].data() + d.src.offset;
    result.push_back(InboundMessage{d.source, {from, from + d.src.bytes}});
  }
  return result;
}

std::vector<std::span<const std::byte>> seed_views_of(std::span<const OutboundMessage> sends) {
  std::vector<std::span<const std::byte>> views;
  views.reserve(sends.size());
  for (const OutboundMessage& s : sends) views.emplace_back(s.bytes);
  return views;
}

bool validation_default() {
#if STFW_VALIDATE_ENABLED
  // Strict parse (core/env): a typo'd STFW_VALIDATE throws instead of
  // silently leaving the validator on.
  return core::env_flag("STFW_VALIDATE", true);
#else
  return false;
#endif
}

}  // namespace

bool StfwCommunicator::validation_available() noexcept {
#if STFW_VALIDATE_ENABLED
  return true;
#else
  return false;
#endif
}

std::chrono::milliseconds next_backoff(std::chrono::milliseconds current, double factor,
                                       std::chrono::milliseconds retransmit_timeout,
                                       std::chrono::milliseconds stage_deadline) noexcept {
  using rep = std::chrono::milliseconds::rep;
  // Cap the backoff well below the stage deadline: the settlement loop's
  // wall budget is max_settle_rounds * retransmit_timeout, and a retry
  // scheduled beyond it would be force-failed even though the peer was
  // about to accept it. The 8x term is skipped when the multiply would
  // overflow rep; the cap itself never goes negative.
  rep cap = std::max<rep>(stage_deadline.count(), 0);
  const rep rt = retransmit_timeout.count();
  if (rt >= 0 && rt < std::numeric_limits<rep>::max() / 8) cap = std::min(cap, 8 * rt);
  // Clamp BEFORE the double -> rep cast: current * factor can exceed what
  // rep holds (large factor, or backoff grown near rep's max), and casting
  // an out-of-range double is undefined — observed as a negative delay that
  // turns the retry loop into a hot spin. NaN and negative products floor
  // at zero.
  const double scaled = static_cast<double>(current.count()) * factor;
  if (!(scaled >= 0.0)) return std::chrono::milliseconds{0};
  if (scaled >= static_cast<double>(cap)) return std::chrono::milliseconds{cap};
  return std::chrono::milliseconds{static_cast<rep>(scaled)};
}

StfwCommunicator::StfwCommunicator(runtime::Comm& comm, core::Vpt vpt)
    : comm_(&comm),
      vpt_(std::move(vpt)),
      validate_(validation_default()),
      exchange_deadline_(std::chrono::milliseconds(
          core::env_u64("STFW_EXCHANGE_DEADLINE_MS", kDefaultExchangeDeadlineMs))),
      barrier_sync_(core::env_flag("STFW_BARRIER_SYNC", false)),
      zero_copy_(core::env_flag("STFW_ZERO_COPY", true)),
      plan_cache_capacity_(static_cast<std::size_t>(
          core::env_u64("STFW_PLAN_CACHE", kDefaultPlanCacheCapacity))) {
  core::require(vpt_.size() == comm.size(),
                "StfwCommunicator: VPT size must equal communicator size");
}

runtime::Deadline StfwCommunicator::stage_deadline() const {
  return exchange_deadline_.count() == 0 ? runtime::Deadline::never()
                                         : runtime::Deadline::in(exchange_deadline_);
}

void StfwCommunicator::stage_neighbor_ranks(int stage, std::vector<int>& out) const {
  out.clear();
  const auto me = static_cast<core::Rank>(comm_->rank());
  const int k = vpt_.dim_size(stage);
  // with_coord over ascending digit values yields ascending ranks, matching
  // the drain() sort order the plan's in_frame indices were frozen under.
  for (int v = 0; v < k; ++v) {
    const core::Rank r = vpt_.with_coord(me, stage, v);
    if (r != me) out.push_back(static_cast<int>(r));
  }
}

void StfwCommunicator::send_stage_fillers(int stage, int tag, std::span<const int> neighbors,
                                          const std::vector<bool>& covered, bool count_stats) {
  (void)stage;
  for (std::size_t i = 0; i < neighbors.size(); ++i) {
    if (covered[i]) continue;
    if (count_stats) {
      ++stats_.filler_frames_sent;
      stats_.wire_bytes_sent += 4;
    }
    comm_->send(neighbors[i], tag, filler_frame());
  }
}

std::vector<std::byte> StfwCommunicator::planned_frame_bytes(
    const core::PlanOutFrame& frame, std::span<const std::span<const std::byte>> seeds,
    const std::vector<std::vector<std::vector<std::byte>>>& in_raw) {
  return zero_copy_ ? gather_planned_frame(pool_, frame, seeds, in_raw)
                    : fill_planned_frame(frame, seeds, in_raw);
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
  if (plan_cache_.size() >= plan_cache_capacity_ && !plan_cache_.empty()) {
    std::size_t lru = 0;
    for (std::size_t i = 1; i < plan_cache_.size(); ++i)
      if (plan_cache_[i].last_use < plan_cache_[lru].last_use) lru = i;
    plan_cache_[lru] = PlanCacheEntry{std::move(plan), ++plan_cache_tick_};
    return;
  }
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
  if (plan_cache_capacity() > 0) {
    const auto pattern = pattern_of(sends);
    const auto sig = core::PatternSignature::of(pattern);
    // The shared_ptr pins the plan for the call: a mid-flight fallback
    // erases the cache entry while the plan's scratch is still in use.
    if (const std::shared_ptr<runtime::ExchangePlan> hit = plan_cache_find(sig))
      return exchange_planned_cached(*hit, sends, overlap);
    return exchange_unplanned(sends, &sig, overlap);
  }
  return exchange_unplanned(sends, nullptr, overlap);
}

std::vector<InboundMessage> StfwCommunicator::exchange_unplanned(
    std::span<const OutboundMessage> sends, const core::PatternSignature* record_as,
    const OverlapHook& overlap) {
  const auto me = static_cast<core::Rank>(comm_->rank());
  StfwRankState state(vpt_, me);
  PayloadArena arena;
  stats_ = LocalExchangeStats{};

  // On a cache miss the exchange records itself into a PlanRecorder:
  // payload provenance (seed index or inbound-frame slice) is tracked per
  // arena offset so the finished layout can replay the routing with plain
  // memcpys next iteration.
  std::optional<core::PlanRecorder> recorder;
  std::unordered_map<std::uint64_t, core::PayloadSrc> provenance;
  if (record_as != nullptr) recorder.emplace(vpt_, me, record_as->sequence);

#if STFW_VALIDATE_ENABLED
  std::optional<validate::ExchangeValidator> validator;
  if (validate_) validator.emplace(vpt_, me);
#endif

  std::uint64_t seed_bytes = 0;
  std::uint32_t seed_index = 0;
  for (const OutboundMessage& s : sends) {
#if STFW_VALIDATE_ENABLED
    if (validator) validator->on_seed(s.dest, s.bytes);
#endif
    const std::uint64_t off = arena.add(s.bytes);
    state.add_send(s.dest, off, static_cast<std::uint32_t>(s.bytes.size()));
    if (recorder && !s.bytes.empty()) {
      core::PayloadSrc src;
      src.kind = core::PayloadSrc::Kind::kSeed;
      src.index = seed_index;
      src.bytes = static_cast<std::uint32_t>(s.bytes.size());
      provenance.insert_or_assign(off, src);
    }
    ++seed_index;
    seed_bytes += s.bytes.size();
  }

  std::vector<StageMessage> outbox;
  std::vector<core::PayloadSrc> srcs;
  std::vector<int> nbrs;
  std::vector<bool> covered;
  std::uint64_t transit_peak = 0;
  const int tag_base = epoch_ * vpt_.dim();
  fault::FaultInjector* injector = comm_->fault_injector();
  for (int stage = 0; stage < vpt_.dim(); ++stage) {
    verify_stage_tag(static_cast<int>(me), stage);
    if (injector != nullptr) injector->at_stage(static_cast<int>(me), stage);
    const int tag = tag_base + stage;
    stage_neighbor_ranks(stage, nbrs);
    covered.assign(nbrs.size(), false);
    outbox.clear();
    state.make_stage_outbox(stage, outbox);
    for (const StageMessage& m : outbox) {
#if STFW_VALIDATE_ENABLED
      if (validator) validator->on_stage_send(stage, m);
#endif
      if (recorder) {
        srcs.clear();
        for (const Submessage& s : m.subs)
          srcs.push_back(s.size_bytes == 0 ? core::PayloadSrc{} : provenance.at(s.offset));
        recorder->on_stage_send(stage, m.to, m.subs, srcs);
      }
      auto wire = core::serialize(m, arena);
      ++stats_.messages_sent;
      stats_.payload_bytes_sent += m.payload_bytes();
      stats_.wire_bytes_sent += wire.size();
      const auto ni = std::lower_bound(nbrs.begin(), nbrs.end(), static_cast<int>(m.to));
      if (ni != nbrs.end() && *ni == static_cast<int>(m.to))
        covered[static_cast<std::size_t>(ni - nbrs.begin())] = true;
      comm_->send(static_cast<int>(m.to), tag, std::move(wire));
    }
    send_stage_fillers(stage, tag, nbrs, covered, /*count_stats=*/true);
    if (stage == 0 && overlap) overlap();
    // Dependency-driven progress: this rank's stage completes as soon as one
    // frame — real or filler — has arrived from each dimension-`stage`
    // neighbor; frames of later stages and exchanges wait in the mailbox
    // under their own tags. barrier_sync() re-inserts the bulk-synchronous
    // seed schedule for A/B measurement.
    if (barrier_sync_) comm_->barrier(stage_deadline());
    std::size_t frame_index = 0;
    for (runtime::Message& m : comm_->recv_from_each(nbrs, tag, stage_deadline())) {
      if (is_filler_frame(m.data)) {
        ++stats_.filler_frames_received;
        continue;
      }
      ++stats_.messages_received;
      const std::vector<Submessage> subs = core::deserialize(m.data, arena);
#if STFW_VALIDATE_ENABLED
      if (validator)
        validator->on_stage_recv(stage, static_cast<core::Rank>(m.source), subs);
#endif
      if (recorder) {
        const core::PlanInFrame& frame =
            recorder->on_stage_recv(stage, static_cast<core::Rank>(m.source), subs);
        for (std::size_t k = 0; k < subs.size(); ++k) {
          if (subs[k].size_bytes == 0) continue;
          core::PayloadSrc src;
          src.kind = core::PayloadSrc::Kind::kRecv;
          src.stage = static_cast<std::uint8_t>(stage);
          src.frame = static_cast<std::uint16_t>(frame_index);
          src.offset = static_cast<std::uint32_t>(frame.subs[k].offset);
          src.bytes = subs[k].size_bytes;
          provenance.insert_or_assign(subs[k].offset, src);
        }
      }
      state.accept(stage, subs);
      ++frame_index;
    }
    transit_peak = std::max(transit_peak, state.buffered_payload_bytes());
    if (recorder)
      recorder->on_stage_complete(stage, state.buffered_payload_bytes(),
                                  state.buffered_submessage_count());
#if STFW_VALIDATE_ENABLED
    if (validator)
      validator->on_stage_complete(stage, state.buffered_payload_bytes(),
                                   state.buffered_submessage_count());
#endif
  }
  ++epoch_;

  // Paper Section 6.2 buffer metric: original send + receive buffers plus
  // the store-and-forward transit residency.
  stats_.peak_buffer_bytes = seed_bytes + state.delivered_payload_bytes() + transit_peak;

  std::vector<Submessage> delivered = state.take_delivered();

#if STFW_VALIDATE_ENABLED
  if (validator) {
    // Collective conservation + buffer-bound verdict: every rank shares its
    // seed-side claims and checks its deliveries against them.
    const auto summaries = comm_->allgather(validator->summary_blob(), stage_deadline());
    validator->finish(delivered, arena, stats_.messages_sent, summaries);
  }
#endif

  std::vector<InboundMessage> result;
  std::stable_sort(delivered.begin(), delivered.end(),
                   [](const Submessage& a, const Submessage& b) { return a.source < b.source; });
  if (recorder) {
    srcs.clear();
    for (const Submessage& s : delivered)
      srcs.push_back(s.size_bytes == 0 ? core::PayloadSrc{} : provenance.at(s.offset));
    plan_cache_insert(
        std::make_shared<runtime::ExchangePlan>(recorder->finish(delivered, srcs)));
    stats_.plan_builds = 1;
  }
  result.reserve(delivered.size());
  for (const Submessage& s : delivered) {
    const auto payload = arena.view(s);
    result.push_back(InboundMessage{s.source, {payload.begin(), payload.end()}});
  }
  return result;
}

std::vector<InboundMessage> StfwCommunicator::exchange_planned_cached(
    runtime::ExchangePlan& plan, std::span<const OutboundMessage> sends,
    const OverlapHook& overlap) {
  const auto me = static_cast<core::Rank>(comm_->rank());
  const core::ExchangePlanLayout& layout = plan.layout();
  const int n = vpt_.dim();
  stats_ = LocalExchangeStats{};
  stats_.plan_hits = 1;
  // Any replay recycles the plan's parked frames, so views handed out by an
  // earlier exchange_views() stop being valid here — drop them now rather
  // than leave a span into a poisoned/reused buffer reachable.
  plan.views_.clear();
  const core::BufferPoolStats pool_before = pool_.stats();
  const int tag_base = epoch_ * n;
  fault::FaultInjector* injector = comm_->fault_injector();
  const std::vector<std::span<const std::byte>> seeds = seed_views_of(sends);
  std::vector<int> nbrs;
  std::vector<bool> covered;
  std::vector<std::size_t> real_idx;

#if STFW_VALIDATE_ENABLED
  std::optional<validate::ExchangeValidator> validator;
  if (validate_) {
    validator.emplace(vpt_, me);
    for (const OutboundMessage& s : sends) validator->on_seed(s.dest, s.bytes);
  }
#endif

  for (int stage = 0; stage < n; ++stage) {
    verify_stage_tag(static_cast<int>(me), stage);
    if (injector != nullptr) injector->at_stage(static_cast<int>(me), stage);
    const int tag = tag_base + stage;
    stage_neighbor_ranks(stage, nbrs);
    covered.assign(nbrs.size(), false);
    for (const core::PlanOutFrame& f : layout.out_frames[static_cast<std::size_t>(stage)]) {
#if STFW_VALIDATE_ENABLED
      if (validator) {
        StageMessage m;
        m.from = me;
        m.to = f.to;
        m.subs = f.subs;
        validator->on_stage_send(stage, m);
      }
#endif
      auto wire = planned_frame_bytes(f, seeds, plan.in_raw_);
      ++stats_.messages_sent;
      stats_.payload_bytes_sent += f.payload_bytes;
      stats_.wire_bytes_sent += wire.size();
      const auto ni = std::lower_bound(nbrs.begin(), nbrs.end(), static_cast<int>(f.to));
      if (ni != nbrs.end() && *ni == static_cast<int>(f.to))
        covered[static_cast<std::size_t>(ni - nbrs.begin())] = true;
      comm_->send(static_cast<int>(f.to), tag, std::move(wire));
    }
    // Same regularized one-frame-per-neighbor traffic as the unplanned path,
    // so a cluster in which some ranks hit the cache and others miss (or
    // fall back mid-exchange) stays deadlock-free without a barrier.
    send_stage_fillers(stage, tag, nbrs, covered, /*count_stats=*/true);
    if (stage == 0 && overlap) overlap();
    if (barrier_sync_) comm_->barrier(stage_deadline());
    std::vector<runtime::Message> msgs = comm_->recv_from_each(nbrs, tag, stage_deadline());

    // Matching against the frozen roster: expected (real) frames must appear
    // with their planned headers in ascending-source order, and every other
    // neighbor's frame must be a filler. Any deviation means a peer's pattern
    // drifted since the plan was recorded.
    const auto& expected = layout.in_frames[static_cast<std::size_t>(stage)];
    real_idx.clear();
    bool match = true;
    for (std::size_t i = 0; match && i < msgs.size(); ++i) {
      const std::size_t ei = real_idx.size();
      if (ei < expected.size() && msgs[i].source == static_cast<int>(expected[ei].source)) {
        match = frame_headers_match(msgs[i].data, expected[ei]);
        real_idx.push_back(i);
      } else {
        match = is_filler_frame(msgs[i].data);
      }
    }
    match = match && real_idx.size() == expected.size();

    if (!match) {
      // A peer's pattern drifted since the plan was recorded: the inbound
      // frames no longer match the frozen roster. Rebuild Algorithm 1 state
      // by replaying the stages already completed from the raw frames the
      // plan kept, ingest what actually arrived, and continue unplanned.
      // Frames already sent this stage depended only on our own (matching)
      // pattern, so nothing wrong went out.
      stats_.plan_fallbacks = 1;
      plan_cache_erase(layout.signature);

      StfwRankState state(vpt_, me);
      PayloadArena arena;
      std::uint64_t seed_bytes = 0;
      for (const OutboundMessage& s : sends) {
        const std::uint64_t off = arena.add(s.bytes);
        state.add_send(s.dest, off, static_cast<std::uint32_t>(s.bytes.size()));
        seed_bytes += s.bytes.size();
      }
      std::vector<StageMessage> outbox;
      std::uint64_t transit_peak = 0;
      for (int s = 0; s < stage; ++s) {
        outbox.clear();
        state.make_stage_outbox(s, outbox);  // already on the wire; discard
        for (const std::vector<std::byte>& raw : plan.in_raw_[static_cast<std::size_t>(s)])
          state.accept(s, core::deserialize(raw, arena));
        transit_peak = std::max(transit_peak, state.buffered_payload_bytes());
      }
      outbox.clear();
      state.make_stage_outbox(stage, outbox);  // already on the wire; discard
      for (runtime::Message& m : msgs) {
        if (is_filler_frame(m.data)) {
          ++stats_.filler_frames_received;
          continue;
        }
        ++stats_.messages_received;
        const std::vector<Submessage> subs = core::deserialize(m.data, arena);
#if STFW_VALIDATE_ENABLED
        if (validator)
          validator->on_stage_recv(stage, static_cast<core::Rank>(m.source), subs);
#endif
        state.accept(stage, subs);
      }
      transit_peak = std::max(transit_peak, state.buffered_payload_bytes());
#if STFW_VALIDATE_ENABLED
      if (validator)
        validator->on_stage_complete(stage, state.buffered_payload_bytes(),
                                     state.buffered_submessage_count());
#endif
      for (int s = stage + 1; s < n; ++s) {
        verify_stage_tag(static_cast<int>(me), s);
        if (injector != nullptr) injector->at_stage(static_cast<int>(me), s);
        const int t = tag_base + s;
        stage_neighbor_ranks(s, nbrs);
        covered.assign(nbrs.size(), false);
        outbox.clear();
        state.make_stage_outbox(s, outbox);
        for (const StageMessage& m : outbox) {
#if STFW_VALIDATE_ENABLED
          if (validator) validator->on_stage_send(s, m);
#endif
          auto wire = core::serialize(m, arena);
          ++stats_.messages_sent;
          stats_.payload_bytes_sent += m.payload_bytes();
          stats_.wire_bytes_sent += wire.size();
          const auto ni = std::lower_bound(nbrs.begin(), nbrs.end(), static_cast<int>(m.to));
          if (ni != nbrs.end() && *ni == static_cast<int>(m.to))
            covered[static_cast<std::size_t>(ni - nbrs.begin())] = true;
          comm_->send(static_cast<int>(m.to), t, std::move(wire));
        }
        send_stage_fillers(s, t, nbrs, covered, /*count_stats=*/true);
        if (barrier_sync_) comm_->barrier(stage_deadline());
        for (runtime::Message& m : comm_->recv_from_each(nbrs, t, stage_deadline())) {
          if (is_filler_frame(m.data)) {
            ++stats_.filler_frames_received;
            continue;
          }
          ++stats_.messages_received;
          const std::vector<Submessage> subs = core::deserialize(m.data, arena);
#if STFW_VALIDATE_ENABLED
          if (validator)
            validator->on_stage_recv(s, static_cast<core::Rank>(m.source), subs);
#endif
          state.accept(s, subs);
        }
        transit_peak = std::max(transit_peak, state.buffered_payload_bytes());
#if STFW_VALIDATE_ENABLED
        if (validator)
          validator->on_stage_complete(s, state.buffered_payload_bytes(),
                                       state.buffered_submessage_count());
#endif
      }
      ++epoch_;
      stats_.peak_buffer_bytes = seed_bytes + state.delivered_payload_bytes() + transit_peak;
      record_pool_delta(stats_, pool_.stats(), pool_before);
      std::vector<Submessage> delivered = state.take_delivered();
#if STFW_VALIDATE_ENABLED
      if (validator) {
        const auto summaries = comm_->allgather(validator->summary_blob(), stage_deadline());
        validator->finish(delivered, arena, stats_.messages_sent, summaries);
      }
#endif
      std::vector<InboundMessage> result;
      std::stable_sort(
          delivered.begin(), delivered.end(),
          [](const Submessage& a, const Submessage& b) { return a.source < b.source; });
      result.reserve(delivered.size());
      for (const Submessage& sub : delivered) {
        const auto payload = arena.view(sub);
        result.push_back(InboundMessage{sub.source, {payload.begin(), payload.end()}});
      }
      return result;
    }

    stats_.filler_frames_received +=
        static_cast<std::int64_t>(msgs.size() - expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ++stats_.messages_received;
#if STFW_VALIDATE_ENABLED
      if (validator) validator->on_stage_recv(stage, expected[i].source, expected[i].subs);
#endif
      // Recycle the previous replay's frame into the pool: the next stage's
      // (or iteration's) outbound gathers draw from it, so the steady state
      // cycles a fixed working set of allocations across the cluster.
      auto& slot = plan.in_raw_[static_cast<std::size_t>(stage)][i];
      if (zero_copy_ && !slot.empty()) pool_.release(std::move(slot));
      slot = std::move(msgs[real_idx[i]].data);
    }
#if STFW_VALIDATE_ENABLED
    if (validator)
      validator->on_stage_complete(stage,
                                   layout.stage_buffered_bytes[static_cast<std::size_t>(stage)],
                                   layout.stage_buffered_subs[static_cast<std::size_t>(stage)]);
#endif
  }
  ++epoch_;
  stats_.peak_buffer_bytes = layout.peak_buffer_bytes();
  record_pool_delta(stats_, pool_.stats(), pool_before);

  std::vector<InboundMessage> result = planned_result(layout, seeds, plan.in_raw_);

#if STFW_VALIDATE_ENABLED
  if (validator) {
    PayloadArena varena;
    std::vector<Submessage> vdelivered;
    vdelivered.reserve(result.size());
    for (const InboundMessage& r : result) {
      Submessage s;
      s.source = r.source;
      s.dest = me;
      s.size_bytes = static_cast<std::uint32_t>(r.bytes.size());
      s.offset = varena.add(r.bytes);
      vdelivered.push_back(s);
    }
    const auto summaries = comm_->allgather(validator->summary_blob(), stage_deadline());
    validator->finish(vdelivered, varena, stats_.messages_sent, summaries);
  }
#endif
  return result;
}

std::shared_ptr<runtime::ExchangePlan> StfwCommunicator::plan(
    std::span<const OutboundMessage> sends) {
  core::require(!comm_->membership().any_failed(),
                "plan: cluster is degraded (a rank died); the planning collective "
                "cannot survive rank failure — use exchange_resilient()");
  const auto me = static_cast<core::Rank>(comm_->rank());
  const auto pattern = pattern_of(sends);
  core::PlanRecorder recorder(vpt_, me, pattern);
  StfwRankState state(vpt_, me);

  // Header-only collective planning pass: the same Algorithm 1 stage
  // structure with empty wire bodies. Submessage::offset carries payload
  // provenance (seed index or inbound-frame slice) through the routing.
  std::uint32_t index = 0;
  for (const auto& [dest, size] : pattern) state.add_send(dest, index++, size);

  std::vector<StageMessage> outbox;
  std::vector<core::PayloadSrc> srcs;
  std::vector<int> nbrs;
  std::vector<bool> covered;
  const int tag_base = epoch_ * vpt_.dim();
  fault::FaultInjector* injector = comm_->fault_injector();
  for (int stage = 0; stage < vpt_.dim(); ++stage) {
    verify_stage_tag(static_cast<int>(me), stage);
    if (injector != nullptr) injector->at_stage(static_cast<int>(me), stage);
    const int tag = tag_base + stage;
    stage_neighbor_ranks(stage, nbrs);
    covered.assign(nbrs.size(), false);
    outbox.clear();
    state.make_stage_outbox(stage, outbox);
    for (const StageMessage& m : outbox) {
      srcs.clear();
      for (const Submessage& s : m.subs) srcs.push_back(decode_prov(s.offset, s.size_bytes));
      recorder.on_stage_send(stage, m.to, m.subs, srcs);
      const auto ni = std::lower_bound(nbrs.begin(), nbrs.end(), static_cast<int>(m.to));
      if (ni != nbrs.end() && *ni == static_cast<int>(m.to))
        covered[static_cast<std::size_t>(ni - nbrs.begin())] = true;
      comm_->send(static_cast<int>(m.to), tag, serialize_headers(m));
    }
    // Planning traffic is regularized too (an empty header frame is the same
    // 4 bytes as a payload-format filler), but frozen stats stay filler-free.
    send_stage_fillers(stage, tag, nbrs, covered, /*count_stats=*/false);
    std::size_t frame_index = 0;
    for (runtime::Message& m : comm_->recv_from_each(nbrs, tag, stage_deadline())) {
      if (is_filler_frame(m.data)) continue;
      std::vector<Submessage> subs = deserialize_headers(m.data);
      const core::PlanInFrame& frame =
          recorder.on_stage_recv(stage, static_cast<core::Rank>(m.source), subs);
      for (std::size_t k = 0; k < subs.size(); ++k)
        subs[k].offset = encode_recv_prov(stage, frame_index, frame.subs[k].offset);
      state.accept(stage, subs);
      ++frame_index;
    }
    recorder.on_stage_complete(stage, state.buffered_payload_bytes(),
                               state.buffered_submessage_count());
  }
  ++epoch_;

  std::vector<Submessage> delivered = state.take_delivered();
  std::stable_sort(delivered.begin(), delivered.end(),
                   [](const Submessage& a, const Submessage& b) { return a.source < b.source; });
  srcs.clear();
  for (const Submessage& s : delivered) srcs.push_back(decode_prov(s.offset, s.size_bytes));
  return std::make_shared<runtime::ExchangePlan>(recorder.finish(delivered, srcs));
}

void StfwCommunicator::replay_plan_stages(
    runtime::ExchangePlan& plan, std::span<const std::span<const std::byte>> payloads) {
  core::require(!comm_->membership().any_failed(),
                "exchange(plan): cluster is degraded (a rank died); planned replay "
                "cannot survive rank failure — use exchange_resilient()");
  const auto me = static_cast<core::Rank>(comm_->rank());
  const core::ExchangePlanLayout& layout = plan.layout();
  core::require(layout.rank == me, "exchange(plan): plan belongs to another rank");
  core::require(layout.vpt_dims == vpt_.dim_sizes(),
                "exchange(plan): plan was built for a different VPT");
  const auto& sequence = layout.signature.sequence;
  core::require(payloads.size() == sequence.size(),
                "exchange(plan): payload count differs from the planned pattern");
  for (std::size_t i = 0; i < payloads.size(); ++i)
    core::require(payloads[i].size() == sequence[i].second,
                  "exchange(plan): payload size differs from the planned pattern");

  const int n = vpt_.dim();
  stats_ = LocalExchangeStats{};
  stats_.plan_hits = 1;
  // Views of the previous replay die the moment this one starts recycling
  // the parked frames; clearing first means a throw below leaves an empty
  // span behind, never a dangling one.
  plan.views_.clear();
  const core::BufferPoolStats pool_before = pool_.stats();
  const int tag_base = epoch_ * n;
  fault::FaultInjector* injector = comm_->fault_injector();
  std::vector<int> nbrs;
  std::vector<bool> covered;

#if STFW_VALIDATE_ENABLED
  std::optional<validate::ExchangeValidator> validator;
  if (validate_) {
    validator.emplace(vpt_, me);
    for (std::size_t i = 0; i < payloads.size(); ++i)
      validator->on_seed(sequence[i].first, payloads[i]);
  }
#endif

  for (int stage = 0; stage < n; ++stage) {
    verify_stage_tag(static_cast<int>(me), stage);
    if (injector != nullptr) injector->at_stage(static_cast<int>(me), stage);
    const int tag = tag_base + stage;
    stage_neighbor_ranks(stage, nbrs);
    covered.assign(nbrs.size(), false);
    for (const core::PlanOutFrame& f : layout.out_frames[static_cast<std::size_t>(stage)]) {
#if STFW_VALIDATE_ENABLED
      if (validator) {
        StageMessage m;
        m.from = me;
        m.to = f.to;
        m.subs = f.subs;
        validator->on_stage_send(stage, m);
      }
#endif
      auto wire = planned_frame_bytes(f, payloads, plan.in_raw_);
      ++stats_.messages_sent;
      stats_.payload_bytes_sent += f.payload_bytes;
      stats_.wire_bytes_sent += wire.size();
      const auto ni = std::lower_bound(nbrs.begin(), nbrs.end(), static_cast<int>(f.to));
      if (ni != nbrs.end() && *ni == static_cast<int>(f.to))
        covered[static_cast<std::size_t>(ni - nbrs.begin())] = true;
      comm_->send(static_cast<int>(f.to), tag, std::move(wire));
    }
    send_stage_fillers(stage, tag, nbrs, covered, /*count_stats=*/true);
    // Barrier-free: the plan froze exactly which frames arrive, so the stage
    // blocks on one frame per dimension-`stage` neighbor and merges the real
    // frames against the frozen roster. All ranks must replay plans of the
    // same collective plan() — drift here is a contract violation.
    auto& raw_stage = plan.in_raw_[static_cast<std::size_t>(stage)];
    const auto& expected = layout.in_frames[static_cast<std::size_t>(stage)];
    std::size_t ei = 0;
    for (runtime::Message& m : comm_->recv_from_each(nbrs, tag, stage_deadline())) {
      if (ei < expected.size() && m.source == static_cast<int>(expected[ei].source)) {
        core::require(frame_headers_match(m.data, expected[ei]),
                      "exchange(plan): inbound frame deviates from the plan; the send "
                      "pattern changed since plan() (use plain exchange() for "
                      "iteration-varying patterns)");
        ++stats_.messages_received;
#if STFW_VALIDATE_ENABLED
        if (validator) validator->on_stage_recv(stage, expected[ei].source, expected[ei].subs);
#endif
        if (zero_copy_ && !raw_stage[ei].empty()) pool_.release(std::move(raw_stage[ei]));
        raw_stage[ei] = std::move(m.data);
        ++ei;
      } else {
        core::require(is_filler_frame(m.data),
                      "exchange(plan): inbound frame deviates from the plan; the send "
                      "pattern changed since plan() (use plain exchange() for "
                      "iteration-varying patterns)");
        ++stats_.filler_frames_received;
      }
    }
    core::require(ei == expected.size(),
                  "exchange(plan): a planned inbound frame never arrived; the send "
                  "pattern changed since plan() (use plain exchange() for "
                  "iteration-varying patterns)");
#if STFW_VALIDATE_ENABLED
    if (validator)
      validator->on_stage_complete(stage,
                                   layout.stage_buffered_bytes[static_cast<std::size_t>(stage)],
                                   layout.stage_buffered_subs[static_cast<std::size_t>(stage)]);
#endif
  }
  ++epoch_;
  stats_.peak_buffer_bytes = layout.peak_buffer_bytes();
  record_pool_delta(stats_, pool_.stats(), pool_before);

#if STFW_VALIDATE_ENABLED
  if (validator) {
    // Reconstruct the deliveries from the frozen provenance tables — the
    // exact bytes both materializers below hand out — so the conservation
    // verdict is independent of whether the caller asked for copies or views.
    PayloadArena varena;
    std::vector<Submessage> vdelivered;
    vdelivered.reserve(layout.deliveries.size());
    for (const core::PlanDelivery& d : layout.deliveries) {
      Submessage s;
      s.source = d.source;
      s.dest = me;
      s.size_bytes = d.src.bytes;
      std::span<const std::byte> bytes;
      if (d.src.bytes > 0) {
        const std::byte* from =
            d.src.kind == core::PayloadSrc::Kind::kSeed
                ? payloads[d.src.index].data()
                : plan.in_raw_[d.src.stage][d.src.frame].data() + d.src.offset;
        bytes = {from, d.src.bytes};
      }
      s.offset = varena.add(bytes);
      vdelivered.push_back(s);
    }
    const auto summaries = comm_->allgather(validator->summary_blob(), stage_deadline());
    validator->finish(vdelivered, varena, stats_.messages_sent, summaries);
  }
#endif
}

std::vector<InboundMessage> StfwCommunicator::exchange(
    runtime::ExchangePlan& plan, std::span<const std::span<const std::byte>> payloads) {
  replay_plan_stages(plan, payloads);
  return planned_result(plan.layout(), payloads, plan.in_raw_);
}

std::span<const runtime::InboundView> StfwCommunicator::exchange_views(
    runtime::ExchangePlan& plan, std::span<const std::span<const std::byte>> payloads) {
  replay_plan_stages(plan, payloads);
  const core::ExchangePlanLayout& layout = plan.layout();
  plan.views_.reserve(layout.deliveries.size());
  for (const core::PlanDelivery& d : layout.deliveries) {
    std::span<const std::byte> bytes;
    if (d.src.bytes > 0) {
      const std::byte* from =
          d.src.kind == core::PayloadSrc::Kind::kSeed
              ? payloads[d.src.index].data()
              : plan.in_raw_[d.src.stage][d.src.frame].data() + d.src.offset;
      bytes = {from, d.src.bytes};
    }
    plan.views_.push_back(runtime::InboundView{d.source, bytes});
  }
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

std::string ExchangeFailure::to_string() const {
  if (empty()) return "no failures";
  std::string out = std::to_string(lost.size()) + " lost submessage(s), " +
                    std::to_string(missing.size()) + " missing neighbor frame(s)";
  for (const LostSubmessage& l : lost) {
    out += "\n  lost: " + std::to_string(l.bytes) + " bytes " + std::to_string(l.source) +
           " -> " + std::to_string(l.dest);
    out += l.stage < 0 ? std::string(" (direct)") : " (stage " + std::to_string(l.stage) + ")";
  }
  for (const MissingNeighbor& m : missing)
    out += "\n  missing: stage " + std::to_string(m.stage) + " frame from rank " +
           std::to_string(m.neighbor);
  return out;
}

ResilientExchangeResult StfwCommunicator::exchange_resilient(
    std::span<const OutboundMessage> sends, const ResilienceOptions& opt) {
  // Retransmit timers run on verify::verify_now(): steady_clock in normal
  // builds, the deterministic logical clock under the stfw-verify scheduler.
  using clock = std::chrono::steady_clock;
  core::require(opt.max_attempts >= 1, "exchange_resilient: max_attempts must be >= 1");
  core::require(opt.backoff_factor >= 1.0, "exchange_resilient: backoff_factor must be >= 1");
  core::require(opt.retransmit_timeout.count() > 0,
                "exchange_resilient: retransmit_timeout must be positive");
  core::require(opt.stage_deadline.count() > 0,
                "exchange_resilient: stage_deadline must be positive");
  core::require(opt.max_settle_rounds >= 1, "exchange_resilient: max_settle_rounds must be >= 1");

  const auto me = static_cast<core::Rank>(comm_->rank());
  const int n = vpt_.dim();
  const int world = comm_->size();
  StfwRankState state(vpt_, me);
  PayloadArena arena;
  stats_ = LocalExchangeStats{};
  ResilientExchangeResult result;

  // The membership view this exchange acts on. The epoch is polled every
  // event-loop iteration (one relaxed atomic load); a change re-snapshots
  // the bitmap and re-homes in-flight traffic (on_membership_change below).
  runtime::MembershipSnapshot mem = comm_->membership().snapshot();
  bool degraded = mem.alive_count < world;
  std::uint32_t announced_epoch = mem.epoch;  // deaths known at entry need no notice
  stats_.membership_epoch = mem.epoch;

  // Decorrelation jitter on the retransmit backoff. STFW_RETRY_JITTER
  // overrides the option (strict parse: a typo throws instead of silently
  // disabling jitter).
  double jitter = opt.retry_jitter;
  if (core::env_present("STFW_RETRY_JITTER"))
    jitter = core::env_double("STFW_RETRY_JITTER", jitter);
  core::require(jitter >= 0.0 && jitter <= 1.0,
                "exchange_resilient: retry jitter must be in [0, 1]");

  // Claim the epoch up front so a thrown exchange cannot leave stale frames
  // that a retry under the same epoch would mistake for its own.
  const auto epoch = static_cast<std::uint32_t>(epoch_);
  ++epoch_;
  fault::FaultInjector* injector = comm_->fault_injector();
  // Jitter draws are seeded per (rank, exchange): reproducible run to run,
  // and deterministic under the STFW_VERIFY schedule explorer.
  std::mt19937_64 jitter_rng((static_cast<std::uint64_t>(me) << 32) ^ epoch ^
                             0x9e3779b97f4a7c15ull);

#if STFW_VALIDATE_ENABLED
  std::optional<validate::ExchangeValidator> validator;
  if (validate_) validator.emplace(vpt_, me);
#endif

  // A cached plan for this pattern supplies frozen seed routing dimensions
  // (the full frame layout cannot be replayed here: injected faults make the
  // inbound schedule non-deterministic, so only the seeding scan is reused).
  // In degraded mode the frozen layout is *incrementally repaired* for the
  // current membership — diffed, not re-recorded — and its seed-route
  // overrides steer each send onto a surviving canonical hop, the relay
  // lane, or a dead-destination drop.
  std::shared_ptr<runtime::ExchangePlan> seed_plan;
  if (plan_cache_capacity_ > 0)
    seed_plan = plan_cache_find(core::PatternSignature::of(pattern_of(sends)));
  if (seed_plan) stats_.plan_hits = 1;
  std::shared_ptr<const core::RepairedPlan> repaired;
  if (seed_plan && degraded) {
    const std::uint64_t sig_key = seed_plan->layout().signature.key;
    if (repaired_plan_ != nullptr && repaired_sig_key_ == sig_key &&
        repaired_epoch_ == mem.epoch) {
      repaired = repaired_plan_;  // same pattern, same membership: reuse the diff
    } else {
      repaired = std::make_shared<const core::RepairedPlan>(
          core::repair_plan(seed_plan->layout(), vpt_, mem.alive));
      repaired_plan_ = repaired;
      repaired_sig_key_ = sig_key;
      repaired_epoch_ = mem.epoch;
      ++stats_.plan_repairs;
    }
  }

  // Seeds whose canonical first hop is dead leave the static plan entirely;
  // they are injected into the relay lane once its machinery exists below.
  std::vector<Submessage> relay_seeds;
  std::uint64_t seed_bytes = 0;
  std::uint32_t next_sub_id = 0;
  for (const OutboundMessage& s : sends) {
#if STFW_VALIDATE_ENABLED
    if (validator) validator->on_seed(s.dest, s.bytes);
#endif
    const std::uint64_t off = arena.add(s.bytes);
    const auto size = static_cast<std::uint32_t>(s.bytes.size());
    Submessage sub;
    sub.source = me;
    sub.dest = s.dest;
    sub.offset = off;
    sub.size_bytes = size;
    sub.id = next_sub_id;
    if (repaired != nullptr) {
      const core::SeedRoute& sr = repaired->seed_routes[next_sub_id];
      switch (sr.kind) {
        case core::SeedRoute::Kind::kSelf:
          state.add_send_routed(s.dest, -1, off, size, next_sub_id);
          break;
        case core::SeedRoute::Kind::kPlanned:
          state.add_send_routed(s.dest, sr.first_dim, off, size, next_sub_id);
          break;
        case core::SeedRoute::Kind::kRelay:
          relay_seeds.push_back(sub);
          break;
        case core::SeedRoute::Kind::kDeadDest:
          ++stats_.dead_dest_submessages_dropped;
          result.failure.lost.push_back({me, s.dest, size, -1});
          break;
      }
    } else if (degraded && s.dest != me) {
      if (!mem.is_alive(s.dest)) {
        ++stats_.dead_dest_submessages_dropped;
        result.failure.lost.push_back({me, s.dest, size, -1});
      } else {
        const int d0 = vpt_.first_diff_dim(me, s.dest);
        const core::Rank hop = vpt_.with_coord(me, d0, vpt_.coord(s.dest, d0));
        if (mem.is_alive(hop))
          state.add_send(s.dest, off, size, next_sub_id);
        else
          relay_seeds.push_back(sub);
      }
    } else if (seed_plan) {
      state.add_send_routed(s.dest, seed_plan->layout().seed_first_dim[next_sub_id], off,
                            size, next_sub_id);
    } else {
      state.add_send(s.dest, off, size, next_sub_id);
    }
    ++next_sub_id;
    seed_bytes += s.bytes.size();
  }

  // --- sender side: every frame we emitted and still track -----------------
  struct OutFrame {
    core::FrameKind kind = core::FrameKind::kData;
    int stage = -1;  // -1 for kDirect
    core::Rank dest = -1;
    std::uint32_t seq = 0;
    // No retained wire image: the tracker holds only the frame header and
    // the submessage headers (payload bytes stay in `arena`), and every
    // transmission — first send and retransmit alike — re-gathers the wire
    // bytes from them. serialize_tracked and encode_frame are deterministic
    // functions of (header, subs, arena), so a retransmit is byte-identical
    // to the original frame while an unacked frame costs O(subs) to track
    // instead of a full wire copy.
    core::FrameHeader header;
    StageMessage msg;  // subs double as the fallback / loss-reporting list
    int attempts = 0;
    clock::time_point next_retry{};
    std::chrono::milliseconds backoff{0};
    bool acked = false;
    bool failed = false;
  };
  std::vector<OutFrame> frames;
  std::unordered_map<std::uint32_t, std::size_t> frame_by_seq;
  std::uint32_t next_seq = 0;

  auto make_frame = [&](core::FrameKind kind, int stage, core::Rank dest, StageMessage msg) {
    core::FrameHeader h;
    h.kind = kind;
    h.stage = static_cast<std::uint16_t>(stage < 0 ? 0 : stage);
    h.epoch = epoch;
    h.member_epoch = mem.epoch;  // the view this frame's routing was decided under
    h.seq = next_seq;
    h.sender = me;
    OutFrame f;
    f.kind = kind;
    f.stage = stage;
    f.dest = dest;
    f.seq = next_seq;
    f.header = h;
    f.msg = std::move(msg);
    f.backoff = opt.retransmit_timeout;
    frame_by_seq.emplace(next_seq, frames.size());
    frames.push_back(std::move(f));
    ++next_seq;
  };

  auto transmit = [&](OutFrame& f, clock::time_point now) {
    if (f.attempts > 0) ++stats_.retransmits;
    ++f.attempts;
    auto wire = core::encode_frame(f.header, core::serialize_tracked(f.msg, arena));
    stats_.wire_bytes_sent += wire.size();
    comm_->send(static_cast<int>(f.dest), kResilientDataTag, std::move(wire));
    auto delay = f.backoff;
    if (jitter > 0.0 && delay > opt.retransmit_timeout) {
      // Pull the retry earlier by a random fraction of the grown part of the
      // backoff, so ranks that collided once don't retry in lockstep forever.
      const double u = std::uniform_real_distribution<double>(0.0, 1.0)(jitter_rng);
      const auto span = static_cast<double>((delay - opt.retransmit_timeout).count());
      delay -= std::chrono::milliseconds{
          static_cast<std::chrono::milliseconds::rep>(u * jitter * span)};
    }
    f.next_retry = now + delay;
    f.backoff = next_backoff(f.backoff, opt.backoff_factor, opt.retransmit_timeout,
                             opt.stage_deadline);
  };

  // Give up on frame `i`: a dead kData frame degrades into kDirect frames
  // grouped by final destination (bypassing the remaining store-and-forward
  // stages); a dead kDirect frame is a definite loss. May push new frames,
  // so callers must not hold references into `frames` across the call.
  auto fail_frame = [&](std::size_t i) {
    frames[i].failed = true;
    const core::FrameKind kind = frames[i].kind;
    const int fstage = frames[i].stage;
    std::vector<Submessage> subs = std::move(frames[i].msg.subs);
    // kRelay carries final-destination submessages just like kData, so a
    // relay hop that stops answering (slow, nacking, or newly dead) degrades
    // the same way: straight to per-destination kDirect frames. Without this
    // a survivable crash could turn into reported loss between live ranks
    // purely because the detour's first hop was congested.
    if ((kind == core::FrameKind::kData || kind == core::FrameKind::kRelay) &&
        opt.direct_fallback && !subs.empty()) {
      std::map<core::Rank, std::vector<Submessage>> groups;
      for (const Submessage& s : subs) {
        // A direct frame to a dead destination would never be acked and —
        // being budget-exempt — would pin the settlement loop to its valve.
        if (!mem.is_alive(s.dest)) {
          ++stats_.dead_dest_submessages_dropped;
          result.failure.lost.push_back({s.source, s.dest, s.size_bytes, fstage});
          continue;
        }
        groups[s.dest].push_back(s);
      }
      for (auto& [gdest, gsubs] : groups) {
        stats_.direct_fallback_submessages += static_cast<std::int64_t>(gsubs.size());
        make_frame(core::FrameKind::kDirect, -1, gdest,
                   StageMessage{me, gdest, std::move(gsubs)});
      }
    } else {
      for (const Submessage& s : subs)
        result.failure.lost.push_back({s.source, s.dest, s.size_bytes, fstage});
    }
  };

  auto send_control = [&](core::FrameKind kind, core::Rank to, const core::FrameHeader& of) {
    core::FrameHeader a;
    a.kind = kind;
    a.stage = of.stage;
    a.epoch = epoch;
    a.seq = of.seq;  // acks/nacks echo the seq they answer
    a.sender = me;
    auto w = core::encode_frame(a, {});
    if (kind == core::FrameKind::kAck) ++stats_.acks_sent;
    stats_.wire_bytes_sent += w.size();
    comm_->send(static_cast<int>(to), kResilientAckTag, std::move(w));
  };
  auto send_ack = [&](core::Rank to, const core::FrameHeader& of) {
    send_control(core::FrameKind::kAck, to, of);
  };

  // Out-of-band deliveries: submessages for this rank that arrived via
  // kDirect or kRelay frames instead of the stage machinery. Merged with the
  // staged deliveries at the end under (source, id) dedup.
  std::vector<Submessage> direct_delivered;
  std::uint64_t direct_bytes = 0;

  // --- the relay lane ------------------------------------------------------
  // Detoured traffic cannot re-enter the stage machinery: store-and-forward
  // fixes dimensions in ascending order and a detour around a dead rank
  // breaks that order, so the stages downstream would never fix the skipped
  // dimensions. Relay frames are instead event-driven — each receiver
  // delivers its own submessages and forwards the rest one greedy-alive hop
  // closer (strictly decreasing Hamming distance, so no cycles even under
  // stale membership views).
  auto route_relayed = [&](std::vector<Submessage> subs, bool count_as_relay) {
    std::map<core::Rank, std::vector<Submessage>> groups;
    for (const Submessage& s : subs) {
      if (s.dest == me) {
        direct_delivered.push_back(s);
        direct_bytes += s.size_bytes;
        continue;
      }
      if (!mem.is_alive(s.dest)) {
        ++stats_.dead_dest_submessages_dropped;
        result.failure.lost.push_back({s.source, s.dest, s.size_bytes, -1});
        continue;
      }
      groups[core::greedy_next_hop(vpt_, mem.alive, me, s.dest)].push_back(s);
    }
    for (auto& [hop, gsubs] : groups) {
      (count_as_relay ? stats_.relay_submessages : stats_.reinjected_submessages) +=
          static_cast<std::int64_t>(gsubs.size());
      make_frame(core::FrameKind::kRelay, -1, hop, StageMessage{me, hop, std::move(gsubs)});
    }
  };

  // Membership transition: re-snapshot, announce the deaths to survivors,
  // pull every tracked frame off dead destinations (re-homing its payload
  // over the relay lane), and restamp the surviving in-flight frames with
  // the new epoch so receivers don't refuse them as stale.
  auto on_membership_change = [&] {
    const runtime::MembershipSnapshot ns = comm_->membership().snapshot();
    if (ns.epoch == mem.epoch) return;
    mem = ns;
    degraded = mem.alive_count < world;
    ++stats_.epoch_transitions;
    if (announced_epoch < mem.epoch) {
      // One kFailureNotice per epoch per peer, fire-and-forget on the control
      // tag. In-process the shared Membership is the detection authority and
      // every rank's poll already sees the bump; the notice is the portable
      // wire signal a distributed transport would rely on (and what the
      // fuzz/replay tests exercise).
      announced_epoch = mem.epoch;
      std::vector<std::int32_t> dead;
      for (int r = 0; r < world; ++r)
        if (!mem.is_alive(r)) dead.push_back(r);
      core::FrameHeader nh;
      nh.kind = core::FrameKind::kFailureNotice;
      nh.epoch = epoch;
      nh.member_epoch = mem.epoch;
      nh.seq = next_seq++;
      nh.sender = me;
      const auto body = core::encode_failure_notice(mem.epoch, dead);
      for (int r = 0; r < world; ++r) {
        if (r == static_cast<int>(me) || !mem.is_alive(r)) continue;
        auto w = core::encode_frame(nh, body);
        stats_.wire_bytes_sent += w.size();
        comm_->send(r, kResilientAckTag, std::move(w));
        ++stats_.failure_notices_sent;
      }
    }
    const std::size_t tracked = frames.size();  // route_relayed appends; don't revisit
    for (std::size_t i = 0; i < tracked; ++i) {
      if (frames[i].failed || mem.is_alive(frames[i].dest)) continue;
      const bool was_acked = frames[i].acked;
      const core::FrameKind kind = frames[i].kind;
      frames[i].failed = true;  // its receiver no longer exists; stop the pump
      std::vector<Submessage> subs = std::move(frames[i].msg.subs);
      if (kind == core::FrameKind::kDirect) {
        // An acked direct frame was delivered before the death — the copy
        // died with its owner, nothing to re-home. An unacked one is lost.
        if (!was_acked) {
          for (const Submessage& s : subs) {
            ++stats_.dead_dest_submessages_dropped;
            result.failure.lost.push_back({s.source, s.dest, s.size_bytes, -1});
          }
        }
        continue;
      }
      // kData / kRelay: the dead rank's forward obligations die with it even
      // when it acked. Reinject everything bound elsewhere; end-to-end
      // (source, id) dedup absorbs whatever it managed to forward first.
      route_relayed(std::move(subs), /*count_as_relay=*/false);
    }
    // Frames are re-encoded per transmit, so advancing the membership claim
    // is a header-field write — the next retransmit carries it (the encoded
    // restamp_member_epoch fixup is only needed for retained wire images).
    for (OutFrame& f : frames)
      if (!f.acked && !f.failed) f.header.member_epoch = mem.epoch;
  };

  // Retransmit / give-up pass. Returns the earliest pending retry time (or
  // time_point::max() when nothing is outstanding). A frame that exhausts
  // its budget degrades: kData submessages are regrouped by final
  // destination and re-sent as kDirect frames (bypassing the remaining
  // store-and-forward stages); a dead kDirect frame is a definite loss.
  auto pump_sends = [&](clock::time_point now) {
    clock::time_point next = clock::time_point::max();
    for (std::size_t i = 0; i < frames.size(); ++i) {
      if (frames[i].acked || frames[i].failed) continue;
      if (frames[i].attempts == 0) {
        transmit(frames[i], now);
      } else if (now >= frames[i].next_retry) {
        // kDirect frames are exempt from the attempt budget: they are the
        // last resort, exhausting one is a permanent loss, and the
        // settlement valve already bounds how long they may keep trying.
        if (frames[i].kind != core::FrameKind::kDirect &&
            frames[i].attempts >= opt.max_attempts) {
          ++stats_.timeouts;
          fail_frame(i);
          continue;
        }
        ++stats_.timeouts;
        transmit(frames[i], now);
      }
      if (!frames[i].failed) next = std::min(next, frames[i].next_retry);
    }
    return next;
  };

  auto all_settled_locally = [&] {
    for (const OutFrame& f : frames)
      if (!f.acked && !f.failed) return false;
    return true;
  };

  // --- receiver side -------------------------------------------------------
  int cur_stage = 0;
  std::set<std::pair<std::int32_t, std::uint32_t>> seen;  // (sender, seq) dedup
  std::vector<std::set<core::Rank>> stage_got(static_cast<std::size_t>(n));
  struct EarlyFrame {
    int stage;
    core::Rank sender;
    std::vector<std::byte> body;
  };
  std::vector<EarlyFrame> early;  // frames from neighbors already past us

  auto accept_stage_subs = [&](int stage, core::Rank sender, std::span<const std::byte> body) {
    const std::vector<Submessage> subs = core::deserialize_tracked(body, arena);
#if STFW_VALIDATE_ENABLED
    if (validator) validator->on_stage_recv(stage, sender, subs);
#endif
    state.accept(stage, subs);
    ++stats_.messages_received;
    stage_got[static_cast<std::size_t>(stage)].insert(sender);
  };

  const auto carried_frames = [this](int tag) -> std::vector<runtime::Message>& {
    return carried_frames_[tag == kResilientDataTag ? 0u : 1u];
  };
  // One protocol tag's traffic: frames the previous call's epilogue carried
  // over arrived first, then whatever is queued now.
  auto incoming = [&](int tag) {
    std::vector<runtime::Message> msgs = comm_->drain(tag);
    std::vector<runtime::Message>& carried = carried_frames(tag);
    if (carried.empty()) return msgs;
    carried.insert(carried.end(), std::make_move_iterator(msgs.begin()),
                   std::make_move_iterator(msgs.end()));
    return std::exchange(carried, {});
  };
  auto process_incoming = [&] {
    for (runtime::Message& m : incoming(kResilientAckTag)) {
      const auto dec = core::decode_frame(m.data);
      if (!dec || (dec->header.kind != core::FrameKind::kAck &&
                   dec->header.kind != core::FrameKind::kNack &&
                   dec->header.kind != core::FrameKind::kFailureNotice)) {
        ++stats_.corrupt_frames_discarded;
        continue;
      }
      if (dec->header.epoch != epoch) continue;  // stale, not corrupt
      if (dec->header.kind == core::FrameKind::kFailureNotice) {
        const auto notice = core::decode_failure_notice(dec->body);
        if (!notice) {
          ++stats_.corrupt_frames_discarded;  // mutated body: reject outright
          continue;
        }
        ++stats_.failure_notices_received;
        // Epoch gate: compare the announced epoch against our current
        // membership before acting. The shared Membership is the in-process
        // authority on *who* died, so a newer notice triggers a re-snapshot
        // rather than trusting the announced dead list — a corrupt or forged
        // notice can therefore never kill a healthy rank.
        if (notice->membership_epoch > mem.epoch) on_membership_change();
        continue;
      }
      const auto it = frame_by_seq.find(dec->header.seq);
      if (it == frame_by_seq.end()) continue;
      const std::size_t idx = it->second;
      if (static_cast<core::Rank>(dec->header.sender) != frames[idx].dest) continue;
      if (dec->header.kind == core::FrameKind::kAck) {
        if (!frames[idx].acked && !frames[idx].failed) {
          frames[idx].acked = true;
          ++stats_.acks_received;
        }
      } else if (!frames[idx].acked && !frames[idx].failed) {
        // The receiver refused this frame (it moved past the frame's stage);
        // retrying cannot succeed, so degrade right away instead of burning
        // the remaining attempts against a closed door.
        fail_frame(idx);
      }
    }
    for (runtime::Message& m : incoming(kResilientDataTag)) {
      const auto dec = core::decode_frame(m.data);
      if (!dec || (dec->header.kind != core::FrameKind::kData &&
                   dec->header.kind != core::FrameKind::kDirect &&
                   dec->header.kind != core::FrameKind::kRelay)) {
        ++stats_.corrupt_frames_discarded;  // truncated / bit-rotted / mis-tagged
        continue;
      }
      const core::FrameHeader& h = dec->header;
      if (h.epoch != epoch) continue;
      const auto sender = static_cast<core::Rank>(h.sender);
      if (sender < 0 || sender >= vpt_.size()) {
        ++stats_.corrupt_frames_discarded;
        continue;
      }
      const auto key = std::make_pair(h.sender, h.seq);
      if (h.kind == core::FrameKind::kDirect) {
        send_ack(sender, h);  // re-ack duplicates: our earlier ack may have died
        if (!seen.insert(key).second) {
          ++stats_.duplicate_frames_discarded;
          continue;
        }
        const std::vector<Submessage> subs = core::deserialize_tracked(dec->body, arena);
#if STFW_VALIDATE_ENABLED
        if (validator) validator->on_direct_recv(sender, subs);
#endif
        for (const Submessage& s : subs) {
          core::require(s.dest == me, "exchange_resilient: direct frame not addressed to me");
          direct_delivered.push_back(s);
          direct_bytes += s.size_bytes;
        }
        ++stats_.messages_received;
        continue;
      }
      if (h.kind == core::FrameKind::kRelay) {
        send_ack(sender, h);  // re-ack duplicates: our earlier ack may have died
        if (!seen.insert(key).second) {
          ++stats_.duplicate_frames_discarded;
          continue;
        }
        std::vector<Submessage> subs = core::deserialize_tracked(dec->body, arena);
        ++stats_.messages_received;
        // Deliver our own submessages; forward the rest one greedy-alive hop
        // closer to their destinations under our *current* membership view.
        route_relayed(std::move(subs), /*count_as_relay=*/true);
        continue;
      }
      // kData
      const int fstage = static_cast<int>(h.stage);
      if (fstage >= n ||
          !(vpt_.are_neighbors(sender, me) && vpt_.first_diff_dim(sender, me) == fstage)) {
        ++stats_.corrupt_frames_discarded;
        continue;
      }
      if (seen.count(key) != 0) {
        send_ack(sender, h);
        ++stats_.duplicate_frames_discarded;
        continue;
      }
      if (h.member_epoch < mem.epoch) {
        // The sender routed this frame under a membership view that predates
        // a death we already observed; its forwarding decisions are suspect.
        // Nack so the sender re-decides now rather than after its retry
        // budget (its own epoch poll restamps in-flight frames, so only the
        // race window is refused).
        ++stats_.stale_epoch_frames_refused;
        send_control(core::FrameKind::kNack, sender, h);
        continue;
      }
      if (fstage < cur_stage) {
        // We gave up on this stage and moved on; accepting now would strand
        // submessages whose forwarding stages already ran. Nack so the
        // sender switches to its direct-routing fallback immediately.
        ++stats_.late_frames_refused;
        send_control(core::FrameKind::kNack, sender, h);
        continue;
      }
      send_ack(sender, h);
      seen.insert(key);
      if (fstage > cur_stage) {
        // Neighbor is ahead of us; park the frame until we enter its stage.
        early.push_back({fstage, sender, {dec->body.begin(), dec->body.end()}});
        continue;
      }
      accept_stage_subs(cur_stage, sender, dec->body);
    }
  };

  // --- the staged exchange -------------------------------------------------
  // Seeds whose canonical first hop died enter the relay lane now; the first
  // pump_sends transmits them alongside the stage frames.
  if (!relay_seeds.empty()) route_relayed(std::move(relay_seeds), /*count_as_relay=*/true);
  std::vector<core::Rank> nbrs;
  std::vector<StageMessage> outbox;
  std::uint64_t transit_peak = 0;

  // Settlement traffic (reliable control tags) can arrive before this rank
  // is ready to act on it: a peer that finished all its stages reports
  // settled while we are still mid-stage, and after a root re-election a
  // report can reach a rank that has not yet observed it became root. Both
  // wait loops below block on "any message arrived", so a message nobody
  // drains would make wait_message return immediately forever — a busy spin
  // against the stage deadline. Absorb the control tags into buffers on
  // every iteration instead; the settlement phase consumes the buffers.
  std::vector<runtime::Message> settle_reports;
  std::vector<runtime::Message> settle_dones;
  auto absorb_settle_traffic = [&] {
    for (runtime::Message& m : comm_->drain(kSettleReportTag))
      settle_reports.push_back(std::move(m));
    for (runtime::Message& m : comm_->drain(kSettleDoneTag))
      settle_dones.push_back(std::move(m));
  };
  for (cur_stage = 0; cur_stage < n; ++cur_stage) {
    verify_stage_tag(static_cast<int>(me), cur_stage);
    if (injector != nullptr) injector->at_stage(static_cast<int>(me), cur_stage);

    // Build this stage's frames. Unlike plain exchange(), every dimension-d
    // neighbor gets a frame — an empty one if we have nothing to forward —
    // so receivers can detect stage completeness by counting senders.
    outbox.clear();
    state.make_stage_outbox(cur_stage, outbox);
    std::map<core::Rank, std::size_t> outbox_by_dest;
    for (std::size_t i = 0; i < outbox.size(); ++i) outbox_by_dest.emplace(outbox[i].to, i);
    nbrs.clear();
    vpt_.neighbors(me, cur_stage, nbrs);
    for (const core::Rank nbr : nbrs) {
      StageMessage msg{me, nbr, {}};
      if (const auto it = outbox_by_dest.find(nbr); it != outbox_by_dest.end())
        msg.subs = std::move(outbox[it->second].subs);
      if (!mem.is_alive(nbr)) {
        // Dead neighbor: this rank is the pivot for whatever the stage would
        // have funneled through it — the dynamic counterpart of the repaired
        // plan's PivotSend set. No empty frame either; receivers only count
        // alive senders.
        route_relayed(std::move(msg.subs), /*count_as_relay=*/false);
        continue;
      }
#if STFW_VALIDATE_ENABLED
      if (validator) validator->on_stage_send(cur_stage, msg);
#endif
      ++stats_.messages_sent;
      stats_.payload_bytes_sent += msg.payload_bytes();
      make_frame(core::FrameKind::kData, cur_stage, nbr, std::move(msg));
    }

    // Frames for this stage that arrived while we were still behind.
    for (auto it = early.begin(); it != early.end();) {
      if (it->stage == cur_stage) {
        accept_stage_subs(cur_stage, it->sender, it->body);
        it = early.erase(it);
      } else {
        ++it;
      }
    }

    const auto stage_end = verify::verify_now() + opt.stage_deadline;
    for (;;) {
      if (comm_->membership().epoch() != mem.epoch) on_membership_change();
      process_incoming();
      absorb_settle_traffic();
      const auto now = verify::verify_now();
      const auto next_event = pump_sends(now);
      // Recomputed every iteration: a neighbor dying mid-stage shrinks the
      // expected sender count, so the stage completes among survivors
      // instead of waiting out the full deadline for a frame that can never
      // arrive.
      std::size_t want = 0;
      for (const core::Rank nbr : nbrs)
        if (mem.is_alive(nbr)) ++want;
      if (stage_got[static_cast<std::size_t>(cur_stage)].size() >= want) break;
      if (now >= stage_end) {
        // Note the gap and move on: the silent senders will fail their
        // retries and re-route directly, or report the loss themselves.
        ++stats_.timeouts;
        for (const core::Rank nbr : nbrs)
          if (mem.is_alive(nbr) &&
              stage_got[static_cast<std::size_t>(cur_stage)].count(nbr) == 0)
            result.failure.missing.push_back({cur_stage, nbr});
        break;
      }
      comm_->wait_message(runtime::Deadline{std::min(next_event, stage_end)});
    }

    transit_peak = std::max(transit_peak, state.buffered_payload_bytes());
#if STFW_VALIDATE_ENABLED
    if (validator)
      validator->on_stage_complete(cur_stage, state.buffered_payload_bytes(),
                                   state.buffered_submessage_count());
#endif
  }

  // --- settlement: serve acks/retransmits until every survivor is done -----
  // Event-driven termination instead of a blocking collective: a rank stuck
  // inside an allgather cannot retransmit or ack, which starves peers into
  // full stage-deadline waits — and a rank-0-rooted allgather would hang
  // forever if rank 0 died. Here every rank keeps pumping until the
  // *surviving* cluster is settled: "settled" reports flow to the lowest
  // alive rank (the root, re-elected on every epoch change) over the
  // reliable control tags (negative tags; the injector leaves them alone by
  // default — the "reliable side channel" of the fault model), and the root
  // broadcasts a verdict-carrying completion — whether anything was lost
  // anywhere, and the final membership — so all survivors agree on
  // fully_recovered and degraded without a collective.
  //
  // Degraded exchanges add one confirmation wave before the verdict. After a
  // death, a rank that already reported can acquire new frames: it reinjects
  // the forward obligations of a dead neighbor it had sent to, or it
  // forwards a relay frame that reached it. A roster of reports taken at
  // different times would then let the root finish while that traffic is
  // still in flight. So once every survivor has reported under the root's
  // membership epoch, the root queries them all, and each answers clean only
  // if it is settled and has tracked no new frame since its report. A dirty
  // answer drops that rank from the roster until it reports again. An
  // all-clean wave leaves nothing in flight: a later frame would need a
  // relay frame T reaching its creator after that rank answered, but T's
  // sender answered clean, so T was acked, and so processed, before the
  // query went out if the sender's report covered T, and the sender
  // answered dirty if it did not. Healthy exchanges skip the wave: without
  // a death no rank creates a frame after reporting. Safety valves bound
  // both phases: past the
  // first, outstanding frames are declared lost; past the second, a rank
  // stops waiting for the verdict and reports conservatively
  // (fully_recovered = false) rather than hang.
  {
    // Peers still mid-exchange may legitimately lag by up to one stage
    // deadline per remaining stage before they can start answering.
    const auto settle_valve = verify::verify_now() + opt.stage_deadline * n +
                              opt.retransmit_timeout * opt.max_settle_rounds;
    const auto verdict_valve = settle_valve + opt.stage_deadline;
    // Root only: the membership epoch of each rank's latest report, and the
    // confirmation wave in progress.
    std::map<int, std::uint32_t> report_epoch;
    bool peer_lost = false;
    std::uint32_t wave = 0;
    bool wave_open = false;
    std::uint32_t wave_epoch = 0;
    std::size_t wave_frames = 0;  // the root's own tracked frames at the query
    std::set<int> wave_clean;
    // Every rank: what its latest settled report claimed.
    int reported_to = -1;
    std::uint32_t reported_epoch = 0;
    std::size_t reported_frames = 0;
    const auto settle_msg = [&](SettleMsg::Kind kind) {
      SettleMsg s;
      s.kind = kind;
      s.lost = !result.failure.lost.empty();
      s.member_epoch = mem.epoch;
      return s;
    };
    const auto clean_since_report = [&] {
      return all_settled_locally() && reported_to == mem.lowest_alive &&
             reported_epoch == mem.epoch && reported_frames == frames.size();
    };
    bool done = false;
    while (!done) {
      if (comm_->membership().epoch() != mem.epoch) on_membership_change();
      process_incoming();
      if (verify::verify_now() >= settle_valve) {
        // Whatever is still unacked is now a definite loss. No direct
        // fallback this late: new frames could never be acknowledged.
        for (OutFrame& f : frames) {
          if (f.acked || f.failed) continue;
          f.failed = true;
          ++stats_.timeouts;
          for (const Submessage& s : f.msg.subs)
            result.failure.lost.push_back({s.source, s.dest, s.size_bytes, f.stage});
        }
      }
      const auto next_event = pump_sends(verify::verify_now());
      absorb_settle_traffic();
      const int root = mem.lowest_alive;
      if (static_cast<int>(me) != root && all_settled_locally() && !clean_since_report()) {
        // (Re-)report whenever the root, the membership epoch or the set of
        // tracked frames changed since the last report: a newly elected root
        // starts with an empty roster, and a report from an older view
        // predates work the change may have created.
        comm_->send(root, kSettleReportTag, encode_settle(settle_msg(SettleMsg::Kind::kReport)));
        reported_to = root;
        reported_epoch = mem.epoch;
        reported_frames = frames.size();
      }
      if (static_cast<int>(me) == root) {
        for (const runtime::Message& m : settle_reports) {
          const auto s = decode_settle(m.data);
          if (!s) continue;
          if (s->kind == SettleMsg::Kind::kReport) {
            report_epoch[m.source] = s->member_epoch;
            peer_lost = peer_lost || s->lost;
          } else if (s->kind == SettleMsg::Kind::kReply && wave_open && s->wave == wave) {
            if (s->clean) {
              wave_clean.insert(m.source);
              peer_lost = peer_lost || s->lost;
            } else {
              report_epoch.erase(m.source);
              wave_open = false;
            }
          }
        }
        settle_reports.clear();
        // A wave holds only under one membership view and while the root's
        // own tracked frames stay as they were when it asked.
        if (wave_open && (wave_epoch != mem.epoch || wave_frames != frames.size()))
          wave_open = false;
        bool all = all_settled_locally();
        bool confirmed = wave_open;
        for (int r = 0; all && r < world; ++r) {
          if (r == root || !mem.is_alive(r)) continue;
          const auto it = report_epoch.find(r);
          if (it == report_epoch.end() || it->second != mem.epoch) all = false;
          if (wave_clean.count(r) == 0) confirmed = false;
        }
        if (all && degraded && !wave_open) {
          wave_open = true;
          wave_epoch = mem.epoch;
          wave_frames = frames.size();
          wave_clean.clear();
          SettleMsg q = settle_msg(SettleMsg::Kind::kQuery);
          q.wave = ++wave;
          for (int r = 0; r < world; ++r)
            if (r != root && mem.is_alive(r)) comm_->send(r, kSettleDoneTag, encode_settle(q));
        } else if (all && (!degraded || confirmed)) {
          // The verdict carries whether anything was lost anywhere and the
          // alive count, so every survivor sets fully_recovered and degraded
          // to the same values the root saw.
          const bool any_lost = peer_lost || !result.failure.lost.empty();
          SettleMsg v = settle_msg(SettleMsg::Kind::kDone);
          v.lost = any_lost;
          v.alive_count = mem.alive_count;
          for (int r = 0; r < world; ++r)
            if (r != root && mem.is_alive(r)) comm_->send(r, kSettleDoneTag, encode_settle(v));
          result.fully_recovered = !any_lost;
          result.degraded = mem.alive_count < world;
          done = true;
        }
      } else {
        for (const runtime::Message& m : settle_dones) {
          const auto s = decode_settle(m.data);
          if (!s) continue;
          if (s->kind == SettleMsg::Kind::kQuery) {
            SettleMsg reply = settle_msg(SettleMsg::Kind::kReply);
            reply.wave = s->wave;
            reply.clean =
                m.source == root && s->member_epoch == mem.epoch && clean_since_report();
            if (!reply.clean) reported_to = -1;  // report afresh once settled
            comm_->send(m.source, kSettleReportTag, encode_settle(reply));
          } else if (s->kind == SettleMsg::Kind::kDone) {
            result.fully_recovered = !s->lost;
            result.degraded = s->alive_count < world;
            done = true;
          }
        }
        settle_dones.clear();
      }
      if (!done && verify::verify_now() >= verdict_valve) {
        // The verdict never arrived (e.g. the root died after a partial
        // broadcast and the re-election raced our exit). Terminate with a
        // conservative local verdict instead of hanging.
        result.fully_recovered = false;
        result.degraded = degraded;
        done = true;
      }
      if (!done) {
        const auto tick = verify::verify_now() + opt.retransmit_timeout;
        comm_->wait_message(runtime::Deadline{std::min(next_event, tick)});
      }
    }
  }

  // Epilogue: no rank transmits this exchange's frames past this point.
  // Flush any injector-delayed stragglers into the mailboxes and discard
  // everything still addressed to this exchange, so the next one starts
  // clean (the cluster asserts empty mailboxes between runs). Every *surviving* rank
  // has already passed the bounded settlement loop above (and the barrier
  // releases on the alive count, so the dead are not waited for), so arrival
  // is expected within one more settlement budget — the generous deadline
  // below only fires on a genuinely wedged peer, surfacing a TimeoutError
  // instead of an untimed hang.
  const auto epilogue_deadline = [&] {
    using rep = std::chrono::milliseconds::rep;
    const rep sd = std::max<rep>(opt.stage_deadline.count(), 1);
    const rep budget = sd < std::numeric_limits<rep>::max() / 4 ? 4 * sd : sd;
    return runtime::Deadline::in(std::chrono::milliseconds{budget});
  };
  comm_->barrier(epilogue_deadline());
  comm_->flush_delayed();
  comm_->barrier(epilogue_deadline());
  // A peer that left the barrier first may already have sent its first
  // stage of the next exchange under the same fixed tags. Drop only frames
  // of this exchange or older and carry the rest into the next call:
  // dropping them would cost one retransmit timeout each.
  for (const int tag : {kResilientDataTag, kResilientAckTag}) {
    for (runtime::Message& m : comm_->drain(tag)) {
      const auto dec = core::decode_frame(m.data);
      if (dec && dec->header.epoch > epoch) carried_frames(tag).push_back(std::move(m));
    }
  }
  (void)comm_->drain(kSettleReportTag);  // should already be empty
  (void)comm_->drain(kSettleDoneTag);

  stats_.peak_buffer_bytes =
      seed_bytes + state.delivered_payload_bytes() + direct_bytes + transit_peak;
  stats_.membership_epoch = mem.epoch;  // final view this rank finished under

  // Merge store-and-forward and direct deliveries, deduplicating by
  // (source, id): when a sender exhausts its retries even though the
  // receiver had in fact accepted the frame (all acks lost or too slow),
  // the fallback re-delivers submessages the stage path also delivers.
  std::vector<Submessage> delivered = state.take_delivered();
  std::set<std::pair<core::Rank, std::uint32_t>> delivered_keys;
  for (const Submessage& s : delivered) delivered_keys.insert({s.source, s.id});
  for (const Submessage& s : direct_delivered) {
    if (delivered_keys.insert({s.source, s.id}).second)
      delivered.push_back(s);
    else
      ++stats_.duplicate_submessages_discarded;
  }

#if STFW_VALIDATE_ENABLED
  if (validator && result.fully_recovered && !result.degraded) {
    // The conservation check is collective and only meaningful when nothing
    // was lost anywhere *and* membership is full (its allgather is rank-0
    // rooted and its seed-side claims include traffic to dead ranks);
    // fully_recovered and degraded come from the settlement verdict, so all
    // survivors take this branch together. Deadline-bounded (stfw-lint
    // l3-deadline flagged the bare overload): a rank dying here must surface
    // as a TimeoutError, not a hang.
    const auto summaries = comm_->allgather(validator->summary_blob(),
                                            runtime::Deadline::in(opt.stage_deadline));
    validator->finish(delivered, arena, stats_.messages_sent, summaries);
  }
#endif

  std::stable_sort(delivered.begin(), delivered.end(),
                   [](const Submessage& a, const Submessage& b) { return a.source < b.source; });
  result.delivered.reserve(delivered.size());
  for (const Submessage& s : delivered) {
    const auto payload = arena.view(s);
    result.delivered.push_back(InboundMessage{s.source, {payload.begin(), payload.end()}});
  }
  return result;
}

}  // namespace stfw
