// StfwCommunicator::exchange_resilient: Algorithm 1 over the resilient frame
// protocol (docs/fault_model.md). The plain exchanges live in
// stfw_communicator.cpp.

#include "stfw_communicator.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <limits>
#include <optional>
#include <tuple>
#include <utility>

#include "core/error.hpp"
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

// Each exchange_resilient posts all its frames, acks and nacks included,
// under one tag from Comm::reserve_tags, lifted by this offset above every
// plain stage tag ([0, 2^28)) and kept below the arrival release bit
// (2^29). The tag tells exchanges apart, so a faster peer's next-exchange
// frames wait in the mailbox under their own tag.
constexpr int kResilientTagBase = 1 << 28;

// Settlement control traffic of exchange_resilient: reports flow to the
// root and its verdict flows back, under the exchange's tag negated. That
// tag is reliable (the injector never faults a negative tag), lies in
// (-2^29, -2^28], clear of the runtime's collective tags, and is the
// exchange's own, so a peer's next-exchange report waits in the mailbox
// instead of meeting this exchange's drains.
struct SettleMsg {
  enum class Kind : std::uint8_t { kReport = 1, kDone = 2 };
  Kind kind = Kind::kReport;
  bool lost = false;  // report: this rank lost traffic; done: anyone did
  std::uint32_t member_epoch = 0;
  std::int32_t alive_count = 0;  // done
};

constexpr std::size_t kSettleMsgBytes = 10;

std::vector<std::byte> encode_settle(const SettleMsg& m) {
  std::vector<std::byte> out(kSettleMsgBytes);
  out[0] = static_cast<std::byte>(m.kind);
  out[1] = static_cast<std::byte>(m.lost ? 1 : 0);
  std::memcpy(out.data() + 2, &m.member_epoch, 4);
  std::memcpy(out.data() + 6, &m.alive_count, 4);
  return out;
}

std::optional<SettleMsg> decode_settle(std::span<const std::byte> raw) {
  if (raw.size() != kSettleMsgBytes) return std::nullopt;
  const auto kind = static_cast<std::uint8_t>(raw[0]);
  if (kind < 1 || kind > 2) return std::nullopt;
  SettleMsg m;
  m.kind = static_cast<SettleMsg::Kind>(kind);
  m.lost = raw[1] != std::byte{0};
  std::memcpy(&m.member_epoch, raw.data() + 2, 4);
  std::memcpy(&m.alive_count, raw.data() + 6, 4);
  return m;
}

}  // namespace

std::chrono::milliseconds next_backoff(std::chrono::milliseconds current,
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
  // Compare against cap / 2 rather than doubling first, so a backoff grown
  // near rep's max clamps instead of wrapping negative.
  const rep cur = std::max<rep>(current.count(), 0);
  return std::chrono::milliseconds{cur > cap / 2 ? cap : 2 * cur};
}

std::string ExchangeFailure::to_string() const {
  if (empty()) return "no failures";
  std::string out = std::to_string(lost.size()) + " lost submessage(s), " +
                    std::to_string(missing.size()) + " missing neighbor frame(s)";
  for (const LostSubmessage& l : lost) {
    out += "\n  lost: " + std::to_string(l.bytes) + " bytes " + std::to_string(l.source) +
           " -> " + std::to_string(l.dest);
    out += l.stage < 0 ? std::string(" (side lane)") : " (stage " + std::to_string(l.stage) + ")";
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
  core::require(opt.retransmit_timeout.count() > 0,
                "exchange_resilient: retransmit_timeout must be positive");
  core::require(opt.stage_deadline.count() > 0,
                "exchange_resilient: stage_deadline must be positive");
  core::require(opt.max_settle_rounds >= 1, "exchange_resilient: max_settle_rounds must be >= 1");

  const auto me = static_cast<core::Rank>(comm_->rank());
  const int n = vpt_.dim();
  const int world = comm_->size();
  // Routing tables from the communicator's scratch, the arena our own.
  // `delivered` gathers the side lane's deliveries; the stage's join at the end.
  MissScratch& scratch = *miss_;
  scratch.reset();
  StfwRankState& state = scratch.state;
  std::vector<Submessage>& parsed = scratch.parsed;
  std::vector<Submessage>& delivered = scratch.delivered;
  PayloadArena arena;
  stats_ = LocalExchangeStats{};
  ResilientExchangeResult result;

  // The membership view this exchange acts on. The epoch is polled every
  // event-loop iteration (one atomic load), and a death ends the loop's
  // wait_message; a change re-snapshots the bitmap and re-homes in-flight
  // traffic (on_membership_change below).
  runtime::MembershipSnapshot& mem = scratch.mem;
  comm_->membership().snapshot(mem);
  bool degraded = mem.alive_count < world;
  stats_.membership_epoch = mem.epoch;

  // A bad destination is the caller's error in healthy and degraded mode
  // alike; reject it before the tags are claimed, never report it as a loss.
  for (const OutboundMessage& s : sends)
    core::require(s.dest >= 0 && s.dest < world, "exchange_resilient: destination out of range");

  // Claim the tag up front so a thrown exchange cannot leave stale frames
  // that a retry would mistake for its own. Settlement runs on its negation.
  const int tag = kResilientTagBase + comm_->reserve_tags(1);
  const int settle_tag = -tag;
  fault::FaultInjector* injector = comm_->fault_injector();

  std::optional<validate::ExchangeValidator> validator;
  if (validate_ && validation_available()) validator.emplace(vpt_, me);

  // Seed routing is a pure function of (me, dest, VPT) and the membership
  // view: a self-send is delivered locally, a send to a dead destination is
  // dropped and reported, and a send whose canonical first hop died leaves
  // the stage machinery for the side lane (injected once its machinery
  // exists below). Everything else is seeded as in Algorithm 1.
  std::vector<Submessage> relay_seeds;
  std::uint64_t seed_bytes = 0;
  for (const OutboundMessage& s : sends) seed_bytes += s.bytes.size();
  arena.reserve(seed_bytes);  // the seeds, in one block
  std::uint32_t next_sub_id = 0;
  for (const OutboundMessage& s : sends) {
    if (validator) validator->on_seed(s.dest, s.bytes);
    const std::uint64_t off = arena.add(s.bytes);
    const auto size = static_cast<std::uint32_t>(s.bytes.size());
    const std::uint32_t id = next_sub_id++;
    if (!degraded || s.dest == me) {
      state.add_send(s.dest, off, size, id);
    } else if (!mem.is_alive(s.dest)) {
      ++stats_.dead_dest_submessages_dropped;
      result.failure.lost.push_back({me, s.dest, size, -1});
    } else if (const int d0 = vpt_.first_diff_dim(me, s.dest);
               mem.is_alive(vpt_.with_coord(me, d0, vpt_.coord(s.dest, d0)))) {
      state.add_send(s.dest, off, size, id);
    } else {
      relay_seeds.push_back(Submessage{me, s.dest, off, size, id});
    }
  }

  // --- sender side: every frame we emitted and still track -----------------
  // A frame's seq is its index in `frames`: acks find it without a lookup table.
  using OutFrame = MissScratch::OutFrame;
  std::vector<Submessage>& tracked = scratch.tracked;  // all frames' submessages
  std::vector<OutFrame>& frames = scratch.frames;
  const auto subs_of = [&](const OutFrame& f) {
    return std::span<const Submessage>(tracked).subspan(f.first, f.count);
  };
  // The membership epoch of this rank's latest settled report, -1 for none.
  // Settlement relies on no frame being created after it within that epoch.
  std::int64_t reported_epoch = -1;

  // Tracks tracked[first, end) as a kData frame of `stage`, or kRelay for -1.
  auto make_frame = [&](int stage, core::Rank dest, std::size_t first) {
    core::require(reported_epoch != mem.epoch,
                  "exchange_resilient: a frame created after this rank reported settled at "
                  "its membership epoch");
    frames.push_back(OutFrame{
        .stage = stage,
        .dest = dest,
        .header = {.kind = stage < 0 ? core::FrameKind::kRelay : core::FrameKind::kData,
                   .stage = static_cast<std::uint16_t>(stage < 0 ? 0 : stage),
                   .member_epoch = mem.epoch,  // the view its routing was decided under
                   .seq = static_cast<std::uint32_t>(frames.size()),
                   .sender = me},
        .first = static_cast<std::uint32_t>(first),
        .count = static_cast<std::uint32_t>(tracked.size() - first),
        .backoff = opt.retransmit_timeout});
  };

  auto transmit = [&](OutFrame& f, clock::time_point now) {
    if (f.attempts > 0) ++stats_.retransmits;
    ++f.attempts;
    auto wire = core::encode_frame(f.header, subs_of(f), arena);
    stats_.wire_bytes_sent += wire.size();
    comm_->send(static_cast<int>(f.dest), tag, std::move(wire));
    f.next_retry = now + f.backoff;
    f.backoff = next_backoff(f.backoff, opt.retransmit_timeout, opt.stage_deadline);
  };

  // --- the side lane -------------------------------------------------------
  // Traffic that leaves the stages cannot re-enter them: store-and-forward
  // fixes dimensions in ascending order, and a detour around a dead rank
  // breaks that order. So it goes straight to its destination instead, one
  // kRelay frame per destination, accepted at any stage. Sends `subs` that
  // way and returns how many it sent. Our own are delivered, and those for
  // dead destinations reported lost at `stage`: a frame to a dead rank is
  // never acked and would pin the settlement loop to its valve. `subs` may
  // lie in `tracked`, so it is copied out before the first append. Pushes
  // frames: callers hold no references into `frames` across it.
  auto to_side_lane = [&](std::span<const Submessage> subs, int stage) {
    std::vector<Submessage>& side = scratch.side;
    side.clear();
    for (const Submessage& s : subs) {
      if (s.dest == me) {
        delivered.push_back(s);
      } else if (!mem.is_alive(s.dest)) {
        ++stats_.dead_dest_submessages_dropped;
        result.failure.lost.push_back({s.source, s.dest, s.size_bytes, stage});
      } else {
        side.push_back(s);
      }
    }
    std::ranges::sort(side, {}, [](const Submessage& s) { return std::tuple(s.dest, s.source, s.id); });
    for (std::size_t i = 0; i < side.size();) {
      const std::size_t first = tracked.size();
      const core::Rank dest = side[i].dest;
      for (; i < side.size() && side[i].dest == dest; ++i) tracked.push_back(side[i]);
      make_frame(-1, dest, first);
    }
    return static_cast<std::int64_t>(side.size());
  };

  // Give up on frame `i`. A stage frame's submessages take the side lane,
  // bypassing the remaining store-and-forward stages. A side frame already
  // went straight to its destination, so its loss is final. Pushes frames,
  // like to_side_lane.
  auto fail_frame = [&](std::size_t i) {
    frames[i].failed = true;
    const int fstage = frames[i].stage;
    const std::span<const Submessage> subs = subs_of(frames[i]);
    if (fstage >= 0) {
      stats_.direct_fallback_submessages += to_side_lane(subs, fstage);
    } else {
      for (const Submessage& s : subs)
        result.failure.lost.push_back({s.source, s.dest, s.size_bytes, fstage});
    }
  };

  auto send_control = [&](core::FrameKind kind, core::Rank to, const core::FrameHeader& of) {
    core::FrameHeader a;
    a.kind = kind;
    a.stage = of.stage;
    a.member_epoch = mem.epoch;
    a.seq = of.seq;  // acks/nacks echo the seq they answer
    a.sender = me;
    auto w = core::encode_frame(a, {});
    if (kind == core::FrameKind::kAck) ++stats_.acks_sent;
    stats_.wire_bytes_sent += w.size();
    comm_->send(static_cast<int>(to), tag, std::move(w));
  };

  // Membership transition: re-snapshot, pull every tracked frame off dead
  // destinations (re-homing its payload over the side lane), and restamp
  // the surviving in-flight frames with the new epoch so receivers don't
  // refuse them as stale. Comm's membership is the only source of deaths.
  auto on_membership_change = [&] {
    comm_->membership().snapshot(mem);
    degraded = mem.alive_count < world;
    ++stats_.epoch_transitions;
    const std::size_t known = frames.size();  // to_side_lane appends; don't revisit
    for (std::size_t i = 0; i < known; ++i) {
      if (frames[i].failed || mem.is_alive(frames[i].dest)) continue;
      frames[i].failed = true;  // its receiver no longer exists; stop the pump
      // A stage frame's forward obligations die with its receiver even when
      // it acked: reinject everything bound elsewhere; end-to-end (source,
      // id) dedup absorbs whatever it forwarded first. A side frame carries
      // only the dead rank's own submessages, which to_side_lane reports
      // lost; an acked one was delivered, and its copy died with its owner.
      if (frames[i].stage >= 0 || !frames[i].acked)
        stats_.reinjected_submessages += to_side_lane(subs_of(frames[i]), -1);
    }
    // Frames are re-encoded from their tracked header on every transmit, so
    // advancing the membership claim is a header-field write: the next
    // retransmit carries it under a fresh checksum.
    for (OutFrame& f : frames)
      if (!f.acked && !f.failed) f.header.member_epoch = mem.epoch;
  };

  // Retransmit / give-up pass. Returns the earliest pending retry time (or
  // time_point::max() when nothing is outstanding). A stage frame that
  // exhausts its budget degrades (fail_frame).
  auto pump_sends = [&](clock::time_point now) {
    clock::time_point next = clock::time_point::max();
    for (std::size_t i = 0; i < frames.size(); ++i) {
      if (frames[i].acked || frames[i].failed) continue;
      if (frames[i].attempts == 0) {
        transmit(frames[i], now);
      } else if (now >= frames[i].next_retry) {
        // Side frames are exempt from the attempt budget: exhausting one is
        // a permanent loss, and the settlement valve already bounds how
        // long they may keep trying.
        if (frames[i].stage >= 0 && frames[i].attempts >= opt.max_attempts) {
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
  // A neighbor sends one kData frame per stage (retransmits reuse its seq;
  // fallbacks are kRelay frames), so its slot in scratch.heard serves dedup
  // and stage completion. A repeated kRelay frame needs no filter: the
  // final (source, id) dedup drops its submessages.
  int cur_stage = 0;
  using Heard = MissScratch::Heard;
  const auto heard = [&](int stage, core::Rank sender) -> Heard& {
    return scratch.heard[static_cast<std::size_t>(stage)]
                        [static_cast<std::size_t>(vpt_.coord(sender, stage))];
  };
  using EarlyFrame = MissScratch::EarlyFrame;
  std::vector<EarlyFrame>& early = scratch.early;  // frames from neighbors already past us

  // Files the stage frame `frame`, already decoded.
  auto accept_stage_subs = [&](int stage, core::Rank sender, std::span<const std::byte> frame) {
    parsed.clear();
    const std::span<const Submessage> subs =
        core::deserialize_tracked(frame.subspan(core::kFrameOverheadBytes), arena, parsed);
    if (validator) validator->on_stage_recv(stage, sender, subs);
    state.accept(stage, subs);
    ++stats_.messages_received;
  };

  auto process_incoming = [&] {
    inbox_.clear();
    comm_->drain(tag, inbox_);
    for (runtime::Message& m : inbox_) {
      const auto dec = core::decode_frame(m.data);
      if (!dec) {
        ++stats_.corrupt_frames_discarded;  // truncated / bit-rotted
        continue;
      }
      const core::FrameHeader& h = dec->header;
      // Sent under a membership view that predates a death we already
      // observed. Only stage frames are refused for it (below); acks and
      // nacks answer our own frames, whatever view their sender holds.
      const bool stale = h.member_epoch < mem.epoch;
      if (h.kind == core::FrameKind::kAck || h.kind == core::FrameKind::kNack) {
        if (h.seq >= frames.size()) continue;  // seq is the frame's index
        OutFrame& f = frames[h.seq];
        if (static_cast<core::Rank>(h.sender) != f.dest || f.acked || f.failed) continue;
        if (h.kind == core::FrameKind::kAck) {
          f.acked = true;
          ++stats_.acks_received;
        } else {
          // The receiver refused this frame (it moved past the frame's
          // stage); retrying cannot succeed, so degrade right away instead
          // of burning the remaining attempts against a closed door.
          fail_frame(h.seq);
        }
        continue;
      }
      const auto sender = static_cast<core::Rank>(h.sender);
      if (sender < 0 || sender >= vpt_.size()) {
        ++stats_.corrupt_frames_discarded;
        continue;
      }
      if (h.kind == core::FrameKind::kRelay) {  // at any stage
        // Ack every copy: our earlier ack may have died.
        send_control(core::FrameKind::kAck, sender, h);
        parsed.clear();
        const std::span<const Submessage> subs =
            core::deserialize_tracked(dec->body, arena, parsed);
        ++stats_.messages_received;
        if (validator) validator->on_side_recv(sender, subs);
        delivered.insert(delivered.end(), subs.begin(), subs.end());  // all ours
        continue;
      }
      // kData
      const int fstage = static_cast<int>(h.stage);
      if (fstage >= n ||
          !(vpt_.are_neighbors(sender, me) && vpt_.first_diff_dim(sender, me) == fstage)) {
        ++stats_.corrupt_frames_discarded;
        continue;
      }
      Heard& slot = heard(fstage, sender);
      if (slot != Heard::kNothing) {
        // A copy of a frame already decided: answer it the same way again,
        // since our earlier answer may have died.
        send_control(slot == Heard::kAccepted ? core::FrameKind::kAck : core::FrameKind::kNack,
                     sender, h);
        ++stats_.duplicate_frames_discarded;
        continue;
      }
      if (stale) {
        // The sender's forwarding decisions are suspect. Nack so it
        // re-decides now rather than after its retry budget. The nacked
        // sender demotes the frame's submessages to fallbacks and never
        // resends a stage frame, so its slot counts as heard from; waiting
        // for it would stall until the stage deadline.
        ++stats_.stale_epoch_frames_refused;
        send_control(core::FrameKind::kNack, sender, h);
        slot = Heard::kRefused;
        continue;
      }
      if (fstage < cur_stage) {
        // We gave up on this stage and moved on; accepting now would strand
        // submessages whose forwarding stages already ran. Nack so the
        // sender switches to its fallback immediately.
        ++stats_.late_frames_refused;
        send_control(core::FrameKind::kNack, sender, h);
        continue;
      }
      send_control(core::FrameKind::kAck, sender, h);
      slot = Heard::kAccepted;
      if (fstage > cur_stage) {
        // Neighbor is ahead of us; park the frame until we enter its stage.
        early.push_back({fstage, sender, std::move(m.data)});
        continue;
      }
      accept_stage_subs(cur_stage, sender, m.data);
    }
  };

  // --- the staged exchange -------------------------------------------------
  // Seeds whose canonical first hop died enter the side lane now; the first
  // pump_sends transmits them alongside the stage frames.
  if (!relay_seeds.empty()) stats_.relay_submessages += to_side_lane(relay_seeds, -1);
  std::vector<core::Rank> nbrs;
  StageOutbox& outbox = scratch.outbox;
  std::uint64_t transit_peak = 0;

  // Settlement traffic (the reliable control tag) can arrive before this rank
  // is ready to act on it: a peer that finished all its stages reports
  // settled while we are still mid-stage, and after a root re-election a
  // report can reach a rank that has not yet observed it became root. Both
  // wait loops below block on "any message arrived", so a message nobody
  // drains would make wait_message return immediately forever — a busy spin
  // against the stage deadline. Absorb the control tag into a buffer on
  // every iteration instead; the settlement phase consumes the buffer.
  std::vector<runtime::Message>& settle = scratch.settle;
  for (cur_stage = 0; cur_stage < n; ++cur_stage) {
    STFW_VERIFY_HOOK(stage(static_cast<int>(me), cur_stage));
    if (injector != nullptr) injector->at_stage(static_cast<int>(me), cur_stage);

    // Build this stage's frames. Unlike plain exchange(), every dimension-d
    // neighbor gets a frame — an empty one if we have nothing to forward —
    // so receivers can detect stage completeness by counting senders. The
    // outbox's frames and the neighbor list both ascend, so one merge walk
    // pairs them.
    state.make_stage_outbox(cur_stage, outbox);
    vpt_.neighbors(me, cur_stage, nbrs);
    std::size_t next_frame = 0;
    for (const core::Rank nbr : nbrs) {
      std::span<const Submessage> subs;
      std::uint64_t payload_bytes = 0;
      if (next_frame < outbox.frames.size() && outbox.frames[next_frame].to == nbr) {
        subs = outbox.subs_of(outbox.frames[next_frame]);
        payload_bytes = outbox.frames[next_frame++].payload_bytes;
      }
      if (!mem.is_alive(nbr)) {
        // Dead neighbor: this rank is the pivot for whatever the stage would
        // have funneled through it, so it re-homes that traffic over the
        // side lane. No empty frame either; receivers only count alive
        // senders.
        stats_.reinjected_submessages += to_side_lane(subs, -1);
        continue;
      }
      if (validator) validator->on_stage_send(cur_stage, nbr, subs);
      ++stats_.messages_sent;
      stats_.payload_bytes_sent += payload_bytes;
      const std::size_t first = tracked.size();
      tracked.insert(tracked.end(), subs.begin(), subs.end());
      make_frame(cur_stage, nbr, first);
    }
    // An unmatched frame would drop its submessages without a trace.
    core::require(next_frame == outbox.frames.size(),
                  "exchange_resilient: a stage frame matched no dimension neighbor");

    // Frames for this stage that arrived while we were still behind.
    for (const EarlyFrame& e : early)
      if (e.stage == cur_stage) accept_stage_subs(cur_stage, e.sender, e.frame);
    std::erase_if(early, [&](const EarlyFrame& e) { return e.stage == cur_stage; });

    // The stage completes once every live neighbor's frame is decided. A
    // neighbor dying mid-stage drops out of the wait instead of running out
    // the deadline; one heard and then dead never stands in for a live one.
    const auto unheard = [&](core::Rank nbr) {
      return mem.is_alive(nbr) && heard(cur_stage, nbr) == Heard::kNothing;
    };
    const auto stage_end = verify::verify_now() + opt.stage_deadline;
    for (;;) {
      if (comm_->membership().epoch() != mem.epoch) on_membership_change();
      process_incoming();
      comm_->drain(settle_tag, settle);
      const auto now = verify::verify_now();
      const auto next_event = pump_sends(now);
      if (std::ranges::none_of(nbrs, unheard)) break;
      if (now >= stage_end) {
        // Note the gap and move on: the silent senders will fail their
        // retries and re-route directly, or report the loss themselves.
        ++stats_.timeouts;
        for (const core::Rank nbr : nbrs)
          if (unheard(nbr)) result.failure.missing.push_back({cur_stage, nbr});
        break;
      }
      comm_->wait_message(runtime::Deadline{std::min(next_event, stage_end)}, mem.epoch);
    }

    transit_peak = std::max(transit_peak, state.buffered_payload_bytes());
    if (validator)
      validator->on_stage_complete(cur_stage, state.buffered_payload_bytes(),
                                   state.buffered_submessage_count());
  }

  // --- settlement: serve acks/retransmits until every survivor is done -----
  // Event-driven termination instead of a blocking collective: a rank stuck
  // inside an allgather cannot retransmit or ack, which starves peers into
  // full stage-deadline waits — and a rank-0-rooted allgather would hang
  // forever if rank 0 died. Here every rank keeps pumping until the
  // *surviving* cluster is settled: "settled" reports flow to the lowest
  // alive rank (the root, re-elected on every epoch change) over the
  // reliable settlement tag (a negative tag; the injector leaves those
  // alone — the "reliable side channel" of the fault model), and the root
  // broadcasts a verdict-carrying completion — whether anything was lost
  // anywhere, and the final membership — so all survivors agree on
  // fully_recovered and degraded without a collective.
  //
  // A rank reports once all its frames are acked or failed, and the root
  // gives the verdict once every other rank alive in its view has reported
  // at its membership epoch e — NBX's rule: a rank is done once its sends
  // are matched, and it sends nothing after that. No frame can then be in
  // flight. Ranks die only at the injector's at_stage sites, and a rank
  // reports only after its last stage, so once every rank alive at e has
  // reported at e, membership is frozen. A death before that bumps the
  // epoch, and the root counts only reports made at its own epoch, so
  // every survivor reports again; a rank reinjects what the death
  // stranded in on_membership_change, before that re-report. Nothing else
  // creates a frame after a report: side frames go straight to their
  // destination, whose receive branch only delivers, and make_frame throws
  // if that ever changes. Safety valves bound both phases: past the first,
  // outstanding frames are declared lost; past the second, a rank stops
  // waiting for the verdict and reports conservatively
  // (fully_recovered = false) rather than hang.
  {
    // Peers still mid-exchange may legitimately lag by up to one stage
    // deadline per remaining stage before they can start answering.
    const auto settle_valve = verify::verify_now() + opt.stage_deadline * n +
                              opt.retransmit_timeout * opt.max_settle_rounds;
    const auto verdict_valve = settle_valve + opt.stage_deadline;
    // Root only, per rank: the membership epoch of its latest report (-1
    // for none).
    std::vector<std::int64_t>& last_report = scratch.last_report;
    bool peer_lost = false;
    const auto settle_msg = [&](SettleMsg::Kind kind) {
      SettleMsg s;
      s.kind = kind;
      s.lost = !result.failure.lost.empty();
      s.member_epoch = mem.epoch;
      return s;
    };
    bool done = false;
    while (!done) {
      if (comm_->membership().epoch() != mem.epoch) on_membership_change();
      process_incoming();
      if (verify::verify_now() >= settle_valve) {
        // Whatever is still unacked is now a definite loss. No fallback
        // this late: new frames could never be acknowledged.
        for (OutFrame& f : frames) {
          if (f.acked || f.failed) continue;
          f.failed = true;
          ++stats_.timeouts;
          for (const Submessage& s : subs_of(f))
            result.failure.lost.push_back({s.source, s.dest, s.size_bytes, f.stage});
        }
      }
      const auto next_event = pump_sends(verify::verify_now());
      comm_->drain(settle_tag, settle);
      const int root = mem.lowest_alive;
      if (static_cast<int>(me) != root && reported_epoch != mem.epoch && all_settled_locally()) {
        // (Re-)report at every new membership epoch: the root may have
        // changed, and a report from an older view predates work the change
        // may have created.
        comm_->send(root, settle_tag, encode_settle(settle_msg(SettleMsg::Kind::kReport)));
        reported_epoch = mem.epoch;
      }
      if (static_cast<int>(me) == root) {
        // A verdict can only come from a dead former root, since a root
        // never becomes a non-root: it is dropped with the rest.
        for (const runtime::Message& m : settle) {
          const auto s = decode_settle(m.data);
          if (!s || s->kind != SettleMsg::Kind::kReport) continue;
          last_report[static_cast<std::size_t>(m.source)] = s->member_epoch;
          peer_lost = peer_lost || s->lost;
        }
        settle.clear();
        bool all = all_settled_locally();
        for (int r = 0; all && r < world; ++r)
          if (r != root && mem.is_alive(r) && last_report[static_cast<std::size_t>(r)] != mem.epoch)
            all = false;
        if (all) {
          // The verdict carries whether anything was lost anywhere and the
          // alive count, so every survivor sets fully_recovered and degraded
          // to the same values the root saw.
          const bool any_lost = peer_lost || !result.failure.lost.empty();
          SettleMsg v = settle_msg(SettleMsg::Kind::kDone);
          v.lost = any_lost;
          v.alive_count = mem.alive_count;
          for (int r = 0; r < world; ++r)
            if (r != root && mem.is_alive(r)) comm_->send(r, settle_tag, encode_settle(v));
          result.fully_recovered = !any_lost;
          result.degraded = mem.alive_count < world;
          done = true;
        }
      } else {
        for (const runtime::Message& m : settle) {
          const auto s = decode_settle(m.data);
          if (s && s->kind == SettleMsg::Kind::kDone) {
            result.fully_recovered = !s->lost;
            result.degraded = s->alive_count < world;
            done = true;
          }
        }
        // Reports stay in case this rank is elected root.
        std::erase_if(settle, [](const runtime::Message& m) {
          const auto s = decode_settle(m.data);
          return !s || s->kind == SettleMsg::Kind::kDone;
        });
      }
      if (!done && verify::verify_now() >= verdict_valve) {
        // The verdict never arrived: some survivor could not settle within
        // every budget. Terminate with a conservative local verdict instead
        // of hanging.
        result.fully_recovered = false;
        result.degraded = degraded;
        done = true;
      }
      if (!done) {
        const auto tick = verify::verify_now() + opt.retransmit_timeout;
        comm_->wait_message(runtime::Deadline{std::min(next_event, tick)}, mem.epoch);
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
  // Only this exchange's tag: a peer that left the barrier first may
  // already have sent its next exchange's first stage under the next tag.
  comm_->drain(tag, inbox_);         // discarded below, with the last pass's frames
  comm_->drain(settle_tag, inbox_);  // should already be empty
  inbox_.clear();

  // `delivered` holds the side lane's deliveries, duplicates included.
  std::uint64_t side_bytes = 0;
  for (const Submessage& s : delivered) side_bytes += s.size_bytes;
  stats_.peak_buffer_bytes =
      seed_bytes + state.delivered_payload_bytes() + side_bytes + transit_peak;
  stats_.membership_epoch = mem.epoch;  // final view this rank finished under

  // One sort puts the deliveries in send order within each source, the
  // plain exchange's order, and lines up the copies of a submessage that
  // arrived twice: when a sender exhausts its retries even though the
  // receiver had in fact accepted the frame (all acks lost or too slow),
  // the fallback re-delivers submessages the stage path also delivers.
  delivered.insert(delivered.end(), state.delivered().begin(), state.delivered().end());
  const auto key = [](const Submessage& s) { return std::pair(s.source, s.id); };
  std::ranges::sort(delivered, {}, key);
  const auto repeats = std::ranges::unique(delivered, {}, key);
  stats_.duplicate_submessages_discarded = static_cast<std::int64_t>(repeats.size());
  delivered.erase(repeats.begin(), repeats.end());

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

  result.delivered.reserve(delivered.size());
  for (const Submessage& s : delivered) {
    const auto payload = arena.view(s);
    result.delivered.push_back(InboundMessage{s.source, {payload.begin(), payload.end()}});
  }
  return result;
}

}  // namespace stfw
