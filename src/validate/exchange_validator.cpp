#include "exchange_validator.hpp"

#include <algorithm>
#include <cstring>
#include <string>

#include "core/error.hpp"
#include "core/wire.hpp"

namespace stfw::validate {

using core::Rank;
using core::Submessage;

std::uint64_t payload_digest(std::span<const std::byte> payload) noexcept {
  return core::digest64(payload);
}

namespace {

// --- summary blob wire helpers (little-endian, packed) ---------------------
//
// Layout:
//   u64 seed_count
//   u64 max_payload_bytes
//   u8  has_duplicate_pair
//   u8[7] reserved
//   u64 num_entries
//   num_entries times: { i64 dest, u64 count, u64 bytes, u64 digest }

void put_u64(std::vector<std::byte>& out, std::uint64_t v) {
  std::byte buf[8];
  std::memcpy(buf, &v, 8);
  out.insert(out.end(), buf, buf + 8);
}

std::uint64_t get_u64(std::span<const std::byte> in, std::size_t& pos) {
  std::uint64_t v = 0;
  std::memcpy(&v, in.data() + pos, 8);
  pos += 8;
  return v;
}

struct RankSummary {
  std::uint64_t seed_count = 0;
  std::uint64_t max_payload_bytes = 0;
  bool has_duplicate_pair = false;
  struct Entry {
    Rank dest;
    std::uint64_t count, bytes, digest;
  };
  std::vector<Entry> entries;
};

}  // namespace

ExchangeValidator::ExchangeValidator(const core::Vpt& vpt, Rank me) : vpt_(&vpt), me_(me) {
  core::require(me >= 0 && me < vpt.size(), "ExchangeValidator: rank out of range");
}

void ExchangeValidator::violation(const char* check, int stage, const std::string& detail) const {
  throw core::ValidationError(check, static_cast<int>(me_), stage, detail);
}

void ExchangeValidator::check_rank(const char* check, int stage, Rank r, const char* what) const {
  if (r < 0 || r >= vpt_->size())
    violation(check, stage,
              std::string(what) + " rank " + std::to_string(r) + " outside [0, " +
                  std::to_string(vpt_->size()) + ")");
}

void ExchangeValidator::on_seed(Rank dest, std::span<const std::byte> payload) {
  check_rank("seed-dest", -1, dest, "seed destination");
  DestClaim& claim = claims_[dest];
  if (claim.count > 0) has_duplicate_pair_ = true;
  ++claim.count;
  claim.bytes += payload.size();
  claim.digest += payload_digest(payload);

  if (seed_count_ == 0) {
    uniform_size_ = payload.size();
  } else if (payload.size() != uniform_size_) {
    uniform_ = false;
  }
  ++seed_count_;

  if (dest != me_) {
    // Non-self seeds are parked in forward buffers before stage 0.
    seed_resident_bytes_ += payload.size();
    ++seed_resident_subs_;
    peak_resident_bytes_ = std::max(peak_resident_bytes_, seed_resident_bytes_);
    peak_resident_subs_ = std::max(peak_resident_subs_, seed_resident_subs_);
  }
}

void ExchangeValidator::on_stage_send(int stage, Rank to, std::span<const Submessage> subs) {
  if (stage < 0 || stage >= vpt_->dim())
    violation("stage-range", stage, "send in nonexistent stage");
  if (stage < last_send_stage_)
    violation("stage-order", stage,
              "send after stage " + std::to_string(last_send_stage_) + " already ran");
  if (stage > last_send_stage_) {
    last_send_stage_ = stage;
    stage_messages_ = 0;
    neighbor_seen_.assign(static_cast<std::size_t>(vpt_->dim_size(stage)), false);
  }

  check_rank("neighbor-send", stage, to, "stage-message destination");
  if (to == me_ || vpt_->first_diff_dim(me_, to) != stage ||
      vpt_->first_diff_dim_after(me_, to, stage) != -1)
    violation("neighbor-send", stage,
              "destination " + std::to_string(to) + " is not a dimension-" +
                  std::to_string(stage) + " neighbor of " + std::to_string(me_) + " in " +
                  vpt_->to_string());

  const auto digit = static_cast<std::size_t>(vpt_->coord(to, stage));
  if (neighbor_seen_[digit])
    violation("duplicate-stage-message", stage,
              "second coalesced message to neighbor " + std::to_string(to));
  neighbor_seen_[digit] = true;

  ++stage_messages_;
  if (stage_messages_ > vpt_->dim_size(stage) - 1)
    violation("stage-message-count", stage,
              std::to_string(stage_messages_) + " messages exceed the k_d - 1 = " +
                  std::to_string(vpt_->dim_size(stage) - 1) + " per-stage bound");
  ++messages_sent_;
  if (messages_sent_ > vpt_->max_message_count_bound())
    violation("max-message-bound", stage,
              std::to_string(messages_sent_) + " total messages exceed sum_d (k_d - 1) = " +
                  std::to_string(vpt_->max_message_count_bound()));

  for (const Submessage& s : subs) {
    check_rank("header-rank", stage, s.source, "submessage source");
    check_rank("header-rank", stage, s.dest, "submessage destination");
    if (s.dest == me_)
      violation("self-addressed", stage, "submessage addressed to this rank is leaving it");
    if (vpt_->coord(s.dest, stage) != vpt_->coord(to, stage))
      violation("routing-digit", stage,
                "submessage for " + std::to_string(s.dest) +
                    " sent to neighbor with the wrong dimension-" + std::to_string(stage) +
                    " digit");
    for (int d = 0; d < stage; ++d)
      if (vpt_->coord(s.dest, d) != vpt_->coord(me_, d))
        violation("dimension-order-send", stage,
                  "submessage for " + std::to_string(s.dest) + " still differs in dimension " +
                      std::to_string(d) + " < stage, violating dimension-order routing");
    for (int d = stage + 1; d < vpt_->dim(); ++d)
      if (vpt_->coord(s.source, d) != vpt_->coord(me_, d))
        violation("source-consistency", stage,
                  "submessage from " + std::to_string(s.source) +
                      " cannot reside here: holder must match the source on dimension " +
                      std::to_string(d) + " > stage");
  }
}

void ExchangeValidator::on_stage_recv(int stage, Rank source,
                                      std::span<const Submessage> subs) {
  if (stage < 0 || stage >= vpt_->dim())
    violation("stage-range", stage, "receive in nonexistent stage");
  check_rank("neighbor-recv", stage, source, "stage-message source");
  if (source == me_ || vpt_->first_diff_dim(me_, source) != stage ||
      vpt_->first_diff_dim_after(me_, source, stage) != -1)
    violation("neighbor-recv", stage,
              "received a stage message from " + std::to_string(source) +
                  ", not a dimension-" + std::to_string(stage) + " neighbor of " +
                  std::to_string(me_) + " in " + vpt_->to_string());

  // Per-edge receive discipline: at most one stage frame per dimension-
  // `stage` neighbor. With dependency-driven progress there is no global
  // barrier delimiting the stage, so this local counter is what rules out a
  // demultiplexing bug feeding one edge's frame to a stage twice.
  if (stage != last_recv_stage_) {
    last_recv_stage_ = stage;
    recv_seen_.assign(static_cast<std::size_t>(vpt_->dim_size(stage)), false);
  }
  const auto src_digit = static_cast<std::size_t>(vpt_->coord(source, stage));
  if (recv_seen_[src_digit])
    violation("duplicate-stage-frame", stage,
              "second stage frame received from neighbor " + std::to_string(source));
  recv_seen_[src_digit] = true;

  for (const Submessage& s : subs) {
    check_rank("header-rank", stage, s.source, "submessage source");
    check_rank("header-rank", stage, s.dest, "submessage destination");
    for (int d = 0; d <= stage; ++d)
      if (vpt_->coord(s.dest, d) != vpt_->coord(me_, d))
        violation("dimension-order-recv", stage,
                  "submessage header for destination " + std::to_string(s.dest) +
                      " disagrees with the receiver in dimension " + std::to_string(d) +
                      " <= stage: misrouted or corrupted header");
    for (int d = stage + 1; d < vpt_->dim(); ++d)
      if (vpt_->coord(s.source, d) != vpt_->coord(me_, d))
        violation("source-consistency", stage,
                  "submessage from " + std::to_string(s.source) +
                      " routed to a rank that differs from the source in dimension " +
                      std::to_string(d) + " > stage");
  }
}

void ExchangeValidator::on_side_recv(core::Rank source, std::span<const Submessage> subs) {
  check_rank("side-recv", -1, source, "side-lane frame sender");
  for (const Submessage& s : subs) {
    check_rank("header-rank", -1, s.source, "submessage source");
    check_rank("header-rank", -1, s.dest, "submessage destination");
    if (s.dest != me_)
      violation("side-recv", -1,
                "side-lane frame carries a submessage for rank " + std::to_string(s.dest) +
                    ", but a side frame goes straight to its submessages' destination");
  }
}

void ExchangeValidator::on_stage_complete(int stage, std::uint64_t buffered_bytes,
                                          std::uint64_t buffered_subs) {
  if (stage < 0 || stage >= vpt_->dim())
    violation("stage-range", stage, "stage completion out of range");
  peak_resident_bytes_ = std::max(peak_resident_bytes_, buffered_bytes);
  peak_resident_subs_ = std::max(peak_resident_subs_, buffered_subs);
}

std::vector<std::byte> ExchangeValidator::summary_blob() const {
  std::vector<std::byte> out;
  out.reserve(32 + claims_.size() * 32);
  std::uint64_t max_payload = 0;
  for (const auto& [dest, claim] : claims_)
    if (claim.count > 0) max_payload = std::max(max_payload, claim.bytes / claim.count);
  // max over per-dest averages underestimates a mixed pattern's max payload,
  // but when payloads are uniform (the only case the buffer bound applies
  // to) it is exact; record the uniform size directly when we have it.
  if (uniform_ && seed_count_ > 0) max_payload = uniform_size_;
  put_u64(out, seed_count_);
  put_u64(out, max_payload);
  put_u64(out, (has_duplicate_pair_ ? 1u : 0u) | (uniform_ ? 0u : 2u));
  put_u64(out, claims_.size());
  // Deterministic entry order for reproducible diagnostics.
  std::vector<Rank> dests;
  dests.reserve(claims_.size());
  for (const auto& [dest, claim] : claims_) dests.push_back(dest);
  std::sort(dests.begin(), dests.end());
  for (const Rank dest : dests) {
    const DestClaim& claim = claims_.at(dest);
    put_u64(out, static_cast<std::uint64_t>(static_cast<std::int64_t>(dest)));
    put_u64(out, claim.count);
    put_u64(out, claim.bytes);
    put_u64(out, claim.digest);
  }
  return out;
}

void ExchangeValidator::finish(std::span<const Submessage> delivered,
                               const core::PayloadArena& arena,
                               std::int64_t reported_messages_sent,
                               std::span<const std::vector<std::byte>> all_summaries) {
  if (reported_messages_sent != messages_sent_)
    violation("stats-mismatch", -1,
              "LocalExchangeStats reports " + std::to_string(reported_messages_sent) +
                  " messages sent, validator observed " + std::to_string(messages_sent_));

  if (all_summaries.size() != static_cast<std::size_t>(vpt_->size()))
    violation("summary-shape", -1,
              "expected " + std::to_string(vpt_->size()) + " rank summaries, got " +
                  std::to_string(all_summaries.size()));

  // Parse the allgathered summaries.
  std::vector<RankSummary> summaries;
  summaries.reserve(all_summaries.size());
  for (std::size_t r = 0; r < all_summaries.size(); ++r) {
    std::span<const std::byte> blob(all_summaries[r]);
    if (blob.size() < 32)
      violation("summary-shape", -1, "rank " + std::to_string(r) + " summary truncated");
    std::size_t pos = 0;
    RankSummary s;
    s.seed_count = get_u64(blob, pos);
    s.max_payload_bytes = get_u64(blob, pos);
    const std::uint64_t flags = get_u64(blob, pos);
    s.has_duplicate_pair = (flags & 1u) != 0;
    const std::uint64_t n = get_u64(blob, pos);
    if (blob.size() != 32 + n * 32)
      violation("summary-shape", -1, "rank " + std::to_string(r) + " summary truncated");
    s.entries.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      RankSummary::Entry e{};
      e.dest = static_cast<Rank>(static_cast<std::int64_t>(get_u64(blob, pos)));
      e.count = get_u64(blob, pos);
      e.bytes = get_u64(blob, pos);
      e.digest = get_u64(blob, pos);
      s.entries.push_back(e);
    }
    summaries.push_back(std::move(s));
  }

  // Conservation: what every rank claims to have sent to us must equal what
  // we delivered, per source, in count, bytes and payload digest — the same
  // verdict a bit-exact diff against the Vpt::direct baseline would give
  // (up to 64-bit digest collisions).
  std::unordered_map<Rank, DestClaim> got;
  for (const Submessage& s : delivered) {
    check_rank("delivered-rank", -1, s.source, "delivered submessage source");
    if (s.dest != me_)
      violation("delivered-rank", -1,
                "delivered submessage addressed to " + std::to_string(s.dest));
    DestClaim& g = got[s.source];
    ++g.count;
    g.bytes += s.size_bytes;
    g.digest += payload_digest(arena.view(s));
  }
  for (Rank src = 0; src < vpt_->size(); ++src) {
    const auto& entries = summaries[static_cast<std::size_t>(src)].entries;
    const auto it = std::find_if(entries.begin(), entries.end(),
                                 [&](const RankSummary::Entry& e) { return e.dest == me_; });
    const auto g = got.find(src);
    const std::uint64_t got_count = (g == got.end()) ? 0 : g->second.count;
    const std::uint64_t got_bytes = (g == got.end()) ? 0 : g->second.bytes;
    const std::uint64_t got_digest = (g == got.end()) ? 0 : g->second.digest;
    const std::uint64_t want_count = (it == entries.end()) ? 0 : it->count;
    const std::uint64_t want_bytes = (it == entries.end()) ? 0 : it->bytes;
    const std::uint64_t want_digest = (it == entries.end()) ? 0 : it->digest;
    if (got_count != want_count || got_bytes != want_bytes || got_digest != want_digest)
      violation("payload-conservation", -1,
                "source " + std::to_string(src) + " claims " + std::to_string(want_count) +
                    " messages / " + std::to_string(want_bytes) +
                    " bytes for this rank, delivered " + std::to_string(got_count) +
                    " messages / " + std::to_string(got_bytes) +
                    (got_digest != want_digest && got_count == want_count &&
                             got_bytes == want_bytes
                         ? " bytes with corrupted payload bits"
                         : " bytes"));
  }

  // §4 buffer bound: with at most one message per ordered (source, dest)
  // pair, any rank's forward-buffer residency is a subset of the all-to-all
  // residency, hence <= K-1 submessages and <= s*(K-1) bytes for payloads of
  // at most s bytes (exactly the paper's bound when payloads are uniform).
  bool any_duplicate = false;
  std::uint64_t s_max = 0;
  for (const RankSummary& s : summaries) {
    any_duplicate = any_duplicate || s.has_duplicate_pair;
    s_max = std::max(s_max, s.max_payload_bytes);
  }
  if (!any_duplicate) {
    const auto resident_bound = static_cast<std::uint64_t>(vpt_->size() - 1);
    if (peak_resident_subs_ > resident_bound)
      violation("buffer-bound", -1,
                "forward-buffer residency peaked at " + std::to_string(peak_resident_subs_) +
                    " submessages, above the K-1 = " + std::to_string(resident_bound) +
                    " bound");
    if (peak_resident_bytes_ > s_max * resident_bound)
      violation("buffer-bound", -1,
                "forward-buffer residency peaked at " + std::to_string(peak_resident_bytes_) +
                    " bytes, above the s*(K-1) = " + std::to_string(s_max * resident_bound) +
                    " bound");
  }
}

}  // namespace stfw::validate
