#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/message.hpp"
#include "core/vpt.hpp"

/// \file exchange_validator.hpp
/// Debug-mode invariant validator for the store-and-forward exchange.
///
/// Algorithm 1 (paper §3-§4) makes hard quantitative promises that nothing
/// else in the repo mechanically enforces:
///
///  * every stage-d message travels between dimension-d neighbors only;
///  * submessage headers obey dimension-order routing — when a rank holds a
///    submessage after stage d, its final destination agrees with the rank
///    on all digits 0..d;
///  * no rank sends more than sum_d (k_d - 1) coalesced messages, and at
///    most k_d - 1 of them in stage d, at most one per neighbor;
///  * for uniform payloads of size s with at most one message per ordered
///    (source, dest) pair, forward-buffer residency never exceeds K-1
///    submessages / s*(K-1) bytes at any rank (§4's buffer bound);
///  * the exchange delivers exactly the multiset of payloads that a direct
///    (Vpt::direct) point-to-point exchange would deliver, bit-exactly.
///
/// ExchangeValidator observes one rank's exchange through hook calls placed
/// in StfwCommunicator::exchange (compiled behind the STFW_VALIDATE CMake
/// option, toggled at runtime via the STFW_VALIDATE environment variable or
/// StfwCommunicator::set_validation). Each violation throws a structured
/// core::ValidationError naming the check that fired.
///
/// The payload-conservation check is collective: each rank condenses what it
/// seeded into a summary blob (per-destination message counts, byte totals
/// and order-independent payload digests), the communicator allgathers the
/// blobs, and every rank verifies its deliveries bit-for-bit against the
/// senders' claims — equivalent to diffing the exchange against the
/// Vpt::direct baseline without running the second exchange.

namespace stfw::validate {

/// Order-independent digest of a set of payloads: the sum (mod 2^64) of the
/// core::digest64 of each payload. Addition (not XOR) so duplicated payloads
/// do not cancel.
std::uint64_t payload_digest(std::span<const std::byte> payload) noexcept;

class ExchangeValidator {
public:
  ExchangeValidator(const core::Vpt& vpt, core::Rank me);

  /// Hook: one original send of this rank (Algorithm 1 lines 4-6), before
  /// any stage runs. Self-sends (dest == me) are legal and participate in
  /// conservation accounting.
  void on_seed(core::Rank dest, std::span<const std::byte> payload);

  /// Hook: a coalesced stage message carrying `subs` about to be sent by
  /// this rank to `to` in `stage` (Algorithm 1 lines 9-12). Checks neighbor
  /// discipline, per-stage and total message-count bounds, and every
  /// submessage header.
  void on_stage_send(int stage, core::Rank to, std::span<const core::Submessage> subs);

  /// Hook: submessages received from `source` in `stage` (lines 14-17).
  /// Checks that the sender is a dimension-`stage` neighbor, that at most
  /// one frame arrives from each neighbor per stage (the per-edge ordering
  /// invariant of the barrier-free exchange), and that each header respects
  /// dimension-order routing up to and including `stage`.
  void on_stage_recv(int stage, core::Rank source, std::span<const core::Submessage> subs);

  /// Hook: submessages received in a resilient-mode side-lane (kRelay)
  /// frame: a detour around a dead rank or a fallback (docs/fault_model.md).
  /// Such frames may come from any rank, but go straight to their
  /// submessages' destination, so every submessage must be addressed to
  /// this rank. A repeated side frame reaches this hook again; the final
  /// (source, id) dedup drops its copies, and side frames are outside the
  /// per-stage message-count bounds.
  void on_side_recv(core::Rank source, std::span<const core::Submessage> subs);

  /// Hook: end of `stage` on this rank, after all receives were scattered.
  /// Samples forward-buffer residency for the buffer-bound check.
  void on_stage_complete(int stage, std::uint64_t buffered_bytes, std::uint64_t buffered_subs);

  /// This rank's contribution to the collective conservation check. Call
  /// after the last stage; allgather the blobs and pass them to finish().
  std::vector<std::byte> summary_blob() const;

  /// Final verdict. `delivered` + `arena` are the submessages handed to the
  /// application, `reported_messages_sent` the stats counter to cross-check,
  /// `all_summaries` the allgathered summary_blob() of every rank (indexed
  /// by rank). Throws core::ValidationError on any violation.
  void finish(std::span<const core::Submessage> delivered, const core::PayloadArena& arena,
              std::int64_t reported_messages_sent,
              std::span<const std::vector<std::byte>> all_summaries);

  /// Stage messages this rank sent so far (all stages).
  std::int64_t messages_sent() const noexcept { return messages_sent_; }

private:
  struct DestClaim {
    std::uint64_t count = 0;
    std::uint64_t bytes = 0;
    std::uint64_t digest = 0;  // sum of payload_digest() over the messages
  };

  [[noreturn]] void violation(const char* check, int stage, const std::string& detail) const;
  void check_rank(const char* check, int stage, core::Rank r, const char* what) const;

  const core::Vpt* vpt_;
  core::Rank me_;

  // Seed-side accounting for conservation and the uniform-payload bound.
  std::unordered_map<core::Rank, DestClaim> claims_;
  std::uint64_t seed_count_ = 0;
  std::uint64_t uniform_size_ = 0;  // meaningful when uniform_ && seed_count_ > 0
  bool uniform_ = true;
  bool has_duplicate_pair_ = false;

  // Per-stage send discipline.
  int last_send_stage_ = -1;
  std::vector<bool> neighbor_seen_;  // dests already used in last_send_stage_
  std::int64_t stage_messages_ = 0;  // messages sent in last_send_stage_
  std::int64_t messages_sent_ = 0;

  // Per-stage receive discipline (per-edge: one frame per neighbor).
  int last_recv_stage_ = -1;
  std::vector<bool> recv_seen_;  // sources already seen in last_recv_stage_

  // Forward-buffer high water (sampled after seeding and per stage).
  std::uint64_t peak_resident_bytes_ = 0;
  std::uint64_t peak_resident_subs_ = 0;
  std::uint64_t seed_resident_bytes_ = 0;
  std::uint64_t seed_resident_subs_ = 0;
};

}  // namespace stfw::validate
