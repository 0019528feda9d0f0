#include "membership.hpp"

namespace stfw::runtime {

void Membership::reset(int num_ranks) {
  core::MutexLock lock(mu_);
  alive_.assign(static_cast<std::size_t>(num_ranks), 1);
  any_failed_.store(false, std::memory_order_release);
  // No epoch bump: reviving everyone is the baseline state of a run, and
  // keeping the counter monotonic means a frame stamped in an old degraded
  // run can never claim to be newer than the fresh view.
}

bool Membership::alive(int rank) const {
  core::MutexLock lock(mu_);
  return rank >= 0 && rank < static_cast<int>(alive_.size()) &&
         alive_[static_cast<std::size_t>(rank)] != 0;
}

int Membership::alive_count() const {
  core::MutexLock lock(mu_);
  int n = 0;
  for (const std::uint8_t a : alive_) n += a != 0;
  return n;
}

void Membership::snapshot(MembershipSnapshot& out) const {
  core::MutexLock lock(mu_);
  out.epoch = epoch_.load(std::memory_order_acquire);
  out.alive = alive_;
  out.alive_count = 0;
  out.lowest_alive = -1;
  for (std::size_t r = 0; r < alive_.size(); ++r) {
    if (alive_[r] == 0) continue;
    ++out.alive_count;
    if (out.lowest_alive < 0) out.lowest_alive = static_cast<int>(r);
  }
}

std::vector<std::int32_t> Membership::failed() const {
  core::MutexLock lock(mu_);
  std::vector<std::int32_t> out;
  for (std::size_t r = 0; r < alive_.size(); ++r)
    if (alive_[r] == 0) out.push_back(static_cast<std::int32_t>(r));
  return out;
}

bool Membership::mark_failed(int rank) {
  core::MutexLock lock(mu_);
  if (rank < 0 || rank >= static_cast<int>(alive_.size())) return false;
  auto& a = alive_[static_cast<std::size_t>(rank)];
  if (a == 0) return false;
  a = 0;
  any_failed_.store(true, std::memory_order_release);
  // Release-publish after the bitmap write: pollers that see the new epoch
  // and snapshot afterwards observe at least this death.
  epoch_.fetch_add(1, std::memory_order_release);
  return true;
}

}  // namespace stfw::runtime
