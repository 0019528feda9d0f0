#include "fault_injector.hpp"

#include <string>
#include <thread>

#include "core/env.hpp"
#include "core/verify_hooks.hpp"

namespace stfw::fault {

namespace {

// Strict parsers (core/env.hpp): a malformed STFW_FAULT_* value throws
// core::ValidationError instead of being silently truncated by strtod.
using core::env_double;
using core::env_u64;

/// splitmix64 — decorrelates the per-sender streams derived from one seed.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

FaultConfig FaultConfig::from_env() {
  FaultConfig c;
  c.seed = env_u64("STFW_FAULT_SEED", c.seed);
  c.drop_prob = env_double("STFW_FAULT_DROP", c.drop_prob);
  c.duplicate_prob = env_double("STFW_FAULT_DUP", c.duplicate_prob);
  c.reorder_prob = env_double("STFW_FAULT_REORDER", c.reorder_prob);
  c.truncate_prob = env_double("STFW_FAULT_TRUNCATE", c.truncate_prob);
  c.delay_prob = env_double("STFW_FAULT_DELAY", c.delay_prob);
  c.delay_max = std::chrono::milliseconds(
      env_u64("STFW_FAULT_DELAY_MAX_MS",
              static_cast<std::uint64_t>(c.delay_max.count())));
  c.crash_rank = static_cast<int>(core::env_int("STFW_FAULT_CRASH_RANK", c.crash_rank));
  c.crash_stage = static_cast<int>(core::env_int("STFW_FAULT_CRASH_STAGE", c.crash_stage));
  c.crash_visit = static_cast<int>(core::env_int("STFW_FAULT_CRASH_VISIT", c.crash_visit));
  c.crash_survivable = core::env_flag("STFW_FAULT_CRASH_SURVIVABLE", c.crash_survivable);
  return c;
}

FaultInjector::FaultInjector(FaultConfig config) : config_(config) {
  auto check = [](double p, const char* what) {
    core::require(p >= 0.0 && p <= 1.0, std::string("FaultInjector: ") + what +
                                            " probability outside [0, 1]");
  };
  check(config_.drop_prob, "drop");
  check(config_.duplicate_prob, "duplicate");
  check(config_.reorder_prob, "reorder");
  check(config_.truncate_prob, "truncate");
  check(config_.delay_prob, "delay");
  core::require(config_.delay_min <= config_.delay_max,
                "FaultInjector: delay_min must not exceed delay_max");
}

FaultInjector::Stream& FaultInjector::stream_for(int source) {
  core::MutexLock lock(streams_mu_);
  const auto idx = static_cast<std::size_t>(source);
  if (idx >= streams_.size()) streams_.resize(idx + 1);
  if (!streams_[idx])
    streams_[idx] = std::make_unique<Stream>(
        mix(config_.seed ^ (std::uint64_t{0x517cc1b727220a95} *
                            (static_cast<std::uint64_t>(source) + 1))));
  return *streams_[idx];
}

MessageDecision FaultInjector::on_post(int source, int dest, int tag,
                                       std::size_t size_bytes) {
  (void)dest;
  MessageDecision d;
  if (tag < 0) return d;  // the reliable side channel: control collectives
  Stream& st = stream_for(source);
  core::MutexLock lock(st.mu);
  std::uniform_real_distribution<double> coin(0.0, 1.0);

  const double fate = coin(st.rng);
  if (fate < config_.drop_prob) {
    d.drop = true;
    drops_.fetch_add(1, std::memory_order_relaxed);
    return d;  // nothing else matters for a dropped message
  } else if (fate < config_.drop_prob + config_.duplicate_prob) {
    d.duplicate = true;
    duplicates_.fetch_add(1, std::memory_order_relaxed);
  } else if (fate < config_.drop_prob + config_.duplicate_prob + config_.reorder_prob) {
    d.reorder = true;
    reorders_.fetch_add(1, std::memory_order_relaxed);
  }

  if (size_bytes > 0 && coin(st.rng) < config_.truncate_prob) {
    d.truncate_to = static_cast<std::uint32_t>(
        std::uniform_int_distribution<std::size_t>(0, size_bytes - 1)(st.rng));
    truncations_.fetch_add(1, std::memory_order_relaxed);
  }
  if (coin(st.rng) < config_.delay_prob) {
    const auto lo = config_.delay_min.count();
    const auto hi = config_.delay_max.count();
    d.delay = std::chrono::milliseconds(
        std::uniform_int_distribution<long long>(lo, hi)(st.rng));
    if (d.delay.count() > 0) delays_.fetch_add(1, std::memory_order_relaxed);
  }
  return d;
}

void FaultInjector::at_stage(int rank, int stage) {
  if (rank == config_.crash_rank) {
    const int visit = crash_rank_visits_.fetch_add(1, std::memory_order_relaxed);
    const bool hit = config_.crash_visit >= 0
                         ? visit == config_.crash_visit
                         : (config_.crash_stage < 0 || stage == config_.crash_stage);
    if (hit) {
      crashes_.fetch_add(1, std::memory_order_relaxed);
      const std::string what = "fault injection: rank " + std::to_string(rank) +
                               " crashed at stage " + std::to_string(stage);
      if (config_.crash_survivable) throw RankCrashedError(what);
      throw FaultInjectedError(what);
    }
  }
  if (rank == config_.stall_rank &&
      (config_.stall_stage < 0 || stage == config_.stall_stage) &&
      config_.stall_duration.count() > 0) {
    stalls_.fetch_add(1, std::memory_order_relaxed);
#if STFW_VERIFY_ENABLED
    if (verify::Hooks* h = verify::hooks()) {
      // Under the stfw-verify scheduler a stall advances the logical clock
      // and yields instead of sleeping, so stall schedules stay deterministic.
      h->stall(config_.stall_duration);
      return;
    }
#endif
    std::this_thread::sleep_for(config_.stall_duration);
  }
}

FaultCounters FaultInjector::counters() const {
  FaultCounters c;
  c.drops = drops_.load(std::memory_order_relaxed);
  c.duplicates = duplicates_.load(std::memory_order_relaxed);
  c.reorders = reorders_.load(std::memory_order_relaxed);
  c.truncations = truncations_.load(std::memory_order_relaxed);
  c.delays = delays_.load(std::memory_order_relaxed);
  c.stalls = stalls_.load(std::memory_order_relaxed);
  c.crashes = crashes_.load(std::memory_order_relaxed);
  return c;
}

}  // namespace stfw::fault
