#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/message.hpp"
#include "core/metrics.hpp"
#include "core/rank_state.hpp"
#include "core/vpt.hpp"
#include "netsim/machine.hpp"
#include "sim/pattern.hpp"

/// \file bsp_simulator.hpp
/// Bulk-synchronous simulator of the store-and-forward exchange.
///
/// The exchange is bulk-synchronous per stage by construction (a process
/// starts stage d only after receiving all stage d-1 messages), so a
/// stage-stepped in-process execution of all ranks is faithful: the same
/// StfwRankState per-rank logic as the threaded runtime, driven stage by
/// stage over all ranks. This scales to the paper's 16K-process studies on
/// one host because payloads are never copied — fixed-size submessage
/// records move between forward buffers.
///
/// Timing: a stage costs max over ranks of (sum of its send costs + sum of
/// its receive costs) under a Machine cost model; the exchange costs the sum
/// of its stage costs. This mirrors the paper's latency/bandwidth reasoning
/// (per-stage synchronized maxima) and ignores link contention (DESIGN.md).

namespace stfw::sim {

struct SimOptions;
struct SimResult;

/// Pooled per-rank state for repeated simulate_exchange calls. The sweep
/// harnesses simulate many exchanges over the same (or equally-shaped) VPT;
/// constructing K StfwRankStates — a vector of forward buffers each — per
/// call dominates small-pattern runs. A scratch passed via SimOptions keeps
/// the states (and their buffers' capacity) alive across calls: states are
/// reset when the VPT matches and rebuilt only when it changes. Owns a copy
/// of the VPT so pooled states never dangle on a caller-destroyed topology.
class SimScratch {
public:
  SimScratch() = default;

private:
  friend SimResult simulate_exchange(const core::Vpt& vpt, const CommPattern& pattern,
                                     const SimOptions& options);
  std::optional<core::Vpt> vpt_;
  std::vector<core::StfwRankState> states_;
  std::vector<std::vector<core::Submessage>> inbox_;  // per rank, one stage's arrivals
  core::StageOutbox outbox_;
  std::vector<std::uint64_t> transit_peak_;
  std::vector<double> send_cost_;
  std::vector<double> recv_cost_;
};

struct SimOptions {
  /// Compute simulated stage/exchange times on this machine (else times are 0).
  const netsim::Machine* machine = nullptr;
  /// Record delivered submessages per destination rank (for tests).
  bool collect_delivered = false;
  /// Reuse per-rank state across calls (see SimScratch). Optional.
  SimScratch* scratch = nullptr;
};

struct SimResult {
  core::ExchangeMetrics metrics;
  std::vector<double> stage_times_us;
  double comm_time_us = 0.0;
  /// delivered[r] = submessages that reached rank r; empty unless
  /// SimOptions::collect_delivered.
  std::vector<std::vector<core::Submessage>> delivered;
};

/// Run one store-and-forward exchange of `pattern` over `vpt`.
/// Pass Vpt::direct(K) for the BL baseline.
[[nodiscard]] SimResult simulate_exchange(const core::Vpt& vpt, const CommPattern& pattern,
                                          const SimOptions& options = {});

}  // namespace stfw::sim
