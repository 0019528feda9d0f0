#include "bsp_simulator.hpp"

#include <algorithm>

#include "core/error.hpp"
#include "core/rank_state.hpp"
#include "core/wire.hpp"

namespace stfw::sim {

using core::Rank;
using core::StageOutbox;
using core::StfwRankState;

SimResult simulate_exchange(const core::Vpt& vpt, const CommPattern& pattern,
                            const SimOptions& options) {
  core::require(pattern.finalized(), "simulate_exchange: pattern must be finalized");
  core::require(vpt.size() == pattern.num_ranks(),
                "simulate_exchange: VPT size must equal pattern rank count");

  const Rank K = vpt.size();
  const auto nK = static_cast<std::size_t>(K);

  // With a caller-provided scratch the per-rank states (and their forward-
  // buffer capacity) survive across calls; otherwise `own` serves one call.
  SimScratch own;
  SimScratch& scratch = options.scratch != nullptr ? *options.scratch : own;
  if (!scratch.vpt_.has_value() || !(*scratch.vpt_ == vpt) || scratch.states_.size() != nK) {
    scratch.vpt_ = vpt;  // stable copy the pooled states can point at
    scratch.states_.clear();
    scratch.states_.reserve(nK);
    for (Rank r = 0; r < K; ++r) scratch.states_.emplace_back(*scratch.vpt_, r);
  } else {
    for (StfwRankState& st : scratch.states_) st.reset();
  }
  std::vector<StfwRankState>& states = scratch.states_;

  // Seed from SendSets. Payload bytes are accounted but never materialized;
  // offsets are unused by the simulator.
  for (Rank r = 0; r < K; ++r)
    for (const Send& s : pattern.sends(r))
      states[static_cast<std::size_t>(r)].add_send(s.dest, 0, s.payload_bytes);

  SimResult result{core::ExchangeMetrics(K), {}, 0.0, {}};
  result.stage_times_us.reserve(static_cast<std::size_t>(vpt.dim()));

  scratch.inbox_.resize(nK);
  scratch.send_cost_.resize(nK);
  scratch.recv_cost_.resize(nK);
  std::vector<std::vector<core::Submessage>>& inbox = scratch.inbox_;
  std::vector<double>& send_cost = scratch.send_cost_;
  std::vector<double>& recv_cost = scratch.recv_cost_;
  StageOutbox& outbox = scratch.outbox_;
  // Per-node NIC injection/ejection bottleneck: all off-node traffic of a
  // node's ranks serializes through its NIC.
  const bool model_injection =
      options.machine != nullptr && options.machine->injection_bytes_per_us() > 0.0;
  const std::size_t num_nodes =
      options.machine != nullptr
          ? static_cast<std::size_t>(options.machine->node_of(K - 1)) + 1
          : 0;
  std::vector<std::uint64_t> node_out(num_nodes, 0), node_in(num_nodes, 0);
  // Store-and-forward transit residency: bytes parked in forward buffers at
  // stage boundaries (zero for the direct topology — everything leaves in
  // stage 0). Part of the paper's buffer-size metric.
  scratch.transit_peak_.assign(nK, 0);
  std::vector<std::uint64_t>& transit_peak = scratch.transit_peak_;

  for (int stage = 0; stage < vpt.dim(); ++stage) {
    if (options.machine != nullptr) {
      std::fill(send_cost.begin(), send_cost.end(), 0.0);
      std::fill(recv_cost.begin(), recv_cost.end(), 0.0);
      std::fill(node_out.begin(), node_out.end(), 0);
      std::fill(node_in.begin(), node_in.end(), 0);
    }
    // Phase 1: every rank forms its stage outbox; each frame's submessages
    // are appended to its destination's inbox, which thus holds a stage's
    // frames in ascending-sender order.
    for (Rank r = 0; r < K; ++r) {
      states[static_cast<std::size_t>(r)].make_stage_outbox(stage, outbox);
      for (const StageOutbox::Frame& m : outbox.frames) {
        const std::uint64_t payload = m.payload_bytes;
        result.metrics.record_send(r, payload);
        result.metrics.record_recv(m.to, payload);
        if (options.machine != nullptr) {
          const std::uint64_t wire = core::wire_size_bytes(m.count, payload);
          send_cost[static_cast<std::size_t>(r)] += options.machine->send_cost_us(r, m.to, wire);
          recv_cost[static_cast<std::size_t>(m.to)] += options.machine->recv_cost_us(wire);
          const int src_node = options.machine->node_of(r);
          const int dst_node = options.machine->node_of(m.to);
          if (model_injection && src_node != dst_node) {
            node_out[static_cast<std::size_t>(src_node)] += wire;
            node_in[static_cast<std::size_t>(dst_node)] += wire;
          }
        }
        const auto subs = outbox.subs_of(m);
        std::vector<core::Submessage>& box = inbox[static_cast<std::size_t>(m.to)];
        box.insert(box.end(), subs.begin(), subs.end());
      }
    }
    // Phase 2: every rank scatters what it received.
    for (Rank r = 0; r < K; ++r) {
      auto& box = inbox[static_cast<std::size_t>(r)];
      states[static_cast<std::size_t>(r)].accept(stage, box);
      box.clear();
      transit_peak[static_cast<std::size_t>(r)] =
          std::max(transit_peak[static_cast<std::size_t>(r)],
                   states[static_cast<std::size_t>(r)].buffered_payload_bytes());
    }
    if (options.machine != nullptr) {
      double stage_time = 0.0;
      for (std::size_t r = 0; r < nK; ++r)
        stage_time = std::max(stage_time, send_cost[r] + recv_cost[r]);
      if (model_injection) {
        const double rate = options.machine->injection_bytes_per_us();
        for (std::size_t node = 0; node < num_nodes; ++node)
          stage_time = std::max(
              stage_time, static_cast<double>(std::max(node_out[node], node_in[node])) / rate);
      }
      result.stage_times_us.push_back(stage_time);
      result.comm_time_us += stage_time;
    } else {
      result.stage_times_us.push_back(0.0);
    }
  }

  for (Rank r = 0; r < K; ++r) {
    auto& st = states[static_cast<std::size_t>(r)];
    // Paper Section 6.2 metric: buffers for the original messages a process
    // sends and receives, plus its store-and-forward buffers.
    std::uint64_t seed_bytes = 0;
    for (const Send& s : pattern.sends(r)) seed_bytes += s.payload_bytes;
    result.metrics.record_buffer_bytes(r, seed_bytes + st.delivered_payload_bytes() +
                                              transit_peak[static_cast<std::size_t>(r)]);
    STFW_ASSERT(st.buffered_payload_bytes() == 0,
                "simulate_exchange: submessages left undelivered");
  }

  if (options.collect_delivered) {
    result.delivered.resize(nK);
    for (Rank r = 0; r < K; ++r)
      result.delivered[static_cast<std::size_t>(r)] =
          states[static_cast<std::size_t>(r)].take_delivered();
  }
  return result;
}

}  // namespace stfw::sim
