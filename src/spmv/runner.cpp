#include "runner.hpp"

#include <algorithm>
#include <cstring>

#include "core/env.hpp"
#include "core/error.hpp"
#include "runtime/stfw_communicator.hpp"

namespace stfw::spmv {

using core::Rank;
using core::require;

namespace {

void unpack_doubles(std::span<const std::byte> bytes, std::span<double> out) {
  require(bytes.size() == out.size() * sizeof(double), "unpack_doubles: size mismatch");
  std::memcpy(out.data(), bytes.data(), bytes.size());
}

// Partition local rows by whether every column reads an owned x slot (the
// local x layout keeps slots [0, num_owned) owned and the rest ghosts).
// Interior rows depend on no inbound data, so the overlap hook can multiply
// them while the exchange is still in flight; boundary rows wait for the
// ghost scatter.
void split_rows(const sparse::Csr& a, std::size_t num_owned,
                std::vector<std::int32_t>& interior, std::vector<std::int32_t>& boundary) {
  interior.clear();
  boundary.clear();
  for (std::int32_t r = 0; r < a.num_rows(); ++r) {
    bool in = true;
    for (const std::int32_t c : a.row_cols(r)) {
      if (static_cast<std::size_t>(c) >= num_owned) {
        in = false;
        break;
      }
    }
    (in ? interior : boundary).push_back(r);
  }
}

// Row-subset SpMV with exactly Csr::spmv's per-row accumulation order, so an
// interior/boundary split computes y bit-identical to one full sweep.
void spmv_rows(const sparse::Csr& a, std::span<const std::int32_t> rows,
               std::span<const double> x, std::span<double> y) {
  const auto col_idx = a.col_idx();
  const auto values = a.values();
  for (const std::int32_t r : rows) {
    double acc = 0.0;
    for (std::int64_t i = a.row_begin(r); i < a.row_end(r); ++i)
      acc += values[static_cast<std::size_t>(i)] *
             x[static_cast<std::size_t>(col_idx[static_cast<std::size_t>(i)])];
    y[static_cast<std::size_t>(r)] = acc;
  }
}

// Row-subset SpMM mirroring Csr::spmm, same bit-identity guarantee.
void spmm_rows(const sparse::Csr& a, std::span<const std::int32_t> rows,
               std::span<const double> x, std::span<double> y, std::int32_t num_vectors) {
  const auto nv = static_cast<std::size_t>(num_vectors);
  const auto col_idx = a.col_idx();
  const auto values = a.values();
  for (const std::int32_t r : rows) {
    double* yr = y.data() + static_cast<std::size_t>(r) * nv;
    std::fill(yr, yr + nv, 0.0);
    for (std::int64_t i = a.row_begin(r); i < a.row_end(r); ++i) {
      const double v = values[static_cast<std::size_t>(i)];
      const double* xc =
          x.data() + static_cast<std::size_t>(col_idx[static_cast<std::size_t>(i)]) * nv;
      for (std::size_t k = 0; k < nv; ++k) yr[k] += v * xc[k];
    }
  }
}

void absorb_stats(ExchangeStatsTotals& t, const LocalExchangeStats& s) {
  t.exchanges += 1;
  t.plan_builds += s.plan_builds;
  t.plan_hits += s.plan_hits;
  t.plan_fallbacks += s.plan_fallbacks;
  t.messages_sent += s.messages_sent;
  t.payload_bytes_sent += s.payload_bytes_sent;
  t.wire_bytes_sent += s.wire_bytes_sent;
}

}  // namespace

bool overlap_default() { return core::env_flag("STFW_OVERLAP", true); }

std::vector<double> run_distributed(runtime::Cluster& cluster, const SpmvProblem& problem,
                                    const core::Vpt& vpt, std::span<const double> x0,
                                    int iterations, std::vector<ExchangeStatsTotals>* totals,
                                    bool overlap) {
  require(problem.has_plans(), "run_distributed: problem built without numeric plans");
  require(cluster.size() == problem.num_ranks(), "run_distributed: cluster size mismatch");
  require(x0.size() == static_cast<std::size_t>(problem.matrix().num_rows()),
          "run_distributed: x size mismatch");
  require(iterations >= 1, "run_distributed: need at least one iteration");

  std::vector<double> result(x0.size(), 0.0);
  if (totals != nullptr) totals->assign(static_cast<std::size_t>(problem.num_ranks()), {});

  cluster.run([&](runtime::Comm& comm) {
    const auto me = static_cast<Rank>(comm.rank());
    const RankPlan& plan = problem.plan(me);
    StfwCommunicator communicator(comm, vpt);

    // Local x: owned slots seeded from the global vector, ghosts zero.
    std::vector<double> x_local(plan.x_slot_global.size(), 0.0);
    const std::size_t num_owned = plan.owned_rows.size();
    for (std::size_t i = 0; i < num_owned; ++i)
      x_local[i] = x0[static_cast<std::size_t>(plan.owned_rows[i])];
    std::vector<double> y_local(num_owned, 0.0);
    std::vector<double> scratch;

    // The pattern never changes across iterations, so the outbound buffers
    // are allocated once and refilled in place (and the exchanges behind
    // them replay one cached plan).
    std::vector<OutboundMessage> sends(plan.sends.size());
    for (std::size_t i = 0; i < plan.sends.size(); ++i) {
      sends[i].dest = plan.sends[i].dest;
      sends[i].bytes.resize(plan.sends[i].x_slots.size() * sizeof(double));
    }

    // Overlap split: the packed send buffers snapshot the owned x entries
    // before the exchange starts, so the hook may multiply interior rows
    // concurrently with the stage traffic.
    std::vector<std::int32_t> interior;
    std::vector<std::int32_t> boundary;
    if (overlap) split_rows(plan.local, num_owned, interior, boundary);
    const OverlapHook hook = [&] { spmv_rows(plan.local, interior, x_local, y_local); };

    for (int it = 0; it < iterations; ++it) {
      // Communication phase: ship owned x entries to their consumers.
      for (std::size_t si = 0; si < plan.sends.size(); ++si) {
        const RankPlan::SendTo& s = plan.sends[si];
        scratch.resize(s.x_slots.size());
        for (std::size_t i = 0; i < s.x_slots.size(); ++i)
          scratch[i] = x_local[static_cast<std::size_t>(s.x_slots[i])];
        std::memcpy(sends[si].bytes.data(), scratch.data(), sends[si].bytes.size());
      }
      const std::vector<InboundMessage> received =
          overlap ? communicator.exchange(sends, hook) : communicator.exchange(sends);
      if (totals != nullptr)
        absorb_stats((*totals)[static_cast<std::size_t>(me)], communicator.last_stats());

      // Scatter received x entries into ghost slots.
      require(received.size() == plan.recvs.size(),
              "run_distributed: unexpected number of inbound messages");
      for (std::size_t i = 0; i < received.size(); ++i) {
        const RankPlan::RecvFrom& r = plan.recvs[i];
        require(received[i].source == r.source, "run_distributed: inbound source mismatch");
        scratch.resize(r.ghost_slots.size());
        unpack_doubles(received[i].bytes, scratch);
        for (std::size_t j = 0; j < r.ghost_slots.size(); ++j)
          x_local[static_cast<std::size_t>(r.ghost_slots[j])] = scratch[j];
      }

      // Compute phase (interior rows already done by the hook when
      // overlapping).
      if (overlap)
        spmv_rows(plan.local, boundary, x_local, y_local);
      else
        plan.local.spmv(x_local, y_local);
      if (it + 1 < iterations)
        std::copy(y_local.begin(), y_local.end(), x_local.begin());  // x <- y
    }

    // Threads share the result buffer; owned rows are disjoint across ranks.
    for (std::size_t i = 0; i < num_owned; ++i)
      result[static_cast<std::size_t>(plan.owned_rows[i])] = y_local[i];
  });

  return result;
}

std::vector<double> run_distributed_resilient(runtime::Cluster& cluster,
                                              const SpmvProblem& problem, const core::Vpt& vpt,
                                              std::span<const double> x0, int iterations,
                                              ResilientRunReport* report) {
  require(problem.has_plans(), "run_distributed_resilient: problem built without numeric plans");
  require(cluster.size() == problem.num_ranks(),
          "run_distributed_resilient: cluster size mismatch");
  require(x0.size() == static_cast<std::size_t>(problem.matrix().num_rows()),
          "run_distributed_resilient: x size mismatch");
  require(iterations >= 1, "run_distributed_resilient: need at least one iteration");

  const auto num_ranks = static_cast<std::size_t>(problem.num_ranks());
  std::vector<double> result(x0.size(), 0.0);
  // Per-rank slots so the rank threads never share a counter; reduced into
  // the report after the run.
  std::vector<ExchangeStatsTotals> totals(num_ranks);
  std::vector<std::int64_t> degraded_iters(num_ranks, 0);
  std::vector<std::int64_t> transitions(num_ranks, 0);
  std::vector<std::uint32_t> final_epoch(num_ranks, 0);

  cluster.run([&](runtime::Comm& comm) {
    const auto me = static_cast<Rank>(comm.rank());
    const RankPlan& plan = problem.plan(me);
    StfwCommunicator communicator(comm, vpt);

    std::vector<double> x_local(plan.x_slot_global.size(), 0.0);
    const std::size_t num_owned = plan.owned_rows.size();
    for (std::size_t i = 0; i < num_owned; ++i)
      x_local[i] = x0[static_cast<std::size_t>(plan.owned_rows[i])];
    std::vector<double> y_local(num_owned, 0.0);
    std::vector<double> scratch;

    std::vector<OutboundMessage> sends(plan.sends.size());
    for (std::size_t i = 0; i < plan.sends.size(); ++i) {
      sends[i].dest = plan.sends[i].dest;
      sends[i].bytes.resize(plan.sends[i].x_slots.size() * sizeof(double));
    }

    for (int it = 0; it < iterations; ++it) {
      for (std::size_t si = 0; si < plan.sends.size(); ++si) {
        const RankPlan::SendTo& s = plan.sends[si];
        scratch.resize(s.x_slots.size());
        for (std::size_t i = 0; i < s.x_slots.size(); ++i)
          scratch[i] = x_local[static_cast<std::size_t>(s.x_slots[i])];
        std::memcpy(sends[si].bytes.data(), scratch.data(), sends[si].bytes.size());
      }
      const ResilientExchangeResult ex = communicator.exchange_resilient(sends);
      const LocalExchangeStats& s = communicator.last_stats();
      const std::size_t slot = static_cast<std::size_t>(me);
      absorb_stats(totals[slot], s);
      transitions[slot] += s.epoch_transitions;
      final_epoch[slot] = s.membership_epoch;
      if (ex.degraded) ++degraded_iters[slot];

      // Tolerant inbound matching: a source that died simply stops sending,
      // so its ghost entries freeze at the last received values instead of
      // failing the run. Both lists are sorted by source rank.
      std::size_t di = 0;
      for (const RankPlan::RecvFrom& r : plan.recvs) {
        while (di < ex.delivered.size() && ex.delivered[di].source < r.source) ++di;
        if (di >= ex.delivered.size() || ex.delivered[di].source != r.source) continue;
        if (ex.delivered[di].bytes.size() != r.ghost_slots.size() * sizeof(double)) continue;
        scratch.resize(r.ghost_slots.size());
        unpack_doubles(ex.delivered[di].bytes, scratch);
        for (std::size_t j = 0; j < r.ghost_slots.size(); ++j)
          x_local[static_cast<std::size_t>(r.ghost_slots[j])] = scratch[j];
      }

      plan.local.spmv(x_local, y_local);
      if (it + 1 < iterations)
        std::copy(y_local.begin(), y_local.end(), x_local.begin());  // x <- y
    }

    // Threads share the result buffer; owned rows are disjoint across ranks,
    // and a dead rank never reaches this write.
    for (std::size_t i = 0; i < num_owned; ++i)
      result[static_cast<std::size_t>(plan.owned_rows[i])] = y_local[i];
  });

  if (report != nullptr) {
    report->totals = std::move(totals);
    report->failed_ranks = cluster.membership().failed();
    report->membership_epoch = 0;
    report->degraded_iterations = 0;
    report->epoch_transitions = 0;
    for (std::size_t r = 0; r < num_ranks; ++r) {
      report->membership_epoch = std::max(report->membership_epoch, final_epoch[r]);
      report->degraded_iterations = std::max(report->degraded_iterations, degraded_iters[r]);
      report->epoch_transitions += transitions[r];
    }
  }
  return result;
}

std::vector<double> run_distributed_spmm(runtime::Cluster& cluster, const SpmvProblem& problem,
                                         const core::Vpt& vpt, std::span<const double> x0,
                                         std::int32_t num_vectors, int iterations,
                                         std::vector<ExchangeStatsTotals>* totals,
                                         bool overlap) {
  require(problem.has_plans(), "run_distributed_spmm: problem built without numeric plans");
  require(cluster.size() == problem.num_ranks(), "run_distributed_spmm: cluster size mismatch");
  require(num_vectors >= 1, "run_distributed_spmm: need at least one vector");
  require(x0.size() == static_cast<std::size_t>(problem.matrix().num_rows()) *
                           static_cast<std::size_t>(num_vectors),
          "run_distributed_spmm: X size mismatch");
  require(iterations >= 1, "run_distributed_spmm: need at least one iteration");

  const auto nv = static_cast<std::size_t>(num_vectors);
  std::vector<double> result(x0.size(), 0.0);
  if (totals != nullptr) totals->assign(static_cast<std::size_t>(problem.num_ranks()), {});

  cluster.run([&](runtime::Comm& comm) {
    const auto me = static_cast<Rank>(comm.rank());
    const RankPlan& plan = problem.plan(me);
    StfwCommunicator communicator(comm, vpt);

    std::vector<double> x_local(plan.x_slot_global.size() * nv, 0.0);
    const std::size_t num_owned = plan.owned_rows.size();
    for (std::size_t i = 0; i < num_owned; ++i)
      std::copy_n(x0.data() + static_cast<std::size_t>(plan.owned_rows[i]) * nv, nv,
                  x_local.data() + i * nv);
    std::vector<double> y_local(num_owned * nv, 0.0);
    std::vector<double> scratch;

    std::vector<OutboundMessage> sends(plan.sends.size());
    for (std::size_t i = 0; i < plan.sends.size(); ++i) {
      sends[i].dest = plan.sends[i].dest;
      sends[i].bytes.resize(plan.sends[i].x_slots.size() * nv * sizeof(double));
    }

    std::vector<std::int32_t> interior;
    std::vector<std::int32_t> boundary;
    if (overlap) split_rows(plan.local, num_owned, interior, boundary);
    const OverlapHook hook = [&] {
      spmm_rows(plan.local, interior, x_local, y_local, num_vectors);
    };

    for (int it = 0; it < iterations; ++it) {
      for (std::size_t si = 0; si < plan.sends.size(); ++si) {
        const RankPlan::SendTo& s = plan.sends[si];
        scratch.resize(s.x_slots.size() * nv);
        for (std::size_t i = 0; i < s.x_slots.size(); ++i)
          std::copy_n(x_local.data() + static_cast<std::size_t>(s.x_slots[i]) * nv, nv,
                      scratch.data() + i * nv);
        std::memcpy(sends[si].bytes.data(), scratch.data(), sends[si].bytes.size());
      }
      const std::vector<InboundMessage> received =
          overlap ? communicator.exchange(sends, hook) : communicator.exchange(sends);
      if (totals != nullptr)
        absorb_stats((*totals)[static_cast<std::size_t>(me)], communicator.last_stats());

      require(received.size() == plan.recvs.size(),
              "run_distributed_spmm: unexpected number of inbound messages");
      for (std::size_t i = 0; i < received.size(); ++i) {
        const RankPlan::RecvFrom& r = plan.recvs[i];
        require(received[i].source == r.source, "run_distributed_spmm: inbound source mismatch");
        scratch.resize(r.ghost_slots.size() * nv);
        unpack_doubles(received[i].bytes, scratch);
        for (std::size_t j = 0; j < r.ghost_slots.size(); ++j)
          std::copy_n(scratch.data() + j * nv, nv,
                      x_local.data() + static_cast<std::size_t>(r.ghost_slots[j]) * nv);
      }

      if (overlap)
        spmm_rows(plan.local, boundary, x_local, y_local, num_vectors);
      else
        plan.local.spmm(x_local, y_local, num_vectors);
      if (it + 1 < iterations)
        std::copy(y_local.begin(), y_local.end(), x_local.begin());
    }

    for (std::size_t i = 0; i < num_owned; ++i)
      std::copy_n(y_local.data() + i * nv, nv,
                  result.data() + static_cast<std::size_t>(plan.owned_rows[i]) * nv);
  });

  return result;
}

std::vector<double> run_serial(const sparse::Csr& a, std::span<const double> x0, int iterations) {
  require(iterations >= 1, "run_serial: need at least one iteration");
  std::vector<double> x(x0.begin(), x0.end());
  std::vector<double> y(static_cast<std::size_t>(a.num_rows()), 0.0);
  for (int it = 0; it < iterations; ++it) {
    a.spmv(x, y);
    std::swap(x, y);
  }
  return x;
}

std::vector<double> run_serial_spmm(const sparse::Csr& a, std::span<const double> x0,
                                    std::int32_t num_vectors, int iterations) {
  require(iterations >= 1, "run_serial_spmm: need at least one iteration");
  std::vector<double> x(x0.begin(), x0.end());
  std::vector<double> y(
      static_cast<std::size_t>(a.num_rows()) * static_cast<std::size_t>(num_vectors), 0.0);
  for (int it = 0; it < iterations; ++it) {
    a.spmm(x, y, num_vectors);
    std::swap(x, y);
  }
  return x;
}

}  // namespace stfw::spmv
