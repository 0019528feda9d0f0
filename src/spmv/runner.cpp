#include "runner.hpp"

#include <algorithm>
#include <cstring>
#include <string>
#include <type_traits>

#include "core/error.hpp"
#include "runtime/stfw_communicator.hpp"

namespace stfw::spmv {

using core::Rank;
using core::require;

namespace {

// The SpMV stride as a compile-time constant: every `* nv` of the rank loop
// folds away, so the single-vector kernel runs as fast as a dedicated one.
using OneVector = std::integral_constant<std::size_t, 1>;

// What one rank's loop observed; the entry points reduce these.
struct RankTally {
  ExchangeStatsTotals totals;
  std::int64_t degraded_iterations = 0;
  std::int64_t epoch_transitions = 0;
  std::uint32_t membership_epoch = 0;
};

// Partition local rows by whether every column reads an owned x slot (the
// local x layout keeps slots [0, num_owned) owned and the rest ghosts).
// Interior rows depend on no inbound data, so they are multiplied while the
// exchange is still in flight; boundary rows wait for the ghost scatter.
void split_rows(const sparse::Csr& a, std::size_t num_owned,
                std::vector<std::int32_t>& interior, std::vector<std::int32_t>& boundary) {
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

// y <- A x on the listed rows, for `nv` row-major vectors. Each entry sums
// its row's nonzeros in Csr::spmv's order, so any interior/boundary split
// computes y bit-identical to Csr::spmv (nv = 1) and Csr::spmm.
template <typename Stride>
void multiply_rows(const sparse::Csr& a, std::span<const std::int32_t> rows,
                   std::span<const double> x, std::span<double> y, Stride nv) {
  const auto col_idx = a.col_idx();
  const auto values = a.values();
  for (const std::int32_t r : rows) {
    for (std::size_t k = 0; k < nv; ++k) {
      double acc = 0.0;
      for (std::int64_t i = a.row_begin(r); i < a.row_end(r); ++i)
        acc += values[static_cast<std::size_t>(i)] *
               x[static_cast<std::size_t>(col_idx[static_cast<std::size_t>(i)]) * nv + k];
      y[static_cast<std::size_t>(r) * nv + k] = acc;
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

std::vector<ExchangeStatsTotals> totals_of(const std::vector<RankTally>& tallies) {
  std::vector<ExchangeStatsTotals> out;
  out.reserve(tallies.size());
  for (const RankTally& t : tallies) out.push_back(t.totals);
  return out;
}

// The rank loop behind every distributed runner: `iterations` of X <- A X on
// `nv` row-major vectors. Each iteration packs the owned x entries, exchanges
// them, scatters the inbound ones into ghost slots and multiplies, with the
// interior rows computed while the exchange is in flight. `resilient` runs
// exchange_resilient and its tolerant scatter; `who` prefixes errors.
template <typename Stride>
std::vector<double> run_ranks(runtime::Cluster& cluster, const SpmvProblem& problem,
                              const core::Vpt& vpt, std::span<const double> x0, Stride nv,
                              int iterations, bool resilient, const char* who,
                              std::vector<RankTally>& tallies) {
  std::vector<double> result(x0.size(), 0.0);
  // Per-rank slots so the rank threads never share a counter.
  tallies.assign(static_cast<std::size_t>(problem.num_ranks()), {});
  const std::size_t entry = nv * sizeof(double);  // bytes per x entry

  cluster.run([&](runtime::Comm& comm) {
    const auto me = static_cast<Rank>(comm.rank());
    const RankPlan& plan = problem.plan(me);
    RankTally& tally = tallies[static_cast<std::size_t>(me)];
    StfwCommunicator communicator(comm, vpt);

    // Local x: owned slots seeded from the global vector, ghosts zero.
    const std::size_t num_owned = plan.owned_rows.size();
    std::vector<double> x_local(plan.x_slot_global.size() * nv, 0.0);
    for (std::size_t i = 0; i < num_owned; ++i)
      std::memcpy(x_local.data() + i * nv,
                  x0.data() + static_cast<std::size_t>(plan.owned_rows[i]) * nv, entry);
    std::vector<double> y_local(num_owned * nv, 0.0);

    // The pattern never changes across iterations, so the outbound buffers
    // are allocated once and refilled in place (and the exchanges behind
    // them replay one cached plan).
    std::vector<OutboundMessage> sends(plan.sends.size());
    for (std::size_t i = 0; i < plan.sends.size(); ++i) {
      sends[i].dest = plan.sends[i].dest;
      sends[i].bytes.resize(plan.sends[i].x_slots.size() * entry);
    }

    std::vector<std::int32_t> interior;
    std::vector<std::int32_t> boundary;
    split_rows(plan.local, num_owned, interior, boundary);
    const auto multiply = [&](std::span<const std::int32_t> rows) {
      multiply_rows(plan.local, rows, x_local, y_local, nv);
    };
    const OverlapHook hook = [&] { multiply(interior); };

    for (int it = 0; it < iterations; ++it) {
      // Communication phase: the packed buffers snapshot the owned x
      // entries, so the interior rows may be multiplied concurrently with
      // the stage traffic.
      for (std::size_t si = 0; si < plan.sends.size(); ++si) {
        std::byte* out = sends[si].bytes.data();
        for (const std::int32_t slot : plan.sends[si].x_slots) {
          std::memcpy(out, x_local.data() + static_cast<std::size_t>(slot) * nv, entry);
          out += entry;
        }
      }
      std::vector<InboundMessage> inbound;
      if (resilient) {
        multiply(interior);  // exchange_resilient runs no hook
        ResilientExchangeResult ex = communicator.exchange_resilient(sends);
        const LocalExchangeStats& s = communicator.last_stats();
        tally.epoch_transitions += s.epoch_transitions;
        tally.membership_epoch = s.membership_epoch;
        if (ex.degraded) ++tally.degraded_iterations;
        inbound = std::move(ex.delivered);
      } else {
        inbound = communicator.exchange(sends, hook);
      }
      absorb_stats(tally.totals, communicator.last_stats());

      // Scatter inbound x entries into ghost slots; both lists ascend by
      // source. The plain exchange delivers exactly the planned messages.
      // Under exchange_resilient a source that died simply stops sending, so
      // its ghost entries freeze at their last received values.
      if (!resilient && inbound.size() != plan.recvs.size())
        core::fail(std::string(who) + ": unexpected number of inbound messages");
      std::size_t di = 0;
      for (const RankPlan::RecvFrom& r : plan.recvs) {
        while (resilient && di < inbound.size() && inbound[di].source < r.source) ++di;
        const bool match = di < inbound.size() && inbound[di].source == r.source &&
                           inbound[di].bytes.size() == r.ghost_slots.size() * entry;
        if (!match && resilient) continue;
        if (!match) core::fail(std::string(who) + ": inbound source or size mismatch");
        const std::byte* in = inbound[di++].bytes.data();
        for (const std::int32_t slot : r.ghost_slots) {
          std::memcpy(x_local.data() + static_cast<std::size_t>(slot) * nv, in, entry);
          in += entry;
        }
      }

      multiply(boundary);
      if (it + 1 < iterations)
        std::copy(y_local.begin(), y_local.end(), x_local.begin());  // x <- y
    }

    // Threads share the result buffer; owned rows are disjoint across ranks,
    // and a dead rank never reaches this write.
    for (std::size_t i = 0; i < num_owned; ++i)
      std::memcpy(result.data() + static_cast<std::size_t>(plan.owned_rows[i]) * nv,
                  y_local.data() + i * nv, entry);
  });

  return result;
}

}  // namespace

std::vector<double> run_distributed(runtime::Cluster& cluster, const SpmvProblem& problem,
                                    const core::Vpt& vpt, std::span<const double> x0,
                                    int iterations, std::vector<ExchangeStatsTotals>* totals) {
  require(problem.has_plans(), "run_distributed: problem built without numeric plans");
  require(cluster.size() == problem.num_ranks(), "run_distributed: cluster size mismatch");
  require(x0.size() == static_cast<std::size_t>(problem.matrix().num_rows()),
          "run_distributed: x size mismatch");
  require(iterations >= 1, "run_distributed: need at least one iteration");

  std::vector<RankTally> tallies;
  std::vector<double> y = run_ranks(cluster, problem, vpt, x0, OneVector{}, iterations,
                                    /*resilient=*/false, "run_distributed", tallies);
  if (totals != nullptr) *totals = totals_of(tallies);
  return y;
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

  std::vector<RankTally> tallies;
  std::vector<double> y = run_ranks(cluster, problem, vpt, x0, OneVector{}, iterations,
                                    /*resilient=*/true, "run_distributed_resilient", tallies);
  if (report != nullptr) {
    *report = ResilientRunReport{};
    report->totals = totals_of(tallies);
    report->failed_ranks = cluster.membership().failed();
    for (const RankTally& t : tallies) {
      report->membership_epoch = std::max(report->membership_epoch, t.membership_epoch);
      report->degraded_iterations = std::max(report->degraded_iterations, t.degraded_iterations);
      report->epoch_transitions += t.epoch_transitions;
    }
  }
  return y;
}

std::vector<double> run_distributed_spmm(runtime::Cluster& cluster, const SpmvProblem& problem,
                                         const core::Vpt& vpt, std::span<const double> x0,
                                         std::int32_t num_vectors, int iterations,
                                         std::vector<ExchangeStatsTotals>* totals) {
  require(problem.has_plans(), "run_distributed_spmm: problem built without numeric plans");
  require(cluster.size() == problem.num_ranks(), "run_distributed_spmm: cluster size mismatch");
  require(num_vectors >= 1, "run_distributed_spmm: need at least one vector");
  require(x0.size() == static_cast<std::size_t>(problem.matrix().num_rows()) *
                           static_cast<std::size_t>(num_vectors),
          "run_distributed_spmm: X size mismatch");
  require(iterations >= 1, "run_distributed_spmm: need at least one iteration");

  std::vector<RankTally> tallies;
  std::vector<double> y =
      run_ranks(cluster, problem, vpt, x0, static_cast<std::size_t>(num_vectors), iterations,
                /*resilient=*/false, "run_distributed_spmm", tallies);
  if (totals != nullptr) *totals = totals_of(tallies);
  return y;
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
