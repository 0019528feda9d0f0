#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/vpt.hpp"
#include "runtime/comm.hpp"
#include "spmv/distributed.hpp"

/// \file runner.hpp
/// Numeric distributed SpMV on the threaded runtime.
///
/// Every rank runs the paper's two-phase iteration: exchange the x entries
/// over the given VPT with the store-and-forward communicator (Vpt::direct
/// for the BL baseline), then multiply locally. The runners always overlap
/// the two: interior rows (rows reading only owned x slots) are multiplied
/// while the exchange is in flight, and only the boundary rows wait for the
/// ghost scatter. Every row accumulates in Csr::spmv's order, so results are
/// bit-identical to the serial references. Used to validate the regularized
/// communication, by the examples and by perfbench.

namespace stfw::spmv {

/// Per-rank accumulation of communication statistics over all iterations of
/// a distributed run. The iterative pattern is identical every iteration, so
/// with the communicator's transparent plan cache enabled a healthy run
/// shows plan_builds == 1 and plan_hits == iterations - 1 per rank.
struct ExchangeStatsTotals {
  std::int64_t exchanges = 0;
  std::int64_t plan_builds = 0;
  std::int64_t plan_hits = 0;
  std::int64_t plan_fallbacks = 0;
  std::int64_t messages_sent = 0;
  std::uint64_t payload_bytes_sent = 0;
  std::uint64_t wire_bytes_sent = 0;
};

/// Run `iterations` of x <- A x on `cluster` and return the final global
/// vector (row i's value at index i). The problem must have numeric plans.
/// When `totals` is non-null it is resized to one entry per rank and filled
/// with each rank's accumulated exchange statistics.
std::vector<double> run_distributed(runtime::Cluster& cluster, const SpmvProblem& problem,
                                    const core::Vpt& vpt, std::span<const double> x0,
                                    int iterations = 1,
                                    std::vector<ExchangeStatsTotals>* totals = nullptr);

/// What a resilient distributed run observed (see run_distributed_resilient).
struct ResilientRunReport {
  std::vector<ExchangeStatsTotals> totals;  // per rank, like run_distributed
  std::vector<std::int32_t> failed_ranks;   // ranks dead when the run ended
  std::uint32_t membership_epoch = 0;       // highest epoch any rank finished under
  std::int64_t degraded_iterations = 0;     // max per-rank iterations run degraded
  std::int64_t epoch_transitions = 0;       // summed over ranks
};

/// Rank-failure-surviving variant of run_distributed: exchanges run over
/// exchange_resilient, and when a rank dies mid-run (a survivable injected
/// crash) the survivors keep iterating on their own partitions — ghost
/// entries whose source died freeze at their last received value, and the
/// dead rank's owned rows keep whatever the result buffer last held (zero if
/// it never finished). On a healthy cluster the result is bit-identical to
/// run_distributed. See docs/fault_model.md, "Membership epochs and degraded
/// mode".
std::vector<double> run_distributed_resilient(runtime::Cluster& cluster,
                                              const SpmvProblem& problem, const core::Vpt& vpt,
                                              std::span<const double> x0, int iterations = 1,
                                              ResilientRunReport* report = nullptr);

/// SpMM variant: X0 is row-major with num_vectors columns; `iterations` of
/// X <- A X. Each communicated x entry carries num_vectors doubles, so the
/// exchange sits num_vectors times deeper in the bandwidth regime — the
/// trade-off knob the large-scale analysis sweeps.
std::vector<double> run_distributed_spmm(runtime::Cluster& cluster, const SpmvProblem& problem,
                                         const core::Vpt& vpt, std::span<const double> x0,
                                         std::int32_t num_vectors, int iterations = 1,
                                         std::vector<ExchangeStatsTotals>* totals = nullptr);

/// Serial reference: `iterations` of x <- A x.
std::vector<double> run_serial(const sparse::Csr& a, std::span<const double> x0,
                               int iterations = 1);

/// Serial SpMM reference: `iterations` of X <- A X (row-major X).
std::vector<double> run_serial_spmm(const sparse::Csr& a, std::span<const double> x0,
                                    std::int32_t num_vectors, int iterations = 1);

}  // namespace stfw::spmv
