#include "spmv/runner.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <random>

#include "core/error.hpp"
#include "partition/partitioner.hpp"
#include "sparse/generators.hpp"

namespace stfw::spmv {
namespace {

std::vector<double> random_vector(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> x(n);
  for (double& v : x) v = dist(rng);
  return x;
}

void expect_near(std::span<const double> a, std::span<const double> b, double tol) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(a[i], b[i], tol) << "index " << i;
}

/// Bit-for-bit equality, like perfbench's memcmp oracle: an inf or NaN
/// cannot compare equal by accident, and -0.0 differs from 0.0.
void expect_bitwise(std::span<const double> a, std::span<const double> b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(std::memcmp(&a[i], &b[i], sizeof(double)), 0)
        << "index " << i << ": " << a[i] << " vs " << b[i];
}

struct RunnerCase {
  const char* matrix;
  double scale;
  core::Rank ranks;
  std::vector<int> vpt_dims;  // empty = direct / BL
  int iterations;
};

class DistributedSpmv : public ::testing::TestWithParam<RunnerCase> {};

TEST_P(DistributedSpmv, MatchesSerialReference) {
  const auto& param = GetParam();
  const sparse::MatrixSpec spec =
      sparse::scaled_spec(sparse::find_paper_matrix(param.matrix), param.scale, 128);
  const sparse::Csr a = sparse::generate(spec, 31);
  partition::PartitionOptions opts;
  opts.num_parts = param.ranks;
  const auto parts = partition::partition_rows(a, opts);
  const SpmvProblem problem(a, parts, param.ranks);

  const core::Vpt vpt = param.vpt_dims.empty() ? core::Vpt::direct(param.ranks)
                                               : core::Vpt(param.vpt_dims);
  runtime::Cluster cluster(param.ranks);
  const auto x0 = random_vector(static_cast<std::size_t>(a.num_rows()), 77);
  const auto distributed = run_distributed(cluster, problem, vpt, x0, param.iterations);
  const auto serial = run_serial(a, x0, param.iterations);
  // The local CSR keeps each row's column order and the row kernel sums in
  // Csr::spmv's order, so the interior/boundary split is exact.
  expect_bitwise(distributed, serial);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DistributedSpmv,
    ::testing::Values(RunnerCase{"cbuckle", 0.05, 4, {}, 1},
                      RunnerCase{"cbuckle", 0.05, 4, {2, 2}, 1},
                      RunnerCase{"sparsine", 0.02, 8, {2, 2, 2}, 1},
                      RunnerCase{"sparsine", 0.02, 8, {8}, 2},
                      RunnerCase{"GaAsH6", 0.01, 16, {4, 4}, 1},
                      RunnerCase{"GaAsH6", 0.01, 16, {2, 2, 2, 2}, 3},
                      RunnerCase{"gupta2", 0.01, 16, {4, 2, 2}, 2},
                      RunnerCase{"coAuthorsDBLP", 0.005, 32, {2, 4, 4}, 1}));

TEST(DistributedSpmvEdge, SingleRankMatchesSerial) {
  const sparse::Csr a = sparse::stencil_2d(8, 8);
  const std::vector<std::int32_t> parts(static_cast<std::size_t>(a.num_rows()), 0);
  const SpmvProblem problem(a, parts, 1);
  runtime::Cluster cluster(1);
  const auto x0 = random_vector(static_cast<std::size_t>(a.num_rows()), 1);
  expect_near(run_distributed(cluster, problem, core::Vpt::direct(1), x0),
              run_serial(a, x0), 1e-12);
}

TEST(DistributedSpmvEdge, EmptyRanksParticipate) {
  // More ranks than busy parts: some ranks own nothing but still take part
  // in every stage of the exchange.
  const sparse::Csr a = sparse::stencil_2d(4, 4);  // 16 rows
  std::vector<std::int32_t> parts(16, 0);
  for (int i = 0; i < 16; ++i) parts[static_cast<std::size_t>(i)] = i % 3;  // ranks 3..7 empty
  const SpmvProblem problem(a, parts, 8);
  runtime::Cluster cluster(8);
  const auto x0 = random_vector(16, 2);
  expect_near(run_distributed(cluster, problem, core::Vpt({2, 2, 2}), x0),
              run_serial(a, x0), 1e-12);
}

TEST(DistributedSpmvEdge, ResultsIdenticalAcrossVpts) {
  // Different VPTs reorganize the communication but the numeric result is
  // bit-identical (same owner, same local kernel, same operand order).
  const sparse::Csr a = sparse::generate(
      sparse::scaled_spec(sparse::find_paper_matrix("pattern1"), 0.05, 128), 13);
  partition::PartitionOptions opts;
  opts.num_parts = 16;
  const auto parts = partition::partition_rows(a, opts);
  const SpmvProblem problem(a, parts, 16);
  runtime::Cluster cluster(16);
  const auto x0 = random_vector(static_cast<std::size_t>(a.num_rows()), 5);

  const auto bl = run_distributed(cluster, problem, core::Vpt::direct(16), x0, 2);
  for (const core::Vpt& vpt : {core::Vpt({4, 4}), core::Vpt({2, 2, 2, 2}), core::Vpt({2, 8})}) {
    const auto stfw = run_distributed(cluster, problem, vpt, x0, 2);
    ASSERT_EQ(stfw.size(), bl.size());
    for (std::size_t i = 0; i < bl.size(); ++i)
      EXPECT_DOUBLE_EQ(stfw[i], bl[i]) << vpt.to_string() << " index " << i;
  }
}

struct SpmmCase {
  std::int32_t num_vectors;
  std::vector<int> vpt_dims;
  int iterations;
};

class DistributedSpmm : public ::testing::TestWithParam<SpmmCase> {};

TEST_P(DistributedSpmm, MatchesSerialReference) {
  const auto& param = GetParam();
  const sparse::Csr a = sparse::generate(
      sparse::scaled_spec(sparse::find_paper_matrix("msc10848"), 0.05, 128), 41);
  constexpr core::Rank K = 8;
  partition::PartitionOptions opts;
  opts.num_parts = K;
  const auto parts = partition::partition_rows(a, opts);
  const SpmvProblem problem(a, parts, K);

  const core::Vpt vpt = param.vpt_dims.empty() ? core::Vpt::direct(K)
                                               : core::Vpt(param.vpt_dims);
  runtime::Cluster cluster(K);
  const auto x0 = random_vector(
      static_cast<std::size_t>(a.num_rows()) * static_cast<std::size_t>(param.num_vectors), 3);
  const auto distributed =
      run_distributed_spmm(cluster, problem, vpt, x0, param.num_vectors, param.iterations);
  const auto serial = run_serial_spmm(a, x0, param.num_vectors, param.iterations);
  expect_bitwise(distributed, serial);
}

INSTANTIATE_TEST_SUITE_P(Sweep, DistributedSpmm,
                         ::testing::Values(SpmmCase{1, {}, 1}, SpmmCase{4, {}, 1},
                                           SpmmCase{4, {2, 2, 2}, 1},
                                           SpmmCase{8, {4, 2}, 2},
                                           SpmmCase{16, {2, 4}, 1},
                                           SpmmCase{3, {8}, 3}));

TEST(DistributedSpmmEdge, SingleVectorEqualsSpmv) {
  const sparse::Csr a = sparse::stencil_2d(6, 6);
  const std::vector<std::int32_t> parts = partition::cyclic_partition(a.num_rows(), 4);
  const SpmvProblem problem(a, parts, 4);
  runtime::Cluster cluster(4);
  const auto x0 = random_vector(static_cast<std::size_t>(a.num_rows()), 9);
  const auto spmm = run_distributed_spmm(cluster, problem, core::Vpt({2, 2}), x0, 1, 2);
  const auto spmv = run_distributed(cluster, problem, core::Vpt({2, 2}), x0, 2);
  expect_near(spmm, spmv, 0.0);
}

TEST(DistributedSpmvEdge, ValidatesArguments) {
  const sparse::Csr a = sparse::stencil_2d(4, 4);
  const std::vector<std::int32_t> parts(16, 0);
  const SpmvProblem with_plans(a, parts, 2);
  const SpmvProblem no_plans(a, parts, 2, false);
  runtime::Cluster cluster(2);
  const std::vector<double> x0(16, 1.0);
  EXPECT_THROW(run_distributed(cluster, no_plans, core::Vpt::direct(2), x0), core::Error);
  EXPECT_THROW(run_distributed(cluster, with_plans, core::Vpt::direct(2), x0, 0), core::Error);
  const std::vector<double> short_x(4, 1.0);
  EXPECT_THROW(run_distributed(cluster, with_plans, core::Vpt::direct(2), short_x), core::Error);
  runtime::Cluster wrong(4);
  EXPECT_THROW(run_distributed(wrong, with_plans, core::Vpt::direct(4), x0), core::Error);
}

}  // namespace
}  // namespace stfw::spmv
