#include "core/vpt.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <vector>

#include "core/error.hpp"

namespace stfw::core {
namespace {

TEST(Vpt, DirectTopologyIsSingleDimension) {
  const Vpt t = Vpt::direct(8);
  EXPECT_EQ(t.dim(), 1);
  EXPECT_EQ(t.size(), 8);
  EXPECT_EQ(t.dim_size(0), 8);
  EXPECT_EQ(t.max_message_count_bound(), 7);
}

TEST(Vpt, HypercubeHasLogDimensions) {
  const Vpt t = Vpt::hypercube(64);
  EXPECT_EQ(t.dim(), 6);
  EXPECT_EQ(t.size(), 64);
  for (int d = 0; d < t.dim(); ++d) EXPECT_EQ(t.dim_size(d), 2);
  EXPECT_EQ(t.max_message_count_bound(), 6);
}

TEST(Vpt, ExplicitDimensions) {
  const Vpt t({4, 2, 8});
  EXPECT_EQ(t.size(), 64);
  EXPECT_EQ(t.dim(), 3);
  EXPECT_EQ(t.dim_size(0), 4);
  EXPECT_EQ(t.dim_size(1), 2);
  EXPECT_EQ(t.dim_size(2), 8);
  EXPECT_EQ(t.to_string(), "T_3(4,2,8)");
}

TEST(Vpt, RejectsBadDimensions) {
  EXPECT_THROW(Vpt({}), Error);
  EXPECT_THROW(Vpt({4, 1}), Error);   // k_d >= 2 for n > 1
  EXPECT_THROW(Vpt({0}), Error);
  EXPECT_NO_THROW(Vpt({1}));          // T_1(1) is a degenerate but legal VPT
}

TEST(Vpt, CoordinateRoundTrip) {
  const Vpt t({4, 4, 4});
  for (Rank r = 0; r < t.size(); ++r) {
    const auto c = t.coords_of(r);
    EXPECT_EQ(t.rank_of(c), r);
    for (int d = 0; d < t.dim(); ++d) EXPECT_EQ(c[static_cast<std::size_t>(d)], t.coord(r, d));
  }
}

TEST(Vpt, PaperFigure2Neighborhoods) {
  // T_3(4,4,4): the paper's Figure 2. Its example uses 1-based coordinates
  // (P^3, P^2, P^1) = (3,2,3); ours are 0-based with digit 0 first:
  // (P^1-1, P^2-1, P^3-1) = (2,1,2).
  const Vpt t({4, 4, 4});
  const int pi_coords[3] = {2, 1, 2};
  const Rank pi = t.rank_of(pi_coords);
  // (3,2,1) differs in the third dimension (our digit 2).
  const int pk_coords[3] = {2, 1, 0};
  // (1,2,3) differs in the first dimension (our digit 0).
  const int pl_coords[3] = {0, 1, 2};
  // (3,4,3) differs in the second dimension (our digit 1).
  const int pm_coords[3] = {2, 3, 2};
  const Rank pk = t.rank_of(pk_coords);
  const Rank pl = t.rank_of(pl_coords);
  const Rank pm = t.rank_of(pm_coords);

  auto in_dim = [&](Rank a, Rank b, int d) {
    const auto nb = t.neighbors(a, d);
    return std::find(nb.begin(), nb.end(), b) != nb.end();
  };
  EXPECT_TRUE(in_dim(pi, pk, 2));
  EXPECT_TRUE(in_dim(pi, pl, 0));
  EXPECT_TRUE(in_dim(pi, pm, 1));
  EXPECT_FALSE(in_dim(pi, pk, 0));
  EXPECT_FALSE(in_dim(pi, pk, 1));
}

TEST(Vpt, NeighborsAreCompleteGroups) {
  const Vpt t({4, 2, 8});
  for (Rank r = 0; r < t.size(); ++r) {
    for (int d = 0; d < t.dim(); ++d) {
      const auto nb = t.neighbors(r, d);
      ASSERT_EQ(static_cast<int>(nb.size()), t.dim_size(d) - 1);
      for (Rank n : nb) {
        EXPECT_NE(n, r);
        EXPECT_EQ(t.hamming(r, n), 1);
        EXPECT_EQ(t.first_diff_dim(r, n), d);
        // Symmetry: r is also n's neighbor in dimension d.
        const auto back = t.neighbors(n, d);
        EXPECT_NE(std::find(back.begin(), back.end(), r), back.end());
      }
    }
  }
}

TEST(Vpt, WithCoordReplacesOneDigit) {
  const Vpt t({4, 4, 4});
  const Rank r = 37;
  for (int d = 0; d < 3; ++d)
    for (int v = 0; v < 4; ++v) {
      const Rank s = t.with_coord(r, d, v);
      EXPECT_EQ(t.coord(s, d), v);
      for (int c = 0; c < 3; ++c) {
        if (c != d) {
          EXPECT_EQ(t.coord(s, c), t.coord(r, c));
        }
      }
    }
}

TEST(Vpt, HammingMatchesCoordDifferences) {
  const Vpt t({2, 4, 2, 4});
  for (Rank a = 0; a < t.size(); a += 7)
    for (Rank b = 0; b < t.size(); b += 5) {
      int expected = 0;
      for (int d = 0; d < t.dim(); ++d) expected += t.coord(a, d) != t.coord(b, d);
      EXPECT_EQ(t.hamming(a, b), expected);
    }
}

TEST(Vpt, FirstDiffDimAfter) {
  const Vpt t({4, 4, 4});
  const int a_coords[3] = {1, 2, 3};
  const int b_coords[3] = {1, 0, 2};
  const Rank a = t.rank_of(a_coords);
  const Rank b = t.rank_of(b_coords);
  EXPECT_EQ(t.first_diff_dim(a, b), 1);
  EXPECT_EQ(t.first_diff_dim_after(a, b, 1), 2);
  EXPECT_EQ(t.first_diff_dim_after(a, b, 2), -1);
  EXPECT_EQ(t.first_diff_dim(a, a), -1);
}

// --- Section 5 balanced scheme -------------------------------------------

struct BalancedCase {
  core::Rank K;
  int n;
};

class VptBalanced : public ::testing::TestWithParam<BalancedCase> {};

TEST_P(VptBalanced, MatchesSection5Scheme) {
  const auto [K, n] = GetParam();
  const Vpt t = Vpt::balanced(K, n);
  EXPECT_EQ(t.size(), K);
  EXPECT_EQ(t.dim(), n);
  const int lg = floor_log2(K);
  const int q = lg / n;
  const int rem = lg % n;
  for (int d = 0; d < n; ++d)
    EXPECT_EQ(t.dim_size(d), 1 << (d < rem ? q + 1 : q)) << "dim " << d;
  // No two dimension sizes differ by more than a factor of 2.
  const auto [mn, mx] = std::minmax_element(t.dim_sizes().begin(), t.dim_sizes().end());
  EXPECT_LE(*mx, 2 * *mn);
}

TEST_P(VptBalanced, IsOptimalMaxMessageCountAmongFactorizations) {
  const auto [K, n] = GetParam();
  const Vpt t = Vpt::balanced(K, n);
  int best = t.max_message_count_bound();
  for (const auto& f : all_factorizations(K)) {
    if (static_cast<int>(f.size()) != n) continue;
    int bound = 0;
    for (int kd : f) bound += kd - 1;
    EXPECT_GE(bound, best) << "factorization beats the Section 5 scheme";
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, VptBalanced,
                         ::testing::Values(BalancedCase{16, 1}, BalancedCase{16, 2},
                                           BalancedCase{16, 3}, BalancedCase{16, 4},
                                           BalancedCase{64, 2}, BalancedCase{64, 3},
                                           BalancedCase{64, 5}, BalancedCase{64, 6},
                                           BalancedCase{256, 2}, BalancedCase{256, 3},
                                           BalancedCase{256, 5}, BalancedCase{256, 8},
                                           BalancedCase{512, 4}, BalancedCase{512, 9},
                                           BalancedCase{4096, 7}, BalancedCase{16384, 14}));

TEST(Vpt, BalancedRejectsBadArguments) {
  EXPECT_THROW(Vpt::balanced(100, 2), Error);  // not a power of two
  EXPECT_THROW(Vpt::balanced(64, 7), Error);   // n > lg2 K
  EXPECT_THROW(Vpt::balanced(64, 0), Error);
}

TEST(Vpt, AllFactorizationsOf16) {
  const auto fs = all_factorizations(16);
  // 16 = 16, 2*8, 4*4, 2*2*4, 2*2*2*2.
  EXPECT_EQ(fs.size(), 5u);
  for (const auto& f : fs) {
    Rank prod = 1;
    for (int k : f) prod *= k;
    EXPECT_EQ(prod, 16);
    EXPECT_TRUE(std::is_sorted(f.begin(), f.end()));
  }
}

TEST(Vpt, MaxMessageCountBoundSpectrum) {
  // The Section 4 spectrum: K-1 for n=1 down to lg2 K for the hypercube.
  const Rank K = 256;
  EXPECT_EQ(Vpt::direct(K).max_message_count_bound(), K - 1);
  EXPECT_EQ(Vpt::balanced(K, 2).max_message_count_bound(), 2 * (16 - 1));
  EXPECT_EQ(Vpt::hypercube(K).max_message_count_bound(), 8);
  int prev = Vpt::direct(K).max_message_count_bound();
  for (int n = 2; n <= 8; ++n) {
    const int bound = Vpt::balanced(K, n).max_message_count_bound();
    EXPECT_LT(bound, prev) << "bound must strictly shrink with dimension at K=256";
    prev = bound;
  }
}

TEST(Vpt, BalancedAnySupportsNonPowersOfTwo) {
  // The paper's "easily extended" claim, implemented.
  const Vpt t12 = Vpt::balanced_any(12, 2);
  EXPECT_EQ(t12.size(), 12);
  EXPECT_EQ(t12.dim(), 2);
  EXPECT_EQ(t12.dim_sizes(), (std::vector<int>{3, 4}));  // best 2-way split of 12

  const Vpt t360 = Vpt::balanced_any(360, 3);
  EXPECT_EQ(t360.size(), 360);
  EXPECT_EQ(t360.dim(), 3);
  // Greedy factor balancing gets within a factor of 2 across dimensions.
  const auto [mn, mx] = std::minmax_element(t360.dim_sizes().begin(), t360.dim_sizes().end());
  EXPECT_LE(*mx, 2 * *mn + 2);

  // Matches the power-of-two scheme's bound quality.
  EXPECT_EQ(Vpt::balanced_any(256, 4).max_message_count_bound(),
            Vpt::balanced(256, 4).max_message_count_bound());

  EXPECT_THROW(Vpt::balanced_any(6, 3), core::Error);   // only two prime factors
  EXPECT_THROW(Vpt::balanced_any(1, 1), core::Error);
  // Primes only admit n = 1.
  const Vpt t13 = Vpt::balanced_any(13, 1);
  EXPECT_EQ(t13.dim(), 1);
  EXPECT_THROW(Vpt::balanced_any(13, 2), core::Error);
}

TEST(Vpt, BalancedAnyIsNearOptimalAmongFactorizations) {
  for (Rank K : {Rank{12}, Rank{24}, Rank{60}, Rank{96}, Rank{100}}) {
    for (int n = 1; n <= 3; ++n) {
      Vpt candidate = Vpt::direct(2);
      try {
        candidate = Vpt::balanced_any(K, n);
      } catch (const Error&) {
        continue;  // not enough prime factors for this n
      }
      int best = candidate.max_message_count_bound();
      for (const auto& f : all_factorizations(K)) {
        if (static_cast<int>(f.size()) != n) continue;
        int bound = 0;
        for (int kd : f) bound += kd - 1;
        // Greedy is a heuristic; allow slack of one smallest factor.
        EXPECT_LE(best, bound + 2) << "K=" << K << " n=" << n;
      }
    }
  }
}

TEST(Vpt, NodeAwareTwoLevelTopology) {
  const Vpt t = Vpt::node_aware(128, 16);
  EXPECT_EQ(t.dim(), 2);
  EXPECT_EQ(t.dim_size(0), 16);
  EXPECT_EQ(t.dim_size(1), 8);
  EXPECT_EQ(t.max_message_count_bound(), 15 + 7);
  EXPECT_THROW(Vpt::node_aware(128, 3), Error);    // does not divide
  EXPECT_THROW(Vpt::node_aware(128, 128), Error);  // r must be < K
  EXPECT_THROW(Vpt::node_aware(128, 1), Error);
}

TEST(Vpt, EqualityComparesDimensionSizes) {
  EXPECT_EQ(Vpt({4, 4}), Vpt({4, 4}));
  EXPECT_FALSE(Vpt({4, 4}) == Vpt({2, 8}));
}

// ---------------------------------------------------------------------------
// route_hops

TEST(RouteHops, SelfRouteIsEmpty) {
  const Vpt vpt({2, 2, 2});
  for (Rank r = 0; r < vpt.size(); ++r) EXPECT_TRUE(route_hops(vpt, r, r).empty());
}

TEST(RouteHops, FollowsAscendingDimensionOrder) {
  for (const Vpt& vpt : {Vpt({4, 2}), Vpt({2, 2, 2}), Vpt({3, 3}), Vpt({4, 2, 2})}) {
    for (Rank src = 0; src < vpt.size(); ++src)
      for (Rank dst = 0; dst < vpt.size(); ++dst) {
        const auto hops = route_hops(vpt, src, dst);
        ASSERT_EQ(static_cast<int>(hops.size()), vpt.hamming(src, dst))
            << vpt.to_string() << " " << src << "->" << dst;
        Rank cur = src;
        int last_dim = -1;
        for (const Rank hop : hops) {
          const int d = vpt.first_diff_dim(cur, hop);
          ASSERT_NE(d, -1);
          EXPECT_GT(d, last_dim) << "route must fix dimensions in ascending order";
          EXPECT_EQ(vpt.first_diff_dim_after(cur, hop, d), -1)
              << "each hop must change exactly one coordinate";
          EXPECT_EQ(vpt.coord(hop, d), vpt.coord(dst, d))
              << "each hop must land on the destination's digit";
          last_dim = d;
          cur = hop;
        }
        if (src != dst) {
          EXPECT_EQ(hops.back(), dst);
        }
      }
  }
}

}  // namespace
}  // namespace stfw::core
