#include "linalg/dense_matrix.h"

#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

namespace {

using namespace midas::linalg;

/// A row-major n×n matrix factored in place by LuFactorView, with the
/// storage the view points into.
struct Factored {
  Factored(std::vector<double> a, std::size_t n)
      : lu(std::move(a)), ipiv(n) {
    view().factor();
  }
  LuFactorView view() { return {lu, ipiv, ipiv.size()}; }
  std::vector<double> solve(std::vector<double> b) {
    view().solve_to(b, b);
    return b;
  }

  std::vector<double> lu;
  std::vector<std::uint32_t> ipiv;
};

/// y = A·x for a row-major n×n A.
std::vector<double> multiply(const std::vector<double>& a,
                             const std::vector<double>& x) {
  const std::size_t n = x.size();
  std::vector<double> y(n, 0.0);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) y[r] += a[r * n + c] * x[c];
  }
  return y;
}

TEST(LuSolver, SolvesKnownSystem) {
  // 2x + y = 5; x + 3y = 10  →  x = 1, y = 3.
  Factored lu({2.0, 1.0, 1.0, 3.0}, 2);
  const auto x = lu.solve({5.0, 10.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(LuSolver, PivotingHandlesZeroLeadingEntry) {
  Factored lu({0.0, 1.0, 1.0, 0.0}, 2);
  const auto x = lu.solve({3.0, 7.0});
  EXPECT_NEAR(x[0], 7.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(LuSolver, SingularMatrixThrows) {
  EXPECT_THROW(Factored({1.0, 2.0, 2.0, 4.0}, 2), std::runtime_error);
}

TEST(LuSolver, SingularToRoundingThrows) {
  // Rows identical up to one ulp: elimination leaves the pivot 2^-52 —
  // tiny but nonzero, so the former absolute 1e-300 cutoff accepted it
  // and produced a garbage solution dominated by cancellation noise.
  // The norm-scaled threshold (n·ε·‖A‖∞) must reject it.
  EXPECT_THROW(Factored({3.0, 1.0, 3.0, 1.0 + std::ldexp(1.0, -52)}, 2),
               std::runtime_error);
}

TEST(LuSolver, StiffButWellPosedDiagonalSolves) {
  // Rates spanning 14 orders of magnitude (the CTMC blocks' stiffness
  // regime) are ill-conditioned but representable exactly; the scaled
  // threshold must NOT flag them.
  Factored lu({1e8, 0.0, 0.0, 1e-6}, 2);
  const auto x = lu.solve({1e8, 2e-6});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

/// A random diagonally dominant (hence nonsingular) row-major n×n matrix.
std::vector<double> random_dd(std::size_t n, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> uni(-1.0, 1.0);
  std::vector<double> a(n * n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) a[r * n + c] = uni(rng);
    a[r * n + r] += static_cast<double>(n);
  }
  return a;
}

std::vector<double> random_dd(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  return random_dd(n, rng);
}

class LuRandomSystems : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LuRandomSystems, ResidualIsTiny) {
  const std::size_t n = GetParam();
  std::mt19937_64 rng(n * 7919);
  std::uniform_real_distribution<double> uni(-1.0, 1.0);

  const auto a = random_dd(n, rng);
  std::vector<double> x_true(n);
  for (auto& v : x_true) v = uni(rng);
  const auto b = multiply(a, x_true);

  Factored lu(a, n);
  const auto x = lu.solve(b);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(x[i], x_true[i], 1e-9) << "i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuRandomSystems,
                         ::testing::Values(1, 2, 3, 5, 10, 25, 60));

TEST(LuSolver, SolveManyColumnsAreBitwiseRepeatedSolves) {
  // Component-major B[r*k + j]: column j of the multi-RHS solve must be
  // bitwise what a standalone solve_to of that column produces — the
  // batched solver's factor-reuse path depends on this for grouping
  // independence.
  const std::size_t n = 5, k = 4;
  Factored lu(random_dd(n, 23), n);
  std::vector<std::vector<double>> cols(k, std::vector<double>(n));
  std::vector<double> B(n * k);
  for (std::size_t j = 0; j < k; ++j) {
    for (std::size_t r = 0; r < n; ++r) {
      cols[j][r] = std::sin(double(j + 1) * double(r + 2));
      B[r * k + j] = cols[j][r];
    }
  }
  lu.view().solve_many(B, k);
  for (std::size_t j = 0; j < k; ++j) {
    const auto ref = lu.solve(cols[j]);
    for (std::size_t r = 0; r < n; ++r) {
      EXPECT_EQ(B[r * k + j], ref[r]) << "col " << j << " row " << r;
    }
  }
}

TEST(LuSolver, SolveManySingleRhsIsBitwiseSolveTo) {
  const std::size_t n = 7;
  Factored lu(random_dd(n, 29), n);
  std::vector<double> b(n);
  for (std::size_t r = 0; r < n; ++r) b[r] = double(r) - 2.5;
  std::vector<double> x(n);
  lu.view().solve_to(b, x);
  std::vector<double> B = b;
  lu.view().solve_many(B, 1);
  for (std::size_t r = 0; r < n; ++r) EXPECT_EQ(B[r], x[r]) << r;
  // Aliased b/x is allowed and gives the same bits.
  std::vector<double> inplace = b;
  lu.view().solve_to(inplace, inplace);
  for (std::size_t r = 0; r < n; ++r) EXPECT_EQ(inplace[r], x[r]) << r;
}

TEST(DenseLu, PointMajorIsBitwiseFactorView) {
  // P systems factored and solved together, point-major, must give each
  // system's LuFactorView factor + solve_to answer bit for bit, pivots
  // included: the entries are not diagonally dominant, so the systems
  // choose different pivot rows.
  const std::size_t n = 4, P = 5;
  std::mt19937_64 rng(37);
  std::uniform_real_distribution<double> uni(-1.0, 1.0);
  std::vector<double> a(n * n * P), b(n * P);
  for (auto& v : a) v = uni(rng);
  for (auto& v : b) v = uni(rng);
  std::vector<double> lu = a, x = b, lane(3 * P);
  std::vector<std::uint32_t> lane_piv(n * P);
  lu_solve_point_major(lu, x, n, P, lane, lane_piv);

  bool pivoted = false;
  for (std::size_t p = 0; p < P; ++p) {
    std::vector<double> m(n * n), ref(n);
    for (std::size_t rc = 0; rc < n * n; ++rc) m[rc] = a[rc * P + p];
    for (std::size_t r = 0; r < n; ++r) ref[r] = b[r * P + p];
    std::vector<std::uint32_t> ipiv(n);
    LuFactorView view{m, ipiv, n};
    view.factor();
    view.solve_to(ref, ref);
    for (std::size_t k = 0; k < n; ++k) pivoted = pivoted || ipiv[k] != k;
    for (std::size_t rc = 0; rc < n * n; ++rc) {
      EXPECT_EQ(lu[rc * P + p], m[rc]) << "system " << p << " entry " << rc;
    }
    for (std::size_t r = 0; r < n; ++r) {
      EXPECT_EQ(x[r * P + p], ref[r]) << "system " << p << " row " << r;
    }
  }
  EXPECT_TRUE(pivoted);
}

TEST(DenseLu, FactorViewSingularThrows) {
  std::vector<double> storage{1.0, 2.0, 2.0, 4.0};
  std::vector<std::uint32_t> ipiv(2);
  LuFactorView view{storage, ipiv, 2};
  EXPECT_THROW(view.factor(), std::runtime_error);
}

}  // namespace
