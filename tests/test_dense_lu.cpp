// The pivoting LU oracle (tests/oracle/dense_lu.*) on its own, and the
// production kernel it checks: spn::TransientStructure::substitute's
// pivot-free block elimination must be its answer bit for bit.
#include "oracle/dense_lu.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "spn/absorbing.h"
#include "spn/reachability.h"
#include "util/arena.h"

namespace {

using namespace midas::linalg;
namespace spn = midas::spn;

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
  // A separate output gives the in-place solve's bits.
  const std::vector<double> b{5.0, 10.0};
  std::vector<double> y(2);
  lu.view().solve_to(b, y);
  EXPECT_EQ(y, x);
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

TEST(DenseLu, FactorViewSingularThrows) {
  std::vector<double> storage{1.0, 2.0, 2.0, 4.0};
  std::vector<std::uint32_t> ipiv(2);
  LuFactorView view{storage, ipiv, 2};
  EXPECT_THROW(view.factor(), std::runtime_error);
}

/// k transient states, each with an edge to every other and one to the
/// absorbing state k: the transient chain is one dense k×k block.
spn::ReachabilityGraph complete_block(std::uint32_t k) {
  spn::ReachabilityGraph g;
  g.states.assign(k + 1, spn::Marking(1));
  g.edge_offsets.push_back(0);
  for (std::uint32_t i = 0; i <= k; ++i) {
    for (std::uint32_t j = 0; j <= k && i < k; ++j) {
      if (j != i) g.edges.push_back({i, j, 1.0, 0, 0.0, 1.0, 0.0});
    }
    g.edge_offsets.push_back(static_cast<std::uint32_t>(g.edges.size()));
  }
  return g;
}

TEST(DenseLu, KernelBlocksAreBitwiseThePivotingLu) {
  // Random CTMC blocks are column diagonally dominant, so partial
  // pivoting swaps nothing, and the kernel's pivot-free elimination
  // must give every lane the pivoting LU's factor + solve_to answer on
  // that lane's own block, bit for bit: k = 2..6, at one, three and
  // eight lanes (both compile-time counts and a runtime one), at shift
  // 0 and a θ-step shift, and as one shared group under factor reuse
  // (lane q's rates 2^q × lane 0's, so every normalised block
  // coincides).
  std::mt19937_64 rng(41);
  std::uniform_real_distribution<double> rate(0.1, 2.0);
  std::uniform_real_distribution<double> value(-1.0, 1.0);
  for (std::uint32_t k = 2; k <= 6; ++k) {
    const auto g = complete_block(k);
    const spn::TransientStructure t(g);
    ASSERT_EQ(t.components.size(), 1u);
    const auto& block = t.components[0];
    const std::size_t E = g.edges.size();
    for (const std::size_t lanes : {1u, 3u, 8u}) {
      for (const bool shared : {false, true}) {
        if (shared && lanes == 1) continue;  // a group needs two lanes
        for (const double shift : {0.0, 1.5}) {
          if (shared && shift != 0.0) continue;  // scaling needs shift 0
          std::vector<double> rates(E * lanes);
          for (std::size_t e = 0; e < E; ++e) {
            const double r0 = rate(rng);
            for (std::size_t p = 0; p < lanes; ++p) {
              rates[e * lanes + p] =
                  shared ? std::ldexp(r0, static_cast<int>(p)) : rate(rng);
            }
          }
          std::vector<double> x(k * lanes);
          for (auto& v : x) v = value(rng);
          const std::vector<double> b = x;
          midas::util::Arena arena;
          auto exit = arena.make_span<double>(k * lanes);
          t.exit_rates(rates, exit, lanes);
          auto scratch = t.make_scratch(lanes, arena, shared);
          t.substitute(rates, exit, shift, x, scratch);
          EXPECT_EQ(scratch.blocks_factored, shared ? 1u : lanes);
          EXPECT_EQ(scratch.blocks_reused, shared ? lanes - 1 : 0u);

          for (std::size_t p = 0; p < lanes; ++p) {
            const std::string tag =
                "k " + std::to_string(k) + ", " + std::to_string(lanes) +
                " lanes" + (shared ? " shared" : "") + ", shift " +
                std::to_string(shift) + ", lane " + std::to_string(p);
            // Lane p's block in the kernel's row order: shift + exit_j
            // on the diagonal, −r_ij at (row of j, row of i).
            std::vector<std::uint32_t> row_of(k);
            for (std::uint32_t r = 0; r < k; ++r) row_of[block[r]] = r;
            std::vector<double> m(k * k, 0.0), ref(k);
            for (std::uint32_t r = 0; r < k; ++r) {
              m[r * k + r] = exit[block[r] * lanes + p] + shift;
              ref[r] = b[block[r] * lanes + p];
            }
            for (std::size_t e = 0; e < E; ++e) {
              const auto& edge = g.edges[e];
              if (edge.dst == k) continue;
              m[row_of[edge.dst] * k + row_of[edge.src]] -=
                  rates[e * lanes + p];
            }
            std::vector<std::uint32_t> ipiv(k);
            LuFactorView lu{m, ipiv, k};
            lu.factor();
            lu.solve_to(ref, ref);
            for (std::uint32_t r = 0; r < k; ++r) {
              EXPECT_EQ(ipiv[r], r) << tag << ": the oracle pivoted";
              EXPECT_EQ(std::bit_cast<std::uint64_t>(x[block[r] * lanes + p]),
                        std::bit_cast<std::uint64_t>(ref[r]))
                  << tag << " row " << r << ": " << x[block[r] * lanes + p]
                  << " vs " << ref[r];
            }
          }
        }
      }
    }
  }
}

}  // namespace
