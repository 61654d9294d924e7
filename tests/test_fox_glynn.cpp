#include "oracle/fox_glynn.h"

#include <cmath>

#include <gtest/gtest.h>

namespace {

using namespace midas::linalg;

double exact_poisson(double q, std::size_t k) {
  return std::exp(-q + static_cast<double>(k) * std::log(q) -
                  std::lgamma(static_cast<double>(k) + 1.0));
}

TEST(FoxGlynn, ZeroRateIsPointMass) {
  const auto w = poisson_window(0.0);
  EXPECT_EQ(w.left, 0u);
  EXPECT_EQ(w.right, 0u);
  EXPECT_DOUBLE_EQ(w.weight(0), 1.0);
  EXPECT_DOUBLE_EQ(w.weight(1), 0.0);
}

TEST(FoxGlynn, NegativeRateThrows) {
  EXPECT_THROW((void)poisson_window(-1.0), std::invalid_argument);
}

class FoxGlynnSweep : public ::testing::TestWithParam<double> {};

TEST_P(FoxGlynnSweep, WeightsSumToOne) {
  const auto w = poisson_window(GetParam());
  double sum = 0.0;
  for (double x : w.weights) sum += x;
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST_P(FoxGlynnSweep, MeanMatchesRate) {
  const double q = GetParam();
  const auto w = poisson_window(q);
  double mean = 0.0;
  for (std::size_t k = w.left; k <= w.right; ++k) {
    mean += static_cast<double>(k) * w.weight(k);
  }
  // Truncation shaves a tiny amount of tail mass; the mean moves by less
  // than ~1e-6 · q.
  EXPECT_NEAR(mean, q, std::max(1e-6 * q, 1e-9));
}

TEST_P(FoxGlynnSweep, MatchesExactPmfInWindow) {
  const double q = GetParam();
  if (q > 50.0) GTEST_SKIP() << "exact pmf check limited to small q";
  const auto w = poisson_window(q);
  for (std::size_t k = w.left; k <= w.right; ++k) {
    EXPECT_NEAR(w.weight(k), exact_poisson(q, k), 1e-9) << "k=" << k;
  }
}

TEST_P(FoxGlynnSweep, WindowCoversTheMode) {
  const double q = GetParam();
  const auto w = poisson_window(q);
  const auto mode = static_cast<std::size_t>(q);
  EXPECT_LE(w.left, mode);
  EXPECT_GE(w.right, mode);
}

INSTANTIATE_TEST_SUITE_P(Rates, FoxGlynnSweep,
                         ::testing::Values(0.001, 0.1, 1.0, 5.0, 20.0, 100.0,
                                           1000.0, 50000.0));

}  // namespace
