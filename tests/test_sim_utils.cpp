#include <algorithm>
#include <atomic>
#include <cmath>
#include <random>
#include <set>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "sim/rng.h"
#include "sim/stats.h"
#include "sim/thread_pool.h"

namespace {

using namespace midas::sim;

TEST(Rng, SplitMixIsDeterministicAndDispersive) {
  EXPECT_EQ(splitmix64(1), splitmix64(1));
  EXPECT_NE(splitmix64(1), splitmix64(2));
  // Derived seeds must differ across indices and base seeds.
  std::set<std::uint64_t> seeds;
  for (std::uint64_t base : {1ull, 2ull, 999ull}) {
    for (std::uint64_t i = 0; i < 100; ++i) {
      seeds.insert(derive_seed(base, i));
    }
  }
  EXPECT_EQ(seeds.size(), 300u);
}

TEST(Rng, StreamsReproduce) {
  auto a = make_stream(7, 3);
  auto b = make_stream(7, 3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, PlainUniformStreamIsTheMt19937UniformSequence) {
  // Seed-addressed replications stay bitwise stable only while a plain
  // UniformStream draws exactly std::uniform_real_distribution<double>
  // over std::mt19937_64(seed); the antithetic stream flips each draw.
  const std::uint64_t seed = 0xBEEF;
  UniformStream plain(seed);
  UniformStream flipped(seed, true);
  std::mt19937_64 reference_rng(seed);
  std::uniform_real_distribution<double> reference(0.0, 1.0);
  for (int i = 0; i < 5000; ++i) {
    const double u = reference(reference_rng);
    EXPECT_EQ(plain(), u) << i;
    EXPECT_EQ(flipped(), std::min(1.0 - u, std::nextafter(1.0, 0.0))) << i;
  }
}

TEST(Rng, DeriveSeedNoCollisionsOverLargeIndexRange) {
  // A million-replication experiment must not reuse a seed, nor collide
  // with a sibling experiment's stream.
  std::vector<std::uint64_t> seeds;
  const std::uint64_t per_base = 1u << 19;  // 524288 indices per base
  seeds.reserve(2 * per_base);
  for (std::uint64_t base : {0xFACADEull, 0xFACADFull}) {
    for (std::uint64_t i = 0; i < per_base; ++i) {
      seeds.push_back(derive_seed(base, i));
    }
  }
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end());
}

TEST(Rng, DeriveSeed2StreamsAreDisjoint) {
  // (stream, index) pairs across a sweep grid: 64 points x 16384
  // replications, all distinct.
  std::vector<std::uint64_t> seeds;
  seeds.reserve(64u * 16384u);
  for (std::uint64_t stream = 0; stream < 64; ++stream) {
    for (std::uint64_t i = 0; i < 16384; ++i) {
      seeds.push_back(derive_seed2(0x5EED, stream, i));
    }
  }
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end());
  // Reproducible and sensitive to every key component.
  EXPECT_EQ(derive_seed2(1, 2, 3), derive_seed2(1, 2, 3));
  EXPECT_NE(derive_seed2(1, 2, 3), derive_seed2(2, 2, 3));
  EXPECT_NE(derive_seed2(1, 2, 3), derive_seed2(1, 3, 3));
  EXPECT_NE(derive_seed2(1, 2, 3), derive_seed2(1, 2, 4));
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  const std::size_t n = 10000;
  std::vector<std::atomic<int>> hits(n);
  parallel_for(n, [&](std::size_t i) { hits[i].fetch_add(1); }, 4);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ThreadPool, ZeroTasksIsANoop) {
  parallel_for(0, [](std::size_t) { FAIL() << "must not be called"; }, 4);
}

TEST(ThreadPool, SingleThreadFallbackWorks) {
  int count = 0;
  parallel_for(5, [&](std::size_t) { ++count; }, 1);
  EXPECT_EQ(count, 5);
}

TEST(ThreadPool, PropagatesTaskExceptions) {
  EXPECT_THROW(
      parallel_for(
          100,
          [](std::size_t i) {
            if (i == 37) throw std::runtime_error("boom");
          },
          4),
      std::runtime_error);
}

TEST(Stats, KnownSampleSummary) {
  const std::vector<double> sample{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  const auto s = summarize(sample);
  EXPECT_EQ(s.n, 8u);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_NEAR(s.variance, 32.0 / 7.0, 1e-12);  // unbiased
  EXPECT_GT(s.ci_half_width, 0.0);
  EXPECT_TRUE(s.contains(5.0));
}

TEST(Stats, EmptyAndSingletonSamples) {
  EXPECT_EQ(summarize({}).n, 0u);
  const std::vector<double> one{3.0};
  const auto s = summarize(one);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_TRUE(std::isinf(s.ci_half_width));
}

TEST(Stats, DegenerateCiIsInfiniteNotZero) {
  // Regression: n < 2 used to report a zero-width CI, so contains()
  // held only when the target hit a single replication's value exactly —
  // a shard evaluating one replication would vacuously pass or fail its
  // validation gate.  An n < 2 summary now carries an INFINITE
  // half-width: it cannot reject anything, and has_ci() flags it.
  const auto empty = summarize({});
  EXPECT_TRUE(std::isinf(empty.ci_half_width));
  EXPECT_FALSE(empty.has_ci());
  EXPECT_TRUE(empty.contains(12345.0));

  const std::vector<double> one{3.0};
  const auto single = summarize(one);
  EXPECT_FALSE(single.has_ci());
  EXPECT_TRUE(single.contains(3.0));
  EXPECT_TRUE(single.contains(-1e18));  // no vacuous rejection

  Welford w;
  w.push(7.0);
  EXPECT_TRUE(std::isinf(w.summary().ci_half_width));
  EXPECT_TRUE(w.summary().contains(0.0));
  w.push(9.0);
  EXPECT_TRUE(w.summary().has_ci());  // two samples: finite again

  EXPECT_TRUE(std::isinf(binomial_summary(0, 0).ci_half_width));
  const auto real = summarize(std::vector<double>{1.0, 2.0, 3.0});
  EXPECT_TRUE(real.has_ci());
  EXPECT_FALSE(real.contains(100.0));  // finite CIs still reject
}

TEST(Stats, WelfordStateRoundTripsAndMerges) {
  std::mt19937_64 rng(17);
  std::normal_distribution<double> dist(2.0, 1.5);
  Welford a, b;
  for (int i = 0; i < 257; ++i) a.push(dist(rng));
  for (int i = 0; i < 63; ++i) b.push(dist(rng));

  // Export → import is an exact copy (bitwise — the shard files rely
  // on this to reproduce summaries across processes).
  const auto round = Welford::from_state(a.state());
  EXPECT_EQ(round.count(), a.count());
  EXPECT_EQ(round.mean(), a.mean());
  EXPECT_EQ(round.summary().ci_half_width, a.summary().ci_half_width);

  // Merging imported states equals merging the live accumulators.
  Welford live = a;
  live.merge(b);
  Welford imported = Welford::from_state(a.state());
  imported.merge(Welford::from_state(b.state()));
  EXPECT_EQ(imported.count(), live.count());
  EXPECT_EQ(imported.mean(), live.mean());
  EXPECT_EQ(imported.variance(), live.variance());

  EXPECT_THROW((void)Welford::from_state({3, 1.0, -0.5}),
               std::invalid_argument);
  EXPECT_THROW((void)Welford::from_state({0, 1.0, 0.0}),
               std::invalid_argument);
}

TEST(Stats, TQuantilesDecreaseTowardNormal) {
  EXPECT_NEAR(t_quantile_95(1), 12.706, 1e-9);
  EXPECT_NEAR(t_quantile_95(10), 2.228, 1e-9);
  EXPECT_NEAR(t_quantile_95(30), 2.042, 1e-9);
  EXPECT_NEAR(t_quantile_95(1000), 1.96, 1e-9);
  double prev = t_quantile_95(1);
  for (std::size_t df : {2u, 5u, 10u, 30u, 60u, 120u, 500u}) {
    const double t = t_quantile_95(df);
    EXPECT_LT(t, prev) << "df=" << df;
    prev = t;
  }
}

TEST(Stats, WelfordMatchesTwoPassSummarize) {
  std::mt19937_64 rng(11);
  std::lognormal_distribution<double> dist(1.0, 0.75);
  std::vector<double> sample;
  Welford w;
  for (int i = 0; i < 500; ++i) {
    const double x = dist(rng);
    sample.push_back(x);
    w.push(x);
  }
  const auto two_pass = summarize(sample);
  EXPECT_EQ(w.count(), two_pass.n);
  EXPECT_NEAR(w.mean(), two_pass.mean, 1e-12 * two_pass.mean);
  EXPECT_NEAR(w.variance(), two_pass.variance, 1e-9 * two_pass.variance);
  EXPECT_NEAR(w.summary().ci_half_width, two_pass.ci_half_width,
              1e-9 * two_pass.ci_half_width);
}

TEST(Stats, WelfordMergeEqualsSequentialPush) {
  std::mt19937_64 rng(13);
  std::normal_distribution<double> dist(5.0, 2.0);
  Welford whole, left, right, empty;
  for (int i = 0; i < 333; ++i) {
    const double x = dist(rng);
    whole.push(x);
    (i < 100 ? left : right).push(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-10);
  // Merging an empty accumulator (either side) is the identity.
  left.merge(empty);
  EXPECT_EQ(left.count(), 333u);
  empty.merge(left);
  EXPECT_EQ(empty.count(), 333u);
  EXPECT_DOUBLE_EQ(empty.mean(), left.mean());
}

TEST(Stats, WelfordEdgeCases) {
  Welford w;
  EXPECT_EQ(w.count(), 0u);
  EXPECT_DOUBLE_EQ(w.variance(), 0.0);
  EXPECT_EQ(w.summary().n, 0u);
  w.push(3.0);
  EXPECT_DOUBLE_EQ(w.mean(), 3.0);
  EXPECT_TRUE(std::isinf(w.summary().ci_half_width));
}

TEST(Stats, BinomialSummaryWilsonInterval) {
  // Degenerate proportions still carry real uncertainty: 400/400
  // successes is NOT a zero-width CI (Wilson lower bound ~0.990).
  const auto all = binomial_summary(400, 400);
  EXPECT_DOUBLE_EQ(all.mean, 1.0);
  EXPECT_GT(all.ci_half_width, 0.0);
  EXPECT_TRUE(all.contains(0.995));
  EXPECT_FALSE(all.contains(0.98));

  const auto none = binomial_summary(400, 0);
  EXPECT_DOUBLE_EQ(none.mean, 0.0);
  EXPECT_GT(none.ci_half_width, 0.0);

  // Mid-range agrees with the normal approximation to a few percent.
  const auto half = binomial_summary(100, 50);
  EXPECT_DOUBLE_EQ(half.mean, 0.5);
  EXPECT_NEAR(half.ci_half_width, 1.96 * 0.05, 0.01);

  EXPECT_EQ(binomial_summary(0, 0).n, 0u);
  EXPECT_FALSE(binomial_summary(0, 0).has_ci());
}

TEST(Stats, CiNarrowsWithSampleSize) {
  std::mt19937_64 rng(5);
  std::normal_distribution<double> normal(10.0, 2.0);
  std::vector<double> small, large;
  for (int i = 0; i < 20; ++i) small.push_back(normal(rng));
  for (int i = 0; i < 2000; ++i) large.push_back(normal(rng));
  EXPECT_LT(summarize(large).ci_half_width,
            summarize(small).ci_half_width);
  EXPECT_TRUE(summarize(large).contains(10.0));
}

}  // namespace
