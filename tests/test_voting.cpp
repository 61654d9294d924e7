// Voting-IDS error model (paper Eq. 1): the closed-form hypergeometric ×
// binomial evaluation is validated against exhaustive enumeration, and
// the qualitative properties the paper's analysis relies on are pinned
// down as invariants.
#include "ids/voting.h"

#include <cstring>
#include <optional>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

namespace {

using namespace midas::ids;

TEST(Voting, NoVotersMeansNoEvictionPossible) {
  const VotingParams p{5, 0.01, 0.01};
  // Lone good node: nobody can vote against it.
  const auto lone_good = voting_error_rates(p, 1, 0);
  EXPECT_DOUBLE_EQ(lone_good.pfp, 0.0);
  // Lone bad node: nobody can vote it out → guaranteed false negative.
  const auto lone_bad = voting_error_rates(p, 0, 1);
  EXPECT_DOUBLE_EQ(lone_bad.pfn, 1.0);
}

TEST(Voting, PerfectDetectorsNoCollusion) {
  // p1 = p2 = 0 and no compromised voters: voting never errs.
  const VotingParams p{5, 0.0, 0.0};
  const auto r = voting_error_rates(p, 50, 0);
  EXPECT_DOUBLE_EQ(r.pfp, 0.0);

  const auto r2 = voting_error_rates(p, 50, 1);  // one bad target
  EXPECT_DOUBLE_EQ(r2.pfn, 0.0);
}

TEST(Voting, BadMajorityPoolDefeatsVoting) {
  // Almost all voters compromised: they always acquit bad targets and
  // convict good ones.
  const VotingParams p{5, 0.0, 0.0};
  const auto r = voting_error_rates(p, 2, 40);
  EXPECT_GT(r.pfp, 0.8);
  EXPECT_GT(r.pfn, 0.8);
}

TEST(Voting, InvalidParametersThrow) {
  EXPECT_THROW((void)voting_error_rates({0, 0.1, 0.1}, 5, 5),
               std::invalid_argument);
  EXPECT_THROW((void)voting_error_rates({5, -0.1, 0.1}, 5, 5),
               std::invalid_argument);
  EXPECT_THROW((void)voting_error_rates({5, 0.1, 1.1}, 5, 5),
               std::invalid_argument);
  EXPECT_THROW((void)voting_error_rates({5, 0.1, 0.1}, -1, 5),
               std::invalid_argument);
}

// ---- Closed form vs exhaustive enumeration --------------------------

using BruteCase = std::tuple<int, int, int, double, double>;  // m, good, bad

class VotingBruteForce : public ::testing::TestWithParam<BruteCase> {};

TEST_P(VotingBruteForce, ClosedFormMatchesEnumeration) {
  const auto [m, good, bad, p1, p2] = GetParam();
  const VotingParams params{m, p1, p2};
  const auto exact = voting_error_rates(params, good, bad);
  const auto brute = voting_error_rates_bruteforce(params, good, bad);
  EXPECT_NEAR(exact.pfp, brute.pfp, 1e-10)
      << "m=" << m << " good=" << good << " bad=" << bad;
  EXPECT_NEAR(exact.pfn, brute.pfn, 1e-10)
      << "m=" << m << " good=" << good << " bad=" << bad;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, VotingBruteForce,
    ::testing::Values(
        BruteCase{1, 3, 1, 0.01, 0.01}, BruteCase{3, 4, 2, 0.01, 0.01},
        BruteCase{3, 2, 3, 0.05, 0.02}, BruteCase{5, 6, 2, 0.01, 0.01},
        BruteCase{5, 3, 3, 0.10, 0.10}, BruteCase{5, 8, 0, 0.01, 0.01},
        BruteCase{7, 8, 3, 0.02, 0.03}, BruteCase{7, 4, 4, 0.25, 0.25},
        BruteCase{9, 9, 2, 0.01, 0.01}, BruteCase{4, 5, 2, 0.01, 0.01},
        BruteCase{2, 3, 2, 0.50, 0.50}, BruteCase{5, 12, 1, 0.0, 0.0},
        BruteCase{3, 1, 2, 0.01, 0.01}, BruteCase{9, 5, 5, 0.05, 0.02}));

// ---- Paper-level qualitative properties ------------------------------

TEST(Voting, LargerQuorumSuppressesFalsePositives) {
  // Paper Fig. 2 discussion: "when m is large, the false alarm
  // probability is small."  With a clean voter pool, Pfp must fall
  // monotonically as m grows.
  double prev = 1.0;
  for (const int m : {1, 3, 5, 7, 9}) {
    const auto r = voting_error_rates({m, 0.01, 0.01}, 50, 0);
    EXPECT_LT(r.pfp, prev) << "m=" << m;
    prev = r.pfp;
  }
}

TEST(Voting, LargerQuorumSuppressesFalseNegatives) {
  double prev = 1.0;
  for (const int m : {1, 3, 5, 7, 9}) {
    const auto r = voting_error_rates({m, 0.01, 0.01}, 50, 1);
    EXPECT_LT(r.pfn, prev) << "m=" << m;
    prev = r.pfn;
  }
}

TEST(Voting, CollusionRaisesBothErrorRates) {
  // Paper §4.1: compromised voters cast fake votes; both error modes
  // must increase with the number of compromised nodes in the pool.
  const VotingParams p{5, 0.01, 0.01};
  double prev_pfp = -1.0, prev_pfn = -1.0;
  for (const int bad : {0, 2, 4, 8, 16}) {
    const auto r = voting_error_rates(p, 30, bad);
    EXPECT_GT(r.pfp, prev_pfp) << "bad=" << bad;
    if (bad > 0) {
      EXPECT_GT(r.pfn, prev_pfn) << "bad=" << bad;
    }
    prev_pfp = r.pfp;
    prev_pfn = r.pfn;
  }
}

TEST(Voting, WorseHostIdsRaisesErrors) {
  for (const double perr : {0.01, 0.05, 0.10, 0.20}) {
    const auto weak = voting_error_rates({5, perr, perr}, 40, 2);
    const auto strong = voting_error_rates({5, perr / 2, perr / 2}, 40, 2);
    EXPECT_GT(weak.pfp, strong.pfp) << "perr=" << perr;
    EXPECT_GT(weak.pfn, strong.pfn) << "perr=" << perr;
  }
}

TEST(Voting, ProbabilitiesStayInUnitInterval) {
  for (int m : {1, 3, 5, 9}) {
    for (int good = 0; good <= 12; good += 3) {
      for (int bad = 0; bad <= 12; bad += 3) {
        const auto r = voting_error_rates({m, 0.3, 0.2}, good, bad);
        EXPECT_GE(r.pfp, 0.0);
        EXPECT_LE(r.pfp, 1.0);
        EXPECT_GE(r.pfn, 0.0);
        EXPECT_LE(r.pfn, 1.0);
      }
    }
  }
}

TEST(VotingTable, MatchesDirectEvaluationAndClamps) {
  // The table's set-up memo (log_factorial and both vote tails, filled
  // once) must give exactly the bits of the direct evaluation: every
  // entry up to (40, 37), across quorum sizes and the edge error rates.
  std::size_t compared = 0;
  for (const std::int64_t m : {1, 2, 3, 5, 9, 12}) {
    for (const double p1 : {0.0, 0.01, 0.5, 1.0}) {
      for (const double p2 : {0.0, 0.01, 0.5, 1.0}) {
        const VotingParams p{m, p1, p2};
        const VotingTable table(p, 40, 37);
        for (int g = 0; g <= 40; ++g) {
          for (int b = 0; b <= 37; ++b) {
            const auto direct = voting_error_rates(p, g, b);
            const auto& memo = table.at(g, b);
            ASSERT_EQ(std::memcmp(&memo.pfp, &direct.pfp, sizeof(double)), 0)
                << "m=" << m << " p1=" << p1 << " p2=" << p2 << " g=" << g
                << " b=" << b;
            ASSERT_EQ(std::memcmp(&memo.pfn, &direct.pfn, sizeof(double)), 0)
                << "m=" << m << " p1=" << p1 << " p2=" << p2 << " g=" << g
                << " b=" << b;
            ++compared;
          }
        }
      }
    }
  }
  EXPECT_EQ(compared, 6u * 16u * 41u * 38u);

  // Out-of-range lookups clamp instead of crashing.
  const VotingTable table(VotingParams{5, 0.02, 0.03}, 20, 10);
  EXPECT_DOUBLE_EQ(table.at(100, 100).pfp, table.at(20, 10).pfp);
  EXPECT_DOUBLE_EQ(table.at(-5, -5).pfn, table.at(0, 0).pfn);
}

TEST(VotingTable, ConcurrentConstructionMatchesSerial) {
  // Sweep and Monte-Carlo workers build tables for different (m, p1, p2)
  // on several threads at once.  Under TSan this pins that the closed
  // form writes no shared global (std::lgamma writes glibc's signgam);
  // in every build it pins that a table does not depend on its thread.
  const std::vector<VotingParams> configs{
      {3, 0.01, 0.02}, {5, 0.02, 0.03}, {7, 0.05, 0.01}, {9, 0.1, 0.1}};
  std::vector<std::optional<VotingTable>> built(configs.size());
  std::vector<std::thread> workers;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    workers.emplace_back([&, i] { built[i].emplace(configs[i], 40, 40); });
  }
  for (auto& w : workers) w.join();

  for (std::size_t i = 0; i < configs.size(); ++i) {
    const VotingTable serial(configs[i], 40, 40);
    for (int g = 0; g <= 40; ++g) {
      for (int b = 0; b <= 40; ++b) {
        EXPECT_EQ(built[i]->at(g, b).pfp, serial.at(g, b).pfp);
        EXPECT_EQ(built[i]->at(g, b).pfn, serial.at(g, b).pfn);
      }
    }
  }
}

}  // namespace
