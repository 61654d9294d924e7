// Closed-form validation of the CTMC machinery: mean time to absorption,
// absorption probabilities and accumulated rewards, plus the
// uniformisation oracle (tests/oracle) the θ-method integrator is
// cross-checked against, are all checked against textbook results.
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "spn/absorbing.h"
#include "oracle/ctmc.h"
#include "spn/reachability.h"
#include "oracle/transient.h"

namespace {

using namespace midas::spn;

PetriNet death_chain(std::int32_t k, double mu) {
  PetriNet net;
  const auto a = net.add_place("A", k);
  net.transition("die")
      .input(a)
      .rate([a, mu](const Marking& m) { return mu * m[a]; })
      .add();
  return net;
}

TEST(Absorbing, TwoStateMttaIsInverseRate) {
  PetriNet net;
  const auto p = net.add_place("P", 1);
  net.transition("fail").input(p).rate(0.25).add();
  const auto g = explore(net);
  const AbsorbingAnalyzer an(g);
  const auto res = an.solve();
  EXPECT_NEAR(res.mtta, 4.0, 1e-9);
}

TEST(Absorbing, ErlangChainMttaIsSumOfStages) {
  // k sequential exponential stages at rate λ each: MTTA = k/λ.
  const int k = 6;
  const double lambda = 2.0;
  PetriNet net;
  const auto p = net.add_place("Stages", k);
  net.transition("stage").input(p).rate(lambda).add();
  const auto g = explore(net);
  const auto res = AbsorbingAnalyzer(g).solve();
  EXPECT_NEAR(res.mtta, k / lambda, 1e-9);
}

TEST(Absorbing, PureDeathChainMttaIsHarmonicSum) {
  // Rate i·μ in state i:  MTTA = Σ_{i=1..k} 1/(i·μ).
  const int k = 10;
  const double mu = 0.5;
  const auto net = death_chain(k, mu);
  const auto res = AbsorbingAnalyzer(explore(net)).solve();
  double expected = 0.0;
  for (int i = 1; i <= k; ++i) expected += 1.0 / (mu * i);
  EXPECT_NEAR(res.mtta, expected, 1e-9);
}

TEST(Absorbing, CompetingRisksAbsorptionProbabilities) {
  // One transient state, two absorbing causes with rates λ1, λ2.
  const double l1 = 3.0, l2 = 1.0;
  PetriNet net;
  const auto p = net.add_place("Alive", 1);
  const auto c1 = net.add_place("Cause1", 0);
  const auto c2 = net.add_place("Cause2", 0);
  net.transition("t1").input(p).output(c1).rate(l1).add();
  net.transition("t2").input(p).output(c2).rate(l2).add();

  const auto g = explore(net);
  const AbsorbingAnalyzer an(g);
  const auto res = an.solve();
  EXPECT_NEAR(res.mtta, 1.0 / (l1 + l2), 1e-10);

  const double p1 = an.absorption_probability_where(
      res, [c1](const Marking& m) { return m[c1] > 0; });
  const double p2 = an.absorption_probability_where(
      res, [c2](const Marking& m) { return m[c2] > 0; });
  EXPECT_NEAR(p1, l1 / (l1 + l2), 1e-10);
  EXPECT_NEAR(p2, l2 / (l1 + l2), 1e-10);
  EXPECT_NEAR(p1 + p2, 1.0, 1e-10);
}

TEST(Absorbing, AccumulatedRateRewardMatchesClosedForm) {
  // Death chain, reward = current token count.  Expected accumulated
  // reward = Σ_i i · E[time in state i] = Σ_i i · 1/(i·μ) = k/μ.
  const int k = 7;
  const double mu = 2.0;
  const auto net = death_chain(k, mu);
  const auto g = explore(net);
  const AbsorbingAnalyzer an(g);
  const auto res = an.solve();
  const auto place = net.find_place("A").value();
  const double reward = an.accumulated_rate_reward(
      res, [place](const Marking& m) { return static_cast<double>(m[place]); });
  EXPECT_NEAR(reward, k / mu, 1e-9);
}

TEST(Absorbing, AccumulatedImpulseCountsFirings) {
  // Death chain with impulse 1 per firing: k firings to absorption.
  const int k = 9;
  PetriNet net;
  const auto a = net.add_place("A", k);
  net.transition("die")
      .input(a)
      .rate([a](const Marking& m) { return 1.5 * m[a]; })
      .impulse([](const Marking&) { return 1.0; })
      .add();
  const auto g = explore(net);
  const AbsorbingAnalyzer an(g);
  const auto res = an.solve();
  EXPECT_NEAR(an.accumulated_impulse_reward(res), k, 1e-9);
}

TEST(Absorbing, SelfLoopImpulsesAccrueAtRate) {
  // One transient state with exit rate μ and a self-loop firing at rate
  // ρ with impulse c: expected impulse total = c·ρ/μ.
  const double mu = 0.5, rho = 4.0, c = 2.0;
  PetriNet net;
  const auto p = net.add_place("P", 1);
  net.transition("exit").input(p).rate(mu).add();
  net.transition("tick")
      .input(p)
      .output(p)
      .rate(rho)
      .impulse([c](const Marking&) { return c; })
      .add();
  const auto g = explore(net);
  const AbsorbingAnalyzer an(g);
  const auto res = an.solve();
  EXPECT_NEAR(res.mtta, 1.0 / mu, 1e-10);
  EXPECT_NEAR(an.accumulated_impulse_reward(res), c * rho / mu, 1e-9);
}

TEST(AbsorbingAnalyzer, SolveFromRejectsBadInitialMass) {
  // solve_from's precondition, checked: a non-finite entry, mass at an
  // absorbing state or an entry negative beyond rounding throws, naming
  // the first offending index and its marking — instead of dropping the
  // mass or carrying a NaN into the mean time to absorption.
  const auto net = death_chain(3, 1.0);
  const auto g = explore(net);
  const AbsorbingAnalyzer an(g);
  const std::vector<double> rates = [&] {
    std::vector<double> r;
    for (const auto& e : g.edges) r.push_back(e.rate);
    return r;
  }();
  const auto absorbing = g.absorbing_mask();
  std::size_t dead = 0, alive = 0;
  for (std::size_t s = 0; s < g.num_states(); ++s) {
    if (absorbing[s]) {
      dead = s;
    } else if (s != g.initial) {
      alive = s;
    }
  }
  ASSERT_TRUE(absorbing[dead]);
  ASSERT_FALSE(absorbing[alive]);

  const auto expect_rejected = [&](std::vector<double> mass, std::size_t at,
                                   const std::string& defect) {
    try {
      (void)an.solve_from(mass, rates);
      FAIL() << "expected std::invalid_argument for " << defect;
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("initial_mass[" + std::to_string(at) + "]"),
                std::string::npos)
          << msg;
      EXPECT_NE(msg.find(defect), std::string::npos) << msg;
      EXPECT_NE(msg.find(g.states[at].to_string()), std::string::npos)
          << msg;
    }
  };
  std::vector<double> mass(g.num_states(), 0.0);
  mass[g.initial] = 0.75;
  mass[alive] = 0.25;

  auto nan_mass = mass;
  nan_mass[alive] = std::nan("");
  expect_rejected(nan_mass, alive, "not finite");
  auto absorbed = mass;
  absorbed[dead] = 1e-3;
  expect_rejected(absorbed, dead, "absorbing");
  auto negative = mass;
  negative[alive] = -1e-6;
  expect_rejected(negative, alive, "negative");

  // Within rounding of zero is what a θ-step leaves behind: accepted.
  auto rounding = mass;
  rounding[alive] = -1e-18;
  EXPECT_NO_THROW((void)an.solve_from(rounding, rates));
  // And a unit mass at the initial state is the plain solve, bitwise.
  std::vector<double> unit(g.num_states(), 0.0);
  unit[g.initial] = 1.0;
  EXPECT_EQ(an.solve_from(unit, rates).mtta, an.solve().mtta);
}

TEST(Absorbing, UnreachableAbsorbingStateThrowsAtConstruction) {
  // Regression: a graph whose absorbing state exists but is NOT
  // reachable from the initial marking used to pass construction and
  // fail mid-solve — with "transient state with zero exit rate" or a
  // singular SCC block, neither of which names the actual defect.  The
  // analyzer now detects it at construction.  Cycle-only from the
  // initial state: 0 ⇄ 1, with state 2 absorbing but unconnected.
  ReachabilityGraph g;
  g.states.assign(3, Marking(1));
  g.edges = {{0, 1, 1.0, 0, 0.0, 1.0, 0.0}, {1, 0, 1.0, 0, 0.0, 1.0, 0.0}};
  g.edge_offsets = {0, 1, 2, 2};
  g.initial = 0;
  try {
    const AbsorbingAnalyzer an(g);
    FAIL() << "construction must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("no absorbing state is reachable"),
              std::string::npos)
        << e.what();
  }
}

TEST(Absorbing, ReachableTransientTrapThrowsAtConstruction) {
  // Initial state CAN absorb (0 → 3), but 0 → 1 enters a 1 ⇄ 2 cycle
  // with no exit: probability mass is trapped, MTTA diverges.  Must be
  // rejected at construction with a descriptive error, not by a
  // singular dense block inside solve().
  ReachabilityGraph g;
  g.states.assign(4, Marking(1));
  g.edges = {{0, 1, 1.0, 0, 0.0, 1.0, 0.0},
             {0, 3, 1.0, 0, 0.0, 1.0, 0.0},
             {1, 2, 1.0, 0, 0.0, 1.0, 0.0},
             {2, 1, 1.0, 0, 0.0, 1.0, 0.0}};
  g.edge_offsets = {0, 2, 3, 4, 4};
  g.initial = 0;
  try {
    const AbsorbingAnalyzer an(g);
    FAIL() << "construction must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("recurrent transient class"),
              std::string::npos)
        << e.what();
  }
}

TEST(Absorbing, NoAbsorbingStatesThrows) {
  PetriNet net;
  const auto q = net.add_place("Q", 0);
  net.transition("up")
      .output(q)
      .rate(1.0)
      .guard([q](const Marking& m) { return m[q] < 3; })
      .add();
  net.transition("down").input(q).rate(1.0).add();
  const auto g = explore(net);
  EXPECT_THROW(AbsorbingAnalyzer(g).solve(), std::runtime_error);
}

TEST(Transient, TwoStateSurvivalIsExponential) {
  const double lambda = 0.7;
  PetriNet net;
  const auto p = net.add_place("P", 1);
  net.transition("fail").input(p).rate(lambda).add();
  const auto g = explore(net);
  const TransientAnalyzer an(g);
  for (double t : {0.0, 0.5, 1.0, 3.0, 10.0}) {
    EXPECT_NEAR(an.absorbed_probability_at(t), 1.0 - std::exp(-lambda * t),
                1e-9)
        << "t=" << t;
  }
}

TEST(Transient, DistributionSumsToOne) {
  const auto net = death_chain(5, 1.0);
  const TransientAnalyzer an(explore(net));
  for (double t : {0.1, 1.0, 7.0}) {
    const auto pi = an.distribution_at(t);
    double sum = 0.0;
    for (double v : pi) sum += v;
    EXPECT_NEAR(sum, 1.0, 1e-9) << "t=" << t;
  }
}

TEST(Transient, ErlangAbsorptionCdf) {
  // 3 stages at rate 2: absorbed probability = Erlang(3,2) CDF.
  const int k = 3;
  const double lambda = 2.0;
  PetriNet net;
  const auto p = net.add_place("Stages", k);
  net.transition("stage").input(p).rate(lambda).add();
  const TransientAnalyzer an(explore(net));
  for (double t : {0.25, 1.0, 2.5}) {
    double cdf = 1.0;
    double term = 1.0;
    for (int i = 0; i < k; ++i) {
      if (i > 0) term *= lambda * t / i;
      cdf -= std::exp(-lambda * t) * term;
    }
    EXPECT_NEAR(an.absorbed_probability_at(t), cdf, 1e-8) << "t=" << t;
  }
}

TEST(Transient, ExpectedRewardInterpolates)  {
  // Death chain reward = tokens: E[reward at 0] = k, decreases with t.
  const int k = 4;
  const auto net = death_chain(k, 1.0);
  const auto g = explore(net);
  const TransientAnalyzer an(g);
  const auto place = net.find_place("A").value();
  auto reward = [place](const Marking& m) {
    return static_cast<double>(m[place]);
  };
  const double r0 = an.expected_reward_at(0.0, reward);
  const double r1 = an.expected_reward_at(1.0, reward);
  const double r2 = an.expected_reward_at(5.0, reward);
  EXPECT_NEAR(r0, k, 1e-12);
  EXPECT_LT(r1, r0);
  EXPECT_LT(r2, r1);
  // Linear death at unit per-token rate: E[N(t)] = k·e^{−t}.
  EXPECT_NEAR(r1, k * std::exp(-1.0), 1e-8);
}

TEST(Ctmc, GeneratorRowsSumToZeroForTransientStates) {
  const auto net = death_chain(4, 1.0);
  const auto g = explore(net);
  const auto ctmc = Ctmc::from_graph(g);
  const auto& q = ctmc.generator();
  for (std::size_t r = 0; r < ctmc.num_states(); ++r) {
    double sum = 0.0;
    for (std::size_t c = 0; c < ctmc.num_states(); ++c) sum += q.at(r, c);
    EXPECT_NEAR(sum, 0.0, 1e-12) << "row " << r;
  }
}

TEST(Ctmc, ExitRatesAndAbsorbingClassification) {
  const auto net = death_chain(3, 2.0);
  const auto g = explore(net);
  const auto ctmc = Ctmc::from_graph(g);
  EXPECT_EQ(ctmc.num_absorbing(), 1u);
  EXPECT_DOUBLE_EQ(ctmc.max_exit_rate(), 6.0);  // state with 3 tokens
}

}  // namespace
