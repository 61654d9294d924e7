// Integration tests of the paper's Fig. 1 model: structural invariants
// of the reachable state space, absorbing-state semantics (C1/C2), and
// the directional responses the paper's analysis predicts.
#include "core/gcs_spn_model.h"

#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "spn/reachability.h"

namespace {

using namespace midas;
using core::GcsSpnModel;
using core::Params;

/// Small, fast variant of the paper defaults (N=20, no partitions).
Params small_params() {
  Params p = Params::paper_defaults();
  p.n_init = 20;
  p.max_groups = 1;
  return p;
}

TEST(GcsSpnModel, TokenConservationAcrossReachableStates) {
  const GcsSpnModel model(small_params());
  const auto g = spn::explore(model.net());
  for (const auto& m : g.states) {
    const auto total = m[model.place_tm()] + m[model.place_ucm()] +
                       m[model.place_dcm()] + m[model.place_gf()];
    EXPECT_EQ(total, 20) << m.to_string();
  }
}

TEST(GcsSpnModel, AbsorbingStatesAreExactlyTheFailureStates) {
  const GcsSpnModel model(small_params());
  const auto g = spn::explore(model.net());
  const auto absorbing = g.absorbing_mask();
  for (std::size_t s = 0; s < g.num_states(); ++s) {
    const bool failed =
        model.failed_c1(g.states[s]) || model.failed_c2(g.states[s]);
    EXPECT_EQ(static_cast<bool>(absorbing[s]), failed)
        << g.states[s].to_string();
  }
}

TEST(GcsSpnModel, FailureProbabilitiesPartitionUnity) {
  const GcsSpnModel model(small_params());
  const auto ev = model.evaluate();
  EXPECT_NEAR(ev.p_failure_c1 + ev.p_failure_c2, 1.0, 1e-6);
  EXPECT_GT(ev.p_failure_c1, 0.0);
  EXPECT_GT(ev.p_failure_c2, 0.0);
  EXPECT_GT(ev.mttsf, 0.0);
  EXPECT_GT(ev.ctotal, 0.0);
  EXPECT_GT(ev.num_states, 100u);
}

TEST(GcsSpnModel, PerfectHostIdsEliminatesDataLeaks) {
  // p1 = 0 → T_DRQ can never fire → every failure is C2.
  Params p = small_params();
  p.p1 = 0.0;
  const GcsSpnModel model(p);
  const auto ev = model.evaluate();
  EXPECT_DOUBLE_EQ(ev.p_failure_c1, 0.0);
  EXPECT_NEAR(ev.p_failure_c2, 1.0, 1e-6);
}

TEST(GcsSpnModel, StrongerAttackerShortensSurvival) {
  Params weak = small_params();
  Params strong = small_params();
  strong.lambda_c = weak.lambda_c * 10.0;
  const auto ev_weak = GcsSpnModel(weak).evaluate();
  const auto ev_strong = GcsSpnModel(strong).evaluate();
  EXPECT_LT(ev_strong.mttsf, ev_weak.mttsf);
}

TEST(GcsSpnModel, PolynomialAttackerIsWorstCase) {
  // With the same base rate, the aggressive attacker must reduce MTTSF
  // relative to logarithmic (log ≤ poly in shape factor everywhere).
  Params log_p = small_params();
  log_p.attacker_shape = ids::Shape::Logarithmic;
  Params poly_p = small_params();
  poly_p.attacker_shape = ids::Shape::Polynomial;
  EXPECT_GT(GcsSpnModel(log_p).evaluate().mttsf,
            GcsSpnModel(poly_p).evaluate().mttsf);
}

TEST(GcsSpnModel, MoreDataTrafficMeansFasterLeak) {
  Params slow = small_params();
  Params fast = small_params();
  fast.lambda_q = slow.lambda_q * 20.0;
  const auto ev_slow = GcsSpnModel(slow).evaluate();
  const auto ev_fast = GcsSpnModel(fast).evaluate();
  EXPECT_LT(ev_fast.mttsf, ev_slow.mttsf);
  EXPECT_GT(ev_fast.p_failure_c1, ev_slow.p_failure_c1);
}

TEST(GcsSpnModel, GroupDynamicsEnlargeTheStateSpace) {
  Params single = small_params();
  Params multi = small_params();
  multi.max_groups = 3;
  multi.partition_rates = {0.0, 1e-3, 5e-4, 0.0};
  multi.merge_rates = {0.0, 0.0, 1e-2, 2e-2};
  const auto ev1 = GcsSpnModel(single).evaluate();
  const auto ev3 = GcsSpnModel(multi).evaluate();
  EXPECT_GT(ev3.num_states, ev1.num_states);
  // The security process is only weakly coupled to the group count, so
  // survival changes but stays the same order of magnitude.
  EXPECT_GT(ev3.mttsf, ev1.mttsf * 0.3);
  EXPECT_LT(ev3.mttsf, ev1.mttsf * 3.0);
}

TEST(GcsSpnModel, CostBreakdownComponentsAreConsistent) {
  const GcsSpnModel model(small_params());
  const auto ev = model.evaluate();
  const double component_sum = ev.cost_rates.total() + ev.eviction_cost_rate;
  EXPECT_NEAR(ev.ctotal, component_sum, 1e-9 * component_sum);
  EXPECT_GT(ev.cost_rates.group_comm, 0.0);
  EXPECT_GT(ev.cost_rates.ids, 0.0);
  EXPECT_GT(ev.eviction_cost_rate, 0.0);
}

TEST(GcsSpnModel, McAndMdDefinitions) {
  const GcsSpnModel model(small_params());
  auto m = model.net().initial_marking();
  EXPECT_DOUBLE_EQ(model.mc(m), 1.0);  // no compromises yet
  EXPECT_DOUBLE_EQ(model.md(m), 1.0);  // nobody evicted yet

  m[model.place_tm()] = 10;
  m[model.place_ucm()] = 5;
  EXPECT_DOUBLE_EQ(model.mc(m), 1.5);
  EXPECT_DOUBLE_EQ(model.md(m), 20.0 / 15.0);
}

TEST(GcsSpnModel, C2BoundaryIsStrictlyMoreThanOneThird) {
  const GcsSpnModel model(small_params());
  auto m = model.net().initial_marking();
  // Exactly 1/3 compromised: NOT a failure ("more than 1/3" required).
  m[model.place_tm()] = 12;
  m[model.place_ucm()] = 6;  // 6/18 = 1/3
  EXPECT_FALSE(model.failed_c2(m));
  m[model.place_ucm()] = 7;  // 7/19 > 1/3
  EXPECT_TRUE(model.failed_c2(m));
}

TEST(GcsSpnModel, VotingRatesRespondToCompromise) {
  const GcsSpnModel model(small_params());
  auto clean = model.net().initial_marking();
  auto dirty = clean;
  dirty[model.place_tm()] = 14;
  dirty[model.place_ucm()] = 6;
  EXPECT_GT(model.voting_rates(dirty).pfp, model.voting_rates(clean).pfp);
}

TEST(GcsSpnModel, InvalidParamsRejected) {
  Params p = small_params();
  p.n_init = 1;
  EXPECT_THROW(GcsSpnModel{p}, std::invalid_argument);
  Params q = small_params();
  q.t_ids = 0.0;
  EXPECT_THROW(GcsSpnModel{q}, std::invalid_argument);
  Params r = small_params();
  r.max_groups = 2;
  r.partition_rates = {0.0};  // too short
  EXPECT_THROW(GcsSpnModel{r}, std::invalid_argument);
}

}  // namespace

namespace {

using namespace midas;

TEST(GcsSpnModel, CampaignProgressSeparatesAttackerShapes) {
  // Under the CompromiseRatio metric the C2 bound confines mc to
  // [1, 1.5] and shapes barely matter; under CampaignProgress the
  // attacker escalates over the whole mission and the shapes separate
  // by orders of magnitude.
  auto eval_with = [](ids::Shape shape) {
    core::Params p = core::Params::paper_defaults();
    p.n_init = 20;
    p.max_groups = 1;
    p.attacker_progress = core::AttackerProgress::CampaignProgress;
    p.attacker_shape = shape;
    return core::GcsSpnModel(p).evaluate();
  };
  const auto log_ev = eval_with(ids::Shape::Logarithmic);
  const auto lin_ev = eval_with(ids::Shape::Linear);
  const auto poly_ev = eval_with(ids::Shape::Polynomial);
  EXPECT_GT(log_ev.mttsf, 2.0 * lin_ev.mttsf);
  EXPECT_GT(lin_ev.mttsf, 2.0 * poly_ev.mttsf);
}

TEST(GcsSpnModel, CampaignProgressMcGrowsWithEvictions) {
  core::Params p = core::Params::paper_defaults();
  p.n_init = 20;
  p.max_groups = 1;
  p.attacker_progress = core::AttackerProgress::CampaignProgress;
  const core::GcsSpnModel model(p);
  auto m = model.net().initial_marking();
  EXPECT_DOUBLE_EQ(model.mc(m), 1.0);
  m[model.place_tm()] = 15;
  m[model.place_ucm()] = 2;
  m[model.place_dcm()] = 3;
  EXPECT_DOUBLE_EQ(model.mc(m), 1.0 + 2 + 3);
}

}  // namespace

namespace {

TEST(GcsSpnModel, ReliabilityIsOneAtZeroAndDecays) {
  core::Params p = core::Params::paper_defaults();
  p.n_init = 15;
  p.max_groups = 1;
  p.lambda_c = 1.0 / 2000.0;
  const core::GcsSpnModel model(p);
  const std::vector<double> times{0.0, 1e3, 1e4, 1e5};
  const auto r = model.reliability_at(times);
  ASSERT_EQ(r.size(), times.size());
  EXPECT_NEAR(r[0], 1.0, 1e-12);
  for (std::size_t i = 1; i < r.size(); ++i) {
    EXPECT_LT(r[i], r[i - 1]) << "reliability must decay, t=" << times[i];
    EXPECT_GE(r[i], 0.0);
  }
}

TEST(GcsSpnModel, ReliabilityRejectsNonFiniteTimes) {
  // A NaN or infinite time used to come back as R = 1 (or NaN): the
  // horizon is times.back(), and a NaN slips through every < / > check.
  Params p = Params::paper_defaults();
  p.n_init = 10;
  p.max_groups = 1;
  const GcsSpnModel model(p);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::pair<std::vector<double>, std::string>> cases{
      {{nan}, "emit_times[0]"},
      {{1e3, nan}, "emit_times[1]"},
      {{inf}, "emit_times[0]"}};
  for (const auto& [times, index] : cases) {
    try {
      (void)model.reliability_at(times);
      FAIL() << "expected std::invalid_argument for " << index;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(index), std::string::npos)
          << e.what();
    }
  }
}

TEST(GcsSpnModel, ReliabilityIntegratesToMttsf) {
  // MTTSF = ∫ R(t) dt; check with a coarse trapezoid over a long grid.
  core::Params p = core::Params::paper_defaults();
  p.n_init = 10;
  p.max_groups = 1;
  p.lambda_c = 1.0 / 500.0;  // fast dynamics so the integral converges
  const core::GcsSpnModel model(p);
  const auto mttsf = model.evaluate().mttsf;

  std::vector<double> times;
  const double dt = mttsf / 40.0;
  for (int i = 0; i <= 400; ++i) times.push_back(dt * i);
  const auto r = model.reliability_at(times);
  double integral = 0.0;
  for (std::size_t i = 1; i < times.size(); ++i) {
    integral += 0.5 * (r[i] + r[i - 1]) * (times[i] - times[i - 1]);
  }
  EXPECT_NEAR(integral, mttsf, 0.02 * mttsf);
}

}  // namespace
