// Protocol-level integrated simulation: safety invariants (key
// agreement through every rekey), failure-mode classification, and
// directional consistency with the analytic model.
#include "sim/protocol_sim.h"

#include <gtest/gtest.h>

#include <limits>

#include "core/gcs_spn_model.h"

namespace {

using namespace midas;
using sim::ProtocolSimParams;
using sim::run_protocol_sim;

TEST(ProtocolSim, TerminatesWithAFailureAndCoherentCounters) {
  const auto params = ProtocolSimParams::small_defaults();
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto r = run_protocol_sim(params, seed);
    EXPECT_FALSE(r.timed_out) << "seed " << seed;
    EXPECT_GT(r.ttsf, 0.0);
    EXPECT_GT(r.traffic_hop_bits, 0.0);
    EXPECT_LE(r.true_evictions, r.compromises);
    EXPECT_LE(r.true_evictions + r.false_evictions,
              static_cast<std::size_t>(params.model.n_init));
    EXPECT_GT(r.vote_messages, 0u);
  }
}

TEST(ProtocolSim, KeyAgreementHoldsThroughEveryRekey) {
  // The central protocol safety property: after every IDS eviction and
  // its GDH rekey, all survivors still compute the same group key.
  const auto params = ProtocolSimParams::small_defaults();
  for (std::uint64_t seed = 10; seed <= 14; ++seed) {
    const auto r = run_protocol_sim(params, seed);
    EXPECT_TRUE(r.keys_always_agreed) << "seed " << seed;
  }
}

TEST(ProtocolSim, DeterministicUnderSeed) {
  const auto params = ProtocolSimParams::small_defaults();
  const auto a = run_protocol_sim(params, 99);
  const auto b = run_protocol_sim(params, 99);
  EXPECT_DOUBLE_EQ(a.ttsf, b.ttsf);
  EXPECT_EQ(a.compromises, b.compromises);
  EXPECT_EQ(a.vote_messages, b.vote_messages);
  EXPECT_DOUBLE_EQ(a.traffic_hop_bits, b.traffic_hop_bits);
}

TEST(ProtocolSim, PerfectHostIdsPreventsLeaks) {
  auto params = ProtocolSimParams::small_defaults();
  params.model.p1 = 0.0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const auto r = run_protocol_sim(params, seed);
    EXPECT_FALSE(r.failed_by_c1) << "seed " << seed;
  }
}

TEST(ProtocolSim, StrongerAttackerFailsFaster) {
  auto weak = ProtocolSimParams::small_defaults();
  auto strong = ProtocolSimParams::small_defaults();
  strong.model.lambda_c *= 8.0;
  double weak_sum = 0.0, strong_sum = 0.0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    weak_sum += run_protocol_sim(weak, seed).ttsf;
    strong_sum += run_protocol_sim(strong, seed).ttsf;
  }
  EXPECT_LT(strong_sum, weak_sum);
}

TEST(ProtocolSim, DirectionallyConsistentWithAnalyticModel) {
  // The protocol simulation and the SPN share parameters but differ in
  // mechanism (deterministic IDS rounds, live topology).  They must
  // agree on the ORDER of design points: a clearly better TIDS in the
  // model is better in the protocol too.
  auto good = ProtocolSimParams::small_defaults();
  good.model.t_ids = 60.0;
  auto bad = good;
  bad.model.t_ids = 2400.0;  // way past the optimum: leaks dominate

  const auto ana_good = core::GcsSpnModel(good.model).evaluate();
  const auto ana_bad = core::GcsSpnModel(bad.model).evaluate();
  ASSERT_GT(ana_good.mttsf, ana_bad.mttsf);

  double sim_good = 0.0, sim_bad = 0.0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    sim_good += run_protocol_sim(good, seed).ttsf;
    sim_bad += run_protocol_sim(bad, seed).ttsf;
  }
  EXPECT_GT(sim_good, sim_bad);
}

TEST(ProtocolSim, BadConfigurationThrows) {
  auto params = ProtocolSimParams::small_defaults();
  params.tick_s = 0.0;
  EXPECT_THROW((void)run_protocol_sim(params, 1), std::invalid_argument);
  auto params2 = ProtocolSimParams::small_defaults();
  params2.topology_refresh_s = params2.tick_s / 2.0;
  EXPECT_THROW((void)run_protocol_sim(params2, 1), std::invalid_argument);
  // NaN and out-of-range values a hostile spec could carry.
  constexpr double nan = std::numeric_limits<double>::quiet_NaN();
  for (auto mutate : {+[](ProtocolSimParams& p) { p.radio_range_m = -5.0; },
                      +[](ProtocolSimParams& p) { p.radio_range_m = nan; },
                      +[](ProtocolSimParams& p) { p.tick_s = nan; },
                      +[](ProtocolSimParams& p) { p.topology_refresh_s = nan; },
                      +[](ProtocolSimParams& p) { p.max_time_s = nan; },
                      +[](ProtocolSimParams& p) { p.max_time_s = 0.0; },
                      +[](ProtocolSimParams& p) {
                        p.mobility.field_radius_m = nan;
                      }}) {
    auto bad = ProtocolSimParams::small_defaults();
    mutate(bad);
    EXPECT_THROW((void)run_protocol_sim(bad, 1), std::invalid_argument);
  }
}

}  // namespace
