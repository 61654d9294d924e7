// Phased-mission analytic solver: the constant case must route bitwise
// through GcsSpnModel, phase-boundary chaining must be exact on a
// uniform integration grid (two half-phases == one whole phase),
// identical phases chained into the tail must reproduce the independent
// constant-rate solve, structurally incompatible phases must fail
// loudly, naming both segments, and the service's phased answers must
// be the standalone analyzer's, errors included.
#include "core/mission.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "core/gcs_spn_model.h"
#include "core/params.h"

namespace {

using namespace midas;
using core::MissionAnalyzer;
using core::MissionOptions;
using core::MissionPhase;
using core::Params;
using core::ScheduleSegment;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Small single-group model: a few hundred states, fast to chain.
Params small_params() {
  Params p = Params::paper_defaults();
  p.n_init = 10;
  p.max_groups = 1;
  return p;
}

/// A phase with no absorbing state: no compromise and no false-positive
/// evictions make segment 0's chain the 3-state group-count cycle
/// alone, which AbsorbingAnalyzer rejects ("chain has no absorbing
/// states").
Params no_absorption_params() {
  Params p = Params::paper_defaults();
  p.n_init = 10;
  p.max_groups = 3;
  p.partition_rates = {0.0, 2.5e-3, 1.2e-3, 0.0};
  p.merge_rates = {0.0, 0.0, 1.4e-2, 2e-2};
  p.mission.phases = {MissionPhase{}, MissionPhase{}};
  p.mission.phases[0].name = "quiet";
  p.mission.phases[0].duration_s = 36000.0;
  p.mission.phases[0].lambda_c = 0.0;
  p.mission.phases[0].p2 = 0.0;
  p.mission.phases[1].name = "attack";
  return p;
}

/// Structurally incompatible phases: segment 1 partitions freely;
/// segment 2 multiplies the partition rates to zero, which REMOVES the
/// T_PAR edges from its chain — the NG=2 markings populated during
/// segment 1 become unrepresentable.
Params remap_error_params() {
  Params p = Params::paper_defaults();
  p.n_init = 10;
  p.max_groups = 2;
  p.partition_rates = {0.0, 1e-3, 0.0};
  p.merge_rates = {0.0, 0.0, 1e-3};
  p.schedule.segments = {ScheduleSegment{"mobile", 36000.0, {}},
                         ScheduleSegment{"frozen", kInf, {}}};
  p.schedule.segments[1].mult.partition = 0.0;
  return p;
}

/// An analytic request for `base` alone.
core::ExperimentSpec analytic_spec(const Params& base) {
  core::ExperimentSpec spec;
  spec.name = "mission";
  spec.base = base;
  return spec;
}

/// The message of the std::runtime_error `fn` throws ("" if none).
template <class Fn>
std::string runtime_error_of(Fn&& fn) {
  try {
    fn();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

void expect_bitwise(const core::Evaluation& a, const core::Evaluation& b) {
  EXPECT_EQ(a.mttsf, b.mttsf);
  EXPECT_EQ(a.ctotal, b.ctotal);
  EXPECT_EQ(a.eviction_cost_rate, b.eviction_cost_rate);
  EXPECT_EQ(a.p_failure_c1, b.p_failure_c1);
  EXPECT_EQ(a.p_failure_c2, b.p_failure_c2);
  EXPECT_EQ(a.cost_rates.total(), b.cost_rates.total());
  EXPECT_EQ(a.num_states, b.num_states);
}

void expect_close(double a, double b, double rel) {
  const double scale = std::max({std::abs(a), std::abs(b), 1e-300});
  EXPECT_LE(std::abs(a - b), rel * scale) << a << " vs " << b;
}

// --- Constant parameterisations ARE the legacy analytic path.

TEST(Mission, ConstantParamsRouteBitwiseThroughSpnModel) {
  const Params p = small_params();
  const core::Evaluation direct = core::GcsSpnModel(p).evaluate();

  const MissionAnalyzer plain(p);
  ASSERT_EQ(plain.timeline().size(), 1u);
  expect_bitwise(plain.evaluate(), direct);

  Params scheduled = p;
  scheduled.schedule.segments = {ScheduleSegment{"constant", kInf, {}}};
  scheduled.mission.phases = {MissionPhase{}};
  const MissionAnalyzer identity(scheduled);
  ASSERT_EQ(identity.timeline().size(), 1u);
  expect_bitwise(identity.evaluate(), direct);

  const std::vector<double> times{0.0, 3600.0, 86400.0};
  const auto r_direct = core::GcsSpnModel(p).reliability_at(times);
  const auto r_mission = identity.reliability_at(times);
  ASSERT_EQ(r_direct.size(), r_mission.size());
  for (std::size_t i = 0; i < times.size(); ++i) {
    EXPECT_EQ(r_direct[i], r_mission[i]) << "t=" << times[i];
  }
}

// --- Phase-boundary chaining: splitting a phase at an exact multiple
// of the uniform integration step must not change anything (the grid
// restart reproduces the unsplit step sequence).

TEST(Mission, TwoHalfPhasesMatchOneWholePhase) {
  Params whole = small_params();
  const double lc0 = whole.lambda_c;
  whole.mission.phases = {MissionPhase{}, MissionPhase{}};
  whole.mission.phases[0].name = "surge";
  whole.mission.phases[0].duration_s = 7200.0;
  whole.mission.phases[0].lambda_c = 3.0 * lc0;
  whole.mission.phases[1].name = "recovery";

  Params halved = small_params();
  halved.mission.phases = {MissionPhase{}, MissionPhase{}, MissionPhase{}};
  halved.mission.phases[0].name = "surge-a";
  halved.mission.phases[0].duration_s = 3600.0;
  halved.mission.phases[0].lambda_c = 3.0 * lc0;
  halved.mission.phases[1].name = "surge-b";
  halved.mission.phases[1].duration_s = 3600.0;
  halved.mission.phases[1].lambda_c = 3.0 * lc0;
  halved.mission.phases[2].name = "recovery";

  MissionOptions opts;
  opts.ode.uniform_step_s = 60.0;  // 3600 is an exact multiple
  const MissionAnalyzer a(whole, opts);
  const MissionAnalyzer b(halved, opts);
  ASSERT_EQ(a.timeline().size(), 2u);
  ASSERT_EQ(b.timeline().size(), 3u);

  const auto ea = a.evaluate();
  const auto eb = b.evaluate();
  expect_close(ea.mttsf, eb.mttsf, 1e-12);
  expect_close(ea.ctotal, eb.ctotal, 1e-12);
  expect_close(ea.eviction_cost_rate, eb.eviction_cost_rate, 1e-12);
  expect_close(ea.p_failure_c1, eb.p_failure_c1, 1e-12);
  expect_close(ea.p_failure_c2, eb.p_failure_c2, 1e-12);

  const std::vector<double> times{0.0, 1800.0, 3600.0, 7200.0, 14400.0};
  const auto ra = a.reliability_at(times);
  const auto rb = b.reliability_at(times);
  for (std::size_t i = 0; i < times.size(); ++i) {
    expect_close(ra[i], rb[i], 1e-12);
  }
}

// --- Identical phases chained into the exact tail ARE the constant
// model: each θ-step's trapezoid telescopes (Q_TTᵀ·occupancy =
// w_end − w_start), so a phase's occupancy plus the tail's sojourn is
// the constant solve's sojourn, and every reward built from them agrees
// with the independent reference to rounding, whatever the grid.

TEST(Mission, IdenticalPhasesReproduceConstantEvaluation) {
  for (const std::int32_t max_groups : {1, 3}) {
    Params base = Params::paper_defaults();  // partition/merge on
    base.n_init = 10;
    base.max_groups = max_groups;
    const auto ref = core::GcsSpnModel(base).evaluate_reference();
    for (const double split : {3600.0, 86400.0, 864000.0}) {
      SCOPED_TRACE("max_groups " + std::to_string(max_groups) + ", split " +
                   std::to_string(split));
      Params chained = base;
      chained.mission.phases = {MissionPhase{}, MissionPhase{}};
      chained.mission.phases[0].name = "first";
      chained.mission.phases[0].duration_s = split;
      chained.mission.phases[1].name = "rest";
      const MissionAnalyzer analyzer(chained);
      ASSERT_EQ(analyzer.timeline().size(), 2u);
      const auto ev = analyzer.evaluate();
      expect_close(ev.mttsf, ref.mttsf, 1e-12);
      expect_close(ev.ctotal, ref.ctotal, 1e-12);
      expect_close(ev.cost_rates.group_comm, ref.cost_rates.group_comm,
                   1e-12);
      expect_close(ev.cost_rates.status, ref.cost_rates.status, 1e-12);
      expect_close(ev.cost_rates.rekey, ref.cost_rates.rekey, 1e-12);
      expect_close(ev.cost_rates.ids, ref.cost_rates.ids, 1e-12);
      expect_close(ev.cost_rates.beacon, ref.cost_rates.beacon, 1e-12);
      expect_close(ev.cost_rates.partition_merge,
                   ref.cost_rates.partition_merge, 1e-12);
      expect_close(ev.eviction_cost_rate, ref.eviction_cost_rate, 1e-12);
      expect_close(ev.p_failure_c1, ref.p_failure_c1, 1e-12);
      expect_close(ev.p_failure_c2, ref.p_failure_c2, 1e-12);
    }
  }
}

// --- A phased mission actually moves the answer (the chain is not a
// no-op), and in the direction the rates say it must.

TEST(Mission, AttackerSurgeShortensMttsfAndReliability) {
  Params surged = small_params();
  surged.schedule.segments = {ScheduleSegment{"calm", 3600.0, {}},
                              ScheduleSegment{"surge", kInf, {}}};
  surged.schedule.segments[1].mult.lambda_c = 5.0;

  const auto constant = core::GcsSpnModel(small_params()).evaluate();
  const MissionAnalyzer analyzer(surged);
  ASSERT_EQ(analyzer.timeline().size(), 2u);
  const auto phased = analyzer.evaluate();
  EXPECT_LT(phased.mttsf, constant.mttsf);
  EXPECT_GT(phased.mttsf, 0.0);

  const std::vector<double> times{86400.0};
  const auto r_constant =
      core::GcsSpnModel(small_params()).reliability_at(times);
  const auto r_phased = analyzer.reliability_at(times);
  EXPECT_LT(r_phased[0], r_constant[0]);
  EXPECT_GT(r_phased[0], 0.0);
}

// --- A phase with no absorbing state: the θ-step solve must not
// inherit the mean-time-to-absorption solve's absorption checks.

TEST(Mission, PhaseWithoutAbsorptionChains) {
  const Params p = no_absorption_params();
  const MissionAnalyzer analyzer(p);
  ASSERT_EQ(analyzer.timeline().size(), 2u);
  const auto ev = analyzer.evaluate();
  // Pinned from the Gauss–Seidel integrator this solve replaced.
  expect_close(ev.mttsf, 288571.41387721139, 1e-8);

  const std::vector<double> times{3600.0, 36000.0, 72000.0};
  const auto r = analyzer.reliability_at(times);
  EXPECT_NEAR(r[0], 1.0, 1e-12);
  EXPECT_NEAR(r[1], 1.0, 1e-12);
  EXPECT_LT(r[2], 1.0);
  EXPECT_GT(r[2], 0.98);
}

// --- Structurally incompatible phases: mass parked at a marking the
// next phase cannot reach must raise an error naming both segments.

TEST(Mission, RemapErrorNamesBothSegmentLabels) {
  const Params p = remap_error_params();
  const MissionAnalyzer analyzer(p);
  ASSERT_EQ(analyzer.timeline().size(), 2u);
  try {
    (void)analyzer.evaluate();
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("'mobile'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'frozen'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("des backend"), std::string::npos) << msg;
  }
}

// --- Through the service: a phased point is one task of the sweep
// engine, chained on the engine's structure cache, and answers exactly
// what a standalone analyzer answers — errors included.

TEST(Mission, ServiceAnswersAreTheStandaloneAnalyzers) {
  core::ExperimentService service;
  const Params quiet = no_absorption_params();
  const auto result = service.run(analytic_spec(quiet));
  const auto& evals = result.at(core::BackendKind::Analytic).evals;
  ASSERT_EQ(evals.size(), 1u);
  expect_bitwise(evals[0], MissionAnalyzer(quiet).evaluate());

  const Params orphaning = remap_error_params();
  const std::string standalone = runtime_error_of(
      [&] { (void)MissionAnalyzer(orphaning).evaluate(); });
  ASSERT_NE(standalone.find("'mobile'"), std::string::npos) << standalone;
  EXPECT_EQ(runtime_error_of(
                [&] { (void)service.run(analytic_spec(orphaning)); }),
            standalone);
}

}  // namespace
