// GridSpec mechanics plus the grid-equivalence guarantees: a multi-axis
// grid evaluation must match nested 1-D sweeps point-for-point, stay
// bitwise identical across thread counts, and the service's antithetic
// DES must reproduce the analytic values within its (shrunken) CIs.
#include "core/grid_spec.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "core/experiment.h"
#include "core/optimizer.h"
#include "core/sweep_engine.h"

namespace {

using namespace midas;
using core::GridSpec;
using core::Params;

Params small_params() {
  Params p = Params::paper_defaults();
  p.n_init = 20;
  p.max_groups = 1;
  return p;
}

TEST(GridSpec, ExpansionOrderIsRowMajorLastAxisFastest) {
  GridSpec spec;
  spec.num_voters({3, 5}).t_ids({30, 120, 480});
  EXPECT_EQ(spec.num_axes(), 2u);
  EXPECT_EQ(spec.num_points(), 6u);

  const auto points = spec.expand(small_params());
  ASSERT_EQ(points.size(), 6u);
  // Outer loop m, inner loop TIDS — handwritten nested-loop order.
  EXPECT_EQ(points[0].num_voters, 3);
  EXPECT_DOUBLE_EQ(points[0].t_ids, 30.0);
  EXPECT_DOUBLE_EQ(points[2].t_ids, 480.0);
  EXPECT_EQ(points[3].num_voters, 5);
  EXPECT_DOUBLE_EQ(points[3].t_ids, 30.0);

  // coords ↔ index round-trips.
  for (std::size_t i = 0; i < spec.num_points(); ++i) {
    const auto c = spec.coords(i);
    EXPECT_EQ(spec.index(c), i);
  }
  const std::size_t c_last[]{1, 2};
  EXPECT_EQ(spec.index(c_last), 5u);
  EXPECT_EQ(spec.label(3), "m=5, t_ids=30");
}

TEST(GridSpec, AxisFreeSpecIsTheBasePoint) {
  const GridSpec spec;
  EXPECT_EQ(spec.num_points(), 1u);
  const auto points = spec.expand(small_params());
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].num_voters, small_params().num_voters);
  EXPECT_EQ(spec.label(0), "");
}

TEST(GridSpec, GenericNumericAxisAppliesSetter) {
  GridSpec spec;
  spec.axis("lambda_c", {1e-4, 2e-4},
            [](Params& p, double v) { p.lambda_c = v; });
  const auto points = spec.expand(small_params());
  ASSERT_EQ(points.size(), 2u);
  EXPECT_DOUBLE_EQ(points[0].lambda_c, 1e-4);
  EXPECT_DOUBLE_EQ(points[1].lambda_c, 2e-4);
  EXPECT_EQ(spec.axis_at(0).name, "lambda_c");
}

TEST(GridSpec, CategoricalAxesCarryNanValuesAndLabels) {
  GridSpec spec;
  spec.detection_shape({ids::Shape::Logarithmic, ids::Shape::Polynomial})
      .attacker_shape({ids::Shape::Linear});
  EXPECT_TRUE(std::isnan(spec.axis_at(0).values[0]));
  EXPECT_EQ(spec.axis_at(0).labels[1], "polynomial");
  const auto points = spec.expand(small_params());
  EXPECT_EQ(points[1].detection_shape, ids::Shape::Polynomial);
  EXPECT_EQ(points[1].attacker_shape, ids::Shape::Linear);
  EXPECT_EQ(spec.label(1), "detection=polynomial, attacker=linear");
}

TEST(GridSpec, RejectsMalformedSpecs) {
  GridSpec spec;
  EXPECT_THROW(spec.t_ids({}), std::invalid_argument);
  spec.t_ids({30, 60});
  EXPECT_THROW(spec.t_ids({120}), std::invalid_argument);  // duplicate
  EXPECT_THROW((void)spec.coords(2), std::out_of_range);
  const std::size_t wrong_rank[]{0, 0};
  EXPECT_THROW((void)spec.index(wrong_rank), std::invalid_argument);
  const std::size_t oob[]{7};
  EXPECT_THROW((void)spec.index(oob), std::out_of_range);
  EXPECT_THROW((void)spec.axis_at(3), std::out_of_range);
  EXPECT_THROW(
      spec.axis("bad", std::vector<double>{1.0},
                std::function<void(Params&, double)>{}),
      std::invalid_argument);
}

TEST(GridRun, MatchesNestedSweepTIdsPointForPoint) {
  const std::vector<double> grid{30, 120, 480};
  const std::vector<std::int64_t> voters{3, 5};

  core::SweepEngine grid_engine;
  GridSpec spec;
  spec.num_voters(voters).t_ids(grid);
  const auto evals = grid_engine.evaluate(spec.expand(small_params()),
                                          core::kDefaultBatchWidth);
  ASSERT_EQ(evals.size(), 6u);
  EXPECT_EQ(grid_engine.stats().explorations, 1u);

  for (std::size_t mi = 0; mi < voters.size(); ++mi) {
    Params p = small_params();
    p.num_voters = voters[mi];
    const auto sweep = core::sweep_t_ids(p, grid);
    for (std::size_t ti = 0; ti < grid.size(); ++ti) {
      const std::size_t coords[]{mi, ti};
      const auto& a = evals[spec.index(coords)];
      const auto& b = sweep.points[ti].eval;
      // 1e-12 relative per the acceptance criterion; the engines share
      // the accumulation order, so agreement is in fact exact.
      EXPECT_NEAR(a.mttsf, b.mttsf, 1e-12 * b.mttsf);
      EXPECT_NEAR(a.ctotal, b.ctotal, 1e-12 * b.ctotal);
      EXPECT_NEAR(a.p_failure_c1, b.p_failure_c1, 1e-12);
      EXPECT_NEAR(a.p_failure_c2, b.p_failure_c2, 1e-12);
      EXPECT_NEAR(a.eviction_cost_rate, b.eviction_cost_rate,
                  1e-12 * std::max(b.eviction_cost_rate, 1.0));
      EXPECT_EQ(a.num_states, b.num_states);
    }
  }
}

TEST(GridRun, BitwiseIdenticalAcrossThreadCounts) {
  GridSpec spec;
  spec.num_voters({3, 5})
      .detection_shape({ids::Shape::Linear, ids::Shape::Polynomial})
      .t_ids({30, 240});
  const auto points = spec.expand(small_params());

  core::SweepEngine serial(1);
  core::SweepEngine parallel(4);
  const auto a = serial.evaluate(points, core::kDefaultBatchWidth);
  const auto b = parallel.evaluate(points, core::kDefaultBatchWidth);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].mttsf, b[i].mttsf) << spec.label(i);
    EXPECT_EQ(a[i].ctotal, b[i].ctotal) << spec.label(i);
    EXPECT_EQ(a[i].p_failure_c1, b[i].p_failure_c1);
    EXPECT_EQ(a[i].eviction_cost_rate, b[i].eviction_cost_rate);
  }
}

TEST(GridRun, ServiceAnswersEveryAxisAnalyticallyAndBySimulation) {
  core::ExperimentSpec spec;
  spec.name = "grid";
  spec.base = small_params();
  spec.base.n_init = 15;
  spec.base.lambda_c = 1.0 / 2000.0;
  core::AxisSpec m;
  m.param = "num_voters";
  m.values = {3, 5};
  core::AxisSpec t;
  t.param = "t_ids";
  t.values = {60, 600};
  spec.axes = {std::move(m), std::move(t)};
  spec.backends = {core::BackendKind::Analytic, core::BackendKind::Des};
  spec.mc.rel_ci_target = 0.10;
  spec.mc.base_seed = 0xFACADE;
  spec.mc.antithetic = true;
  const auto result = core::ExperimentService().run(spec);

  const auto& evals = result.at(core::BackendKind::Analytic).evals;
  const auto& des = result.at(core::BackendKind::Des);
  ASSERT_EQ(des.mc.size(), 4u);
  EXPECT_GT(des.mc_stats.replications, 0u);
  const GridSpec grid = spec.grid();
  for (std::size_t i = 0; i < des.mc.size(); ++i) {
    const auto& mc = des.mc[i];
    EXPECT_TRUE(mc.converged) << grid.label(i);
    EXPECT_GT(evals[i].mttsf, 0.0);
    // Antithetic replications come in pairs; the Summary counts pairs.
    EXPECT_EQ(mc.replications, 2 * mc.ttsf.n);
    // Distribution-exact agreement: the analytic value sits within a
    // slightly widened 95% CI (widening absorbs the expected ~5% false
    // alarms; the seed makes this deterministic).
    EXPECT_NEAR(mc.ttsf.mean, evals[i].mttsf, 2.0 * mc.ttsf.ci_half_width)
        << grid.label(i);
  }
}

}  // namespace
