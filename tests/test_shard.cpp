// Sharded sweep service: plan slicing, and shard/merge equivalence of
// ExperimentService slices with the single-process run (BITWISE
// analytic values and Monte-Carlo summaries, through the
// ExperimentResult wire format, in every stream mode).
#include "core/shard.h"

#include <cmath>
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/sweep_engine.h"

namespace {

using namespace midas;
using core::Params;
using core::ShardPlan;
using core::ShardRange;

Params small_params() {
  Params p = Params::paper_defaults();
  p.n_init = 20;
  p.max_groups = 1;
  return p;
}

/// The m × TIDS slice the analytic equivalence tests run (6 points).
core::GridSpec small_grid() {
  core::GridSpec spec;
  spec.num_voters({3, 5}).t_ids({30, 120, 480});
  return spec;
}

/// small_grid() as an analytic service request.
core::ExperimentSpec small_spec() {
  core::ExperimentSpec spec;
  spec.name = "shard";
  spec.base = small_params();
  core::AxisSpec m;
  m.param = "num_voters";
  m.values = {3, 5};
  core::AxisSpec t;
  t.param = "t_ids";
  t.values = {30, 120, 480};
  spec.axes = {std::move(m), std::move(t)};
  return spec;
}

/// `spec` restricted to the explicit point range `range`, labelled as
/// shard `index` (merge_experiment_results rejects duplicate labels).
core::ExperimentSpec slice(core::ExperimentSpec spec, ShardRange range,
                           std::size_t index) {
  spec.shard.policy = core::ShardSpec::Policy::Explicit;
  spec.shard.shard_index = index;
  spec.shard.range = range;
  return spec;
}

/// Canonical bytes of a merged result after normalising the merge
/// provenance, as the fleet coordinator does before answering.
std::string merged_canonical(core::ExperimentResult merged,
                             const core::ExperimentResult& whole) {
  merged.num_shards = whole.num_shards;
  merged.shard_index = whole.shard_index;
  merged.shard_policy = whole.shard_policy;
  return merged.canonical_json().dump_compact();
}

void expect_evals_bitwise(const core::Evaluation& a,
                          const core::Evaluation& b) {
  EXPECT_EQ(a.mttsf, b.mttsf);
  EXPECT_EQ(a.ctotal, b.ctotal);
  EXPECT_EQ(a.cost_rates.group_comm, b.cost_rates.group_comm);
  EXPECT_EQ(a.cost_rates.status, b.cost_rates.status);
  EXPECT_EQ(a.cost_rates.rekey, b.cost_rates.rekey);
  EXPECT_EQ(a.cost_rates.ids, b.cost_rates.ids);
  EXPECT_EQ(a.cost_rates.beacon, b.cost_rates.beacon);
  EXPECT_EQ(a.cost_rates.partition_merge, b.cost_rates.partition_merge);
  EXPECT_EQ(a.eviction_cost_rate, b.eviction_cost_rate);
  EXPECT_EQ(a.p_failure_c1, b.p_failure_c1);
  EXPECT_EQ(a.p_failure_c2, b.p_failure_c2);
  EXPECT_EQ(a.num_states, b.num_states);
  EXPECT_EQ(a.solver_blocks, b.solver_blocks);
}

void expect_mc_bitwise(const sim::McPointResult& a,
                       const sim::McPointResult& b) {
  EXPECT_EQ(a.ttsf_state.n, b.ttsf_state.n);
  EXPECT_EQ(a.ttsf_state.mean, b.ttsf_state.mean);
  EXPECT_EQ(a.ttsf_state.m2, b.ttsf_state.m2);
  EXPECT_EQ(a.cost_rate_state.n, b.cost_rate_state.n);
  EXPECT_EQ(a.cost_rate_state.mean, b.cost_rate_state.mean);
  EXPECT_EQ(a.cost_rate_state.m2, b.cost_rate_state.m2);
  EXPECT_EQ(a.ttsf.mean, b.ttsf.mean);
  EXPECT_EQ(a.ttsf.ci_half_width, b.ttsf.ci_half_width);
  EXPECT_EQ(a.cost_rate.mean, b.cost_rate.mean);
  EXPECT_EQ(a.replications, b.replications);
  EXPECT_EQ(a.failures_c1, b.failures_c1);
  EXPECT_EQ(a.p_failure_c1, b.p_failure_c1);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.survival_counts, b.survival_counts);
  ASSERT_EQ(a.survival.size(), b.survival.size());
  for (std::size_t h = 0; h < a.survival.size(); ++h) {
    EXPECT_EQ(a.survival[h].mean, b.survival[h].mean);
    EXPECT_EQ(a.survival[h].ci_half_width, b.survival[h].ci_half_width);
  }
}

TEST(ShardPlan, ContiguousIsBalancedAndTiles) {
  const auto plan = ShardPlan::contiguous(10, 3);
  ASSERT_EQ(plan.num_shards(), 3u);
  EXPECT_EQ(plan.range(0), (ShardRange{0, 4}));
  EXPECT_EQ(plan.range(1), (ShardRange{4, 7}));
  EXPECT_EQ(plan.range(2), (ShardRange{7, 10}));
  core::validate_shard_tiling(10, plan.ranges());

  // One shard takes everything; more shards than points leaves the
  // trailing shards empty but still tiling.
  EXPECT_EQ(ShardPlan::contiguous(5, 1).range(0), (ShardRange{0, 5}));
  const auto wide = ShardPlan::contiguous(2, 4);
  EXPECT_EQ(wide.range(0), (ShardRange{0, 1}));
  EXPECT_EQ(wide.range(1), (ShardRange{1, 2}));
  EXPECT_TRUE(wide.range(2).empty());
  EXPECT_TRUE(wide.range(3).empty());
  core::validate_shard_tiling(2, wide.ranges());

  EXPECT_THROW((void)ShardPlan::contiguous(4, 0), std::invalid_argument);
  EXPECT_THROW((void)plan.range(3), std::out_of_range);
}

TEST(ShardPlan, ByStructureKeepsStructureRunsWhole) {
  // n_init is structural: the grid's row-major order (n_init slowest)
  // yields one run of equal structure_key per n_init level.  Shard
  // boundaries must fall only between runs, so each structure is
  // explored by exactly one shard.
  core::GridSpec spec;
  spec.axis("n_init", std::vector<double>{20, 24},
            [](Params& p, double v) {
              p.n_init = static_cast<std::int32_t>(v);
            })
      .t_ids({30, 120, 480});
  const Params base = small_params();

  const auto plan = ShardPlan::by_structure(spec, base, 2);
  ASSERT_EQ(plan.num_shards(), 2u);
  EXPECT_EQ(plan.range(0), (ShardRange{0, 3}));
  EXPECT_EQ(plan.range(1), (ShardRange{3, 6}));
  core::validate_shard_tiling(6, plan.ranges());

  // More shards than runs: the extra shards are empty, runs stay whole.
  const auto wide = ShardPlan::by_structure(spec, base, 4);
  EXPECT_EQ(wide.range(0), (ShardRange{0, 3}));
  EXPECT_EQ(wide.range(1), (ShardRange{3, 6}));
  EXPECT_TRUE(wide.range(2).empty());
  EXPECT_TRUE(wide.range(3).empty());
  core::validate_shard_tiling(6, wide.ranges());

  // A structure-uniform grid (paper default: every m shares the
  // structure) collapses into one run owned by shard 0.
  const auto uniform = ShardPlan::by_structure(small_grid(), base, 2);
  EXPECT_EQ(uniform.range(0), (ShardRange{0, 6}));
  EXPECT_TRUE(uniform.range(1).empty());

  // Each shard pays exactly one exploration for the structures it owns.
  for (std::size_t s = 0; s < plan.num_shards(); ++s) {
    std::vector<Params> points;
    for (std::size_t i = plan.range(s).begin; i < plan.range(s).end; ++i) {
      points.push_back(spec.point(base, i));
    }
    core::SweepEngine engine;
    (void)engine.evaluate(points, core::kDefaultBatchWidth);
    EXPECT_EQ(engine.stats().explorations, 1u) << "shard " << s;
  }
}

TEST(ShardMerge, AnalyticMatchesSingleProcessExactly) {
  const auto spec = small_spec();
  const auto whole = core::ExperimentService().run(spec);

  // Uneven split including a single-point shard, each answered by its
  // own service (as separate worker processes would).
  const std::vector<ShardRange> ranges{{0, 1}, {1, 4}, {4, 6}};
  std::vector<core::ExperimentResult> parts;
  for (std::size_t s = 0; s < ranges.size(); ++s) {
    core::ExperimentService worker;
    parts.push_back(worker.run(slice(spec, ranges[s], s)));
  }
  const auto merged = core::merge_experiment_results(parts);

  const auto& want = whole.at(core::BackendKind::Analytic).evals;
  const auto& got = merged.at(core::BackendKind::Analytic).evals;
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    expect_evals_bitwise(got[i], want[i]);
  }
  EXPECT_EQ(merged_canonical(merged, whole),
            whole.canonical_json().dump_compact());
}

TEST(ShardMerge, McMergesBitwiseUnderEveryStreamMode) {
  core::ExperimentSpec spec = small_spec();
  spec.backends = {core::BackendKind::Analytic, core::BackendKind::Des};
  spec.mc.base_seed = 0xFACADE;
  spec.mc.rel_ci_target = 0.15;
  spec.mc.min_replications = 32;
  spec.mc.block = 32;
  spec.mc.survival_horizons = {1e4, 1e6};

  // CRN (substreams keyed by replication only), independent streams
  // (keyed by GLOBAL point index via point_stream_offset), and
  // antithetic pairs layered on CRN: in every mode an uneven 3-way
  // split, sent through the ExperimentResult wire format, must
  // reproduce the single-process run bit-for-bit.
  struct Mode {
    const char* name;
    bool crn;
    bool antithetic;
  };
  for (const Mode mode : {Mode{"crn", true, false},
                          Mode{"independent", false, false},
                          Mode{"antithetic", true, true}}) {
    SCOPED_TRACE(mode.name);
    core::ExperimentSpec run = spec;
    run.mc.crn = mode.crn;
    run.mc.antithetic = mode.antithetic;
    const auto whole = core::ExperimentService().run(run);

    const std::vector<ShardRange> ranges{{0, 2}, {2, 3}, {3, 6}};
    std::vector<core::ExperimentResult> parts;
    for (std::size_t s = 0; s < ranges.size(); ++s) {
      core::ExperimentService worker;
      const auto part = worker.run(slice(run, ranges[s], s));
      parts.push_back(core::ExperimentResult::from_json(
          util::Json::parse(part.to_json().dump())));
    }
    const auto merged = core::merge_experiment_results(parts);

    const auto& want = whole.at(core::BackendKind::Des).mc;
    const auto& got = merged.at(core::BackendKind::Des).mc;
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      SCOPED_TRACE("point " + std::to_string(i));
      expect_mc_bitwise(got[i], want[i]);
    }
    EXPECT_EQ(merged_canonical(merged, whole),
              whole.canonical_json().dump_compact());
  }
}

TEST(ShardMerge, ValidatesTilingAndPayloads) {
  const auto spec = small_spec();  // 6 points
  core::ExperimentService service;
  const auto merge = [](std::vector<core::ExperimentResult> parts) {
    return core::merge_experiment_results(parts);
  };

  const auto a = service.run(slice(spec, {0, 3}, 0));
  const auto b = service.run(slice(spec, {3, 6}, 1));

  // Gap: [0,3) + [4,6).
  EXPECT_THROW((void)merge({a, service.run(slice(spec, {4, 6}, 1))}),
               std::invalid_argument);
  // Overlap: [0,3) + [2,6).
  EXPECT_THROW((void)merge({a, service.run(slice(spec, {2, 6}, 1))}),
               std::invalid_argument);
  // Payload size inconsistent with the range.
  {
    auto broken = a;
    broken.backends[0].evals.pop_back();
    EXPECT_THROW((void)merge({broken, b}), std::invalid_argument);
  }
  // An out-of-grid shard range is rejected before anything runs.
  EXPECT_THROW((void)service.run(slice(spec, {4, 9}, 1)),
               std::invalid_argument);

  // The happy path including an empty shard.
  const auto merged = merge({a, b, service.run(slice(spec, {6, 6}, 2))});
  EXPECT_EQ(merged.at(core::BackendKind::Analytic).evals.size(), 6u);
}

TEST(ShardPlan, ReplanSplitsTheUncompletedRemainderDeterministically) {
  // One orphaned lease fanned across three idle survivors: the pieces
  // tile the original range in order, no point lost or duplicated.
  const std::vector<ShardRange> orphan = {{10, 22}};
  const auto pieces = ShardPlan::replan(orphan, 3);
  ASSERT_EQ(pieces.size(), 3u);
  std::size_t cursor = 10;
  for (const auto& r : pieces) {
    EXPECT_EQ(r.begin, cursor);
    EXPECT_GT(r.end, r.begin);
    cursor = r.end;
  }
  EXPECT_EQ(cursor, 22u);

  // More inputs than pieces: returned sorted, empties dropped, intact.
  const std::vector<ShardRange> many = {{8, 9}, {0, 4}, {4, 4}, {5, 8}};
  const auto kept = ShardPlan::replan(many, 2);
  ASSERT_EQ(kept.size(), 3u);
  EXPECT_EQ(kept[0].begin, 0u);
  EXPECT_EQ(kept[1].begin, 5u);
  EXPECT_EQ(kept[2].begin, 8u);

  // Never splits below one point per piece.
  const std::vector<ShardRange> tiny = {{3, 5}};
  EXPECT_EQ(ShardPlan::replan(tiny, 8).size(), 2u);

  // Overlapping inputs and zero pieces are programmer errors.
  const std::vector<ShardRange> overlap = {{0, 6}, {4, 9}};
  EXPECT_THROW((void)ShardPlan::replan(overlap, 2), std::invalid_argument);
  EXPECT_THROW((void)ShardPlan::replan(orphan, 0), std::invalid_argument);
}

TEST(ShardTiling, ErrorsNameTheGuiltyShardIndices) {
  // The labeled overload is what merge paths use: errors must name the
  // caller's shard indices (7 and 3 here), not list positions.
  const std::vector<std::size_t> labels = {7, 3};
  const auto error_of = [&](const std::vector<ShardRange>& ranges) {
    try {
      core::validate_shard_tiling(10, ranges, labels);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    ADD_FAILURE() << "expected the tiling to be rejected";
    return std::string();
  };

  // Gap in the middle: names the uncovered run and both neighbours.
  std::string what = error_of({{0, 4}, {6, 10}});
  EXPECT_NE(what.find("[4, 6)"), std::string::npos) << what;
  EXPECT_NE(what.find("shard 7"), std::string::npos) << what;
  EXPECT_NE(what.find("shard 3"), std::string::npos) << what;

  // Overlap: names both shards and the exact overlapping points.
  what = error_of({{0, 6}, {4, 10}});
  EXPECT_NE(what.find("overlap"), std::string::npos) << what;
  EXPECT_NE(what.find("shard 7"), std::string::npos) << what;
  EXPECT_NE(what.find("shard 3"), std::string::npos) << what;
  EXPECT_NE(what.find("[4, 6)"), std::string::npos) << what;

  // Tail gap: names the last shard that fell short.
  what = error_of({{0, 4}, {4, 8}});
  EXPECT_NE(what.find("[8, 10)"), std::string::npos) << what;
  EXPECT_NE(what.find("shard 3"), std::string::npos) << what;

  // A healthy tiling passes with labels attached.
  const std::vector<ShardRange> good = {{0, 4}, {4, 10}};
  EXPECT_NO_THROW(core::validate_shard_tiling(10, good, labels));
}

}  // namespace
