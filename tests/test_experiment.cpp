// Declarative experiment API: spec JSON round-trips (bitwise, including
// non-finite doubles and generic + typed axes), field-path validation
// errors, the free core::sweep_t_ids agreeing bitwise with the service,
// result wire-format round-trips, shard-sliced service runs merging to
// the single-process result, and pilot-cost shard plans.
#include "core/experiment.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment_presets.h"
#include "core/optimizer.h"

namespace {

using namespace midas;
using core::AxisSpec;
using core::BackendKind;
using core::ExperimentResult;
using core::ExperimentService;
using core::ExperimentSpec;
using core::ShardRange;
using core::ShardSpec;

/// A small mixed-axis spec: typed (num_voters, t_ids, detection_shape)
/// plus a generic numeric axis (lambda_c), scaled-down population so
/// the simulation backends run in test time.
ExperimentSpec small_spec() {
  ExperimentSpec spec;
  spec.name = "test";
  spec.mode = "unit";
  spec.base = core::Params::paper_defaults();
  spec.base.n_init = 12;
  spec.base.max_groups = 1;
  spec.base.lambda_c = 1.0 / 1500.0;
  AxisSpec m;
  m.param = "num_voters";
  m.values = {3, 5};
  AxisSpec t;
  t.param = "t_ids";
  t.values = {60.0, 600.0};
  spec.axes = {std::move(m), std::move(t)};
  spec.mc.base_seed = 0xABCDEF;
  spec.mc.rel_ci_target = 0.0;
  spec.mc.min_replications = 24;
  spec.mc.max_replications = 24;
  spec.mc.block = 8;
  return spec;
}

TEST(ExperimentSpec, JsonRoundTripIsBitwise) {
  ExperimentSpec spec = small_spec();
  spec.backends = {BackendKind::Analytic, BackendKind::Des};
  AxisSpec shape;
  shape.param = "detection_shape";
  shape.levels = {"logarithmic", "polynomial"};
  spec.axes.push_back(shape);
  AxisSpec lc;
  lc.param = "lambda_c";
  lc.values = {1e-3, 1.0 / 3000.0};  // a non-representable decimal
  spec.axes.push_back(lc);
  spec.metrics = {"mttsf", "survival"};
  spec.shard.policy = ShardSpec::Policy::Contiguous;
  spec.shard.num_shards = 3;
  spec.shard.shard_index = 1;

  const std::string dump1 = spec.to_json().dump();
  const ExperimentSpec back =
      ExperimentSpec::from_json(util::Json::parse(dump1));
  const std::string dump2 = back.to_json().dump();
  EXPECT_EQ(dump1, dump2);

  // Structural equality of the pieces with custom state.
  EXPECT_EQ(back.name, spec.name);
  EXPECT_EQ(back.axes.size(), 4u);
  EXPECT_EQ(back.axes[3].values[1], 1.0 / 3000.0);  // bitwise double
  EXPECT_EQ(back.backends, spec.backends);
  EXPECT_EQ(back.shard, spec.shard);
  EXPECT_EQ(back.metrics, spec.metrics);
  EXPECT_EQ(back.mc.base_seed, spec.mc.base_seed);

  // The declarative grid expands identically to the original.
  const auto g1 = spec.grid();
  const auto g2 = back.grid();
  ASSERT_EQ(g1.num_points(), g2.num_points());
  for (std::size_t i = 0; i < g1.num_points(); ++i) {
    EXPECT_EQ(g1.label(i), g2.label(i)) << i;
  }
}

TEST(ExperimentSpec, NonFiniteDoublesRoundTrip) {
  ExperimentSpec spec = small_spec();
  spec.protocol.max_time_s = std::numeric_limits<double>::infinity();
  spec.mc.rel_ci_target = std::numeric_limits<double>::quiet_NaN();

  const std::string dump1 = spec.to_json().dump();
  const ExperimentSpec back =
      ExperimentSpec::from_json(util::Json::parse(dump1));
  EXPECT_TRUE(std::isinf(back.protocol.max_time_s));
  EXPECT_GT(back.protocol.max_time_s, 0.0);
  EXPECT_TRUE(std::isnan(back.mc.rel_ci_target));
  EXPECT_EQ(dump1, back.to_json().dump());
}

TEST(ExperimentSpec, ValidationErrorsNameTheJsonPath) {
  // Unknown backend (a parse-level error).
  {
    ExperimentSpec spec = small_spec();
    auto j = spec.to_json();
    auto backends = util::Json::array();
    backends.push_back(util::Json("analytic"));
    backends.push_back(util::Json("quantum"));
    j.set("backends", std::move(backends));
    try {
      (void)ExperimentSpec::from_json(j);
      FAIL() << "expected invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("spec.backends[1]"),
                std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("quantum"), std::string::npos);
    }
  }
  // Empty grid axis (numeric: "no values"; categorical: "no levels").
  {
    ExperimentSpec spec = small_spec();
    spec.axes[0].values.clear();
    try {
      spec.validate();
      FAIL() << "expected invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("spec.grid.axes[0]"),
                std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("no values"), std::string::npos);
    }
    ExperimentSpec cat = small_spec();
    AxisSpec shape;
    shape.param = "detection_shape";
    cat.axes = {shape};  // no levels
    try {
      cat.validate();
      FAIL() << "expected invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("spec.grid.axes[0].levels"),
                std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("no levels"), std::string::npos);
    }
  }
  // block > max_replications.
  {
    ExperimentSpec spec = small_spec();
    spec.mc.block = 128;
    spec.mc.max_replications = 64;
    spec.mc.min_replications = 32;
    try {
      spec.validate();
      FAIL() << "expected invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("spec.mc.block"),
                std::string::npos)
          << e.what();
    }
  }
  // Shard range outside the grid.
  {
    ExperimentSpec spec = small_spec();  // 4 points
    spec.shard.policy = ShardSpec::Policy::Explicit;
    spec.shard.range = {0, 40};
    try {
      spec.validate();
      FAIL() << "expected invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("spec.shard.range.end"),
                std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("outside"), std::string::npos);
    }
  }
  // Unknown axis parameter.
  {
    ExperimentSpec spec = small_spec();
    spec.axes[0].param = "warp_factor";
    EXPECT_THROW(spec.validate(), std::invalid_argument);
  }
  // shard_index out of range.
  {
    ExperimentSpec spec = small_spec();
    spec.shard.policy = ShardSpec::Policy::Contiguous;
    spec.shard.num_shards = 2;
    spec.shard.shard_index = 2;
    try {
      spec.validate();
      FAIL() << "expected invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("spec.shard.shard_index"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ExperimentService, ProtocolBackendRunsAndRecordsInvariants) {
  ExperimentSpec spec = core::experiment_preset("val_protocol", true);
  spec.axes[0].values = {60.0};  // one point keeps the test fast
  spec.mc.min_replications = 4;
  spec.mc.max_replications = 4;
  spec.mc.block = 2;

  ExperimentService service;
  const auto result = service.run(spec);
  const auto& protocol = result.at(BackendKind::ProtocolSim);
  ASSERT_EQ(protocol.mc.size(), 1u);
  EXPECT_EQ(protocol.mc[0].replications, 4u);
  EXPECT_TRUE(protocol.mc[0].keys_always_agreed);
  EXPECT_GT(protocol.mc[0].ttsf.mean, 0.0);
  // Analytic rides along in the same result.
  EXPECT_GT(result.at(BackendKind::Analytic).evals[0].mttsf, 0.0);
}

TEST(ExperimentService, ShardedRunsMergeBitwiseToTheFullGrid) {
  ExperimentSpec spec = small_spec();
  spec.backends = {BackendKind::Analytic, BackendKind::Des};

  ExperimentService service;
  const auto full = service.run(spec);

  for (const auto policy :
       {ShardSpec::Policy::Contiguous, ShardSpec::Policy::ByPilotCost}) {
    std::vector<ExperimentResult> parts;
    for (std::size_t s = 0; s < 3; ++s) {
      ExperimentSpec shard = spec;
      shard.shard.policy = policy;
      shard.shard.num_shards = 3;
      shard.shard.shard_index = s;
      shard.shard.pilot_replications = 4;
      parts.push_back(service.run(shard));
    }
    const auto merged = core::merge_experiment_results(parts);
    ASSERT_EQ(merged.range.end, full.range.end);
    const auto& fa = full.at(BackendKind::Analytic);
    const auto& ma = merged.at(BackendKind::Analytic);
    for (std::size_t i = 0; i < fa.evals.size(); ++i) {
      EXPECT_EQ(ma.evals[i].mttsf, fa.evals[i].mttsf) << i;
    }
    const auto& fd = full.at(BackendKind::Des);
    const auto& md = merged.at(BackendKind::Des);
    for (std::size_t i = 0; i < fd.mc.size(); ++i) {
      EXPECT_EQ(md.mc[i].ttsf_state.mean, fd.mc[i].ttsf_state.mean) << i;
      EXPECT_EQ(md.mc[i].ttsf_state.m2, fd.mc[i].ttsf_state.m2) << i;
      EXPECT_EQ(md.mc[i].replications, fd.mc[i].replications) << i;
    }

    // The fleet invariant, whole-document: after normalising the merge
    // provenance (what the coordinator does before answering), the
    // canonical JSON is byte-identical to the whole-grid run — Des
    // included.  This is what lets duplicate completions be verified
    // by bytes and the soak gate compare across process topologies.
    ExperimentResult normalised = merged;
    normalised.num_shards = 1;
    normalised.shard_index = 0;
    normalised.shard_policy = full.shard_policy;
    EXPECT_EQ(normalised.canonical_json().dump_compact(),
              full.canonical_json().dump_compact());
  }
}

TEST(ExperimentResult, WireFormatRoundTripsBitwise) {
  ExperimentSpec spec = small_spec();
  spec.backends = {BackendKind::Analytic, BackendKind::Des};
  ExperimentService service;
  const auto result = service.run(spec);

  const std::string dump1 = result.to_json().dump();
  const auto back = ExperimentResult::from_json(util::Json::parse(dump1));
  EXPECT_EQ(dump1, back.to_json().dump());

  // Re-imported summaries are rebuilt from raw states, bitwise.
  const auto& des = result.at(BackendKind::Des);
  const auto& des2 = back.at(BackendKind::Des);
  for (std::size_t i = 0; i < des.mc.size(); ++i) {
    EXPECT_EQ(des.mc[i].ttsf.mean, des2.mc[i].ttsf.mean) << i;
    EXPECT_EQ(des.mc[i].ttsf.ci_half_width, des2.mc[i].ttsf.ci_half_width)
        << i;
  }
}

TEST(ExperimentService, LegacySweepWrappersMatchTheService) {
  // core::sweep_t_ids (the examples' 1-D TIDS helper) must answer
  // exactly like a 1-axis spec through the service.
  core::Params base = core::Params::paper_defaults();
  base.n_init = 12;
  base.max_groups = 1;
  base.lambda_c = 1.0 / 1500.0;
  const std::vector<double> grid{60.0, 600.0};

  const auto legacy = core::sweep_t_ids(base, grid);

  ExperimentSpec spec;
  spec.name = "wrapper";
  spec.base = base;
  AxisSpec t;
  t.param = "t_ids";
  t.values = grid;
  spec.axes = {std::move(t)};
  ExperimentService service;
  const auto result = service.run(spec);
  const auto& evals = result.at(BackendKind::Analytic).evals;
  ASSERT_EQ(evals.size(), legacy.points.size());
  for (std::size_t i = 0; i < evals.size(); ++i) {
    EXPECT_EQ(evals[i].mttsf, legacy.points[i].eval.mttsf) << i;
  }
}

TEST(ExperimentPresets, EveryPresetValidatesAndBuildsItsGrid) {
  for (const auto& name : core::experiment_preset_names()) {
    for (const bool smoke : {false, true}) {
      const auto spec = core::experiment_preset(name, smoke);
      EXPECT_NO_THROW(spec.validate()) << name;
      EXPECT_GT(spec.grid().num_points(), 0u) << name;
      const auto dump = spec.to_json().dump();
      const auto back = ExperimentSpec::from_json(util::Json::parse(dump));
      EXPECT_EQ(dump, back.to_json().dump()) << name;
    }
  }
  EXPECT_THROW((void)core::experiment_preset("nope", false),
               std::invalid_argument);
}

TEST(ShardPlan, PilotCostPlanIsDeterministicAndTilesTheGrid) {
  ExperimentSpec spec = small_spec();
  const auto grid = spec.grid();
  sim::McOptions mc = spec.mc;
  mc.rel_ci_target = 0.05;  // adaptive: prediction path exercised
  mc.min_replications = 8;
  mc.max_replications = 1 << 12;

  const auto plan =
      core::ShardPlan::by_pilot_cost(grid, spec.base, 3, mc, 8);
  ASSERT_EQ(plan.num_shards(), 3u);
  EXPECT_EQ(plan.num_points(), grid.num_points());
  std::size_t cursor = 0;
  for (const auto& r : plan.ranges()) {
    EXPECT_EQ(r.begin, cursor);
    cursor = r.end;
  }
  EXPECT_EQ(cursor, grid.num_points());

  // Identical inputs → identical plan (workers need no coordination).
  const auto again =
      core::ShardPlan::by_pilot_cost(grid, spec.base, 3, mc, 8);
  EXPECT_EQ(plan.ranges(), again.ranges());

  // Degenerate shapes fall back safely.
  const auto one = core::ShardPlan::by_pilot_cost(grid, spec.base, 1, mc, 4);
  EXPECT_EQ(one.range(0), (core::ShardRange{0, grid.num_points()}));
  EXPECT_THROW(
      (void)core::ShardPlan::by_pilot_cost(grid, spec.base, 0, mc, 4),
      std::invalid_argument);
}

TEST(ShardPlan, PilotCostBalancesAHeterogeneousGrid) {
  // Fast-detection (TIDS 15 s) points survive far longer than
  // slow-detection (TIDS 1200 s) ones, so their trajectories cost far
  // more: a point-balanced split piles all the expensive points into
  // one shard, while the pilot-cost split moves the boundary so
  // predicted work — not point count — balances.
  core::Params base = core::Params::paper_defaults();
  base.n_init = 12;
  base.max_groups = 1;
  base.lambda_c = 1.0 / 1500.0;
  core::GridSpec grid;
  grid.t_ids({15, 15, 15, 1200, 1200, 1200});

  sim::McOptions mc;
  mc.base_seed = 0x7E57;
  mc.rel_ci_target = 0.0;
  mc.min_replications = 16;
  mc.max_replications = 16;

  const auto plan = core::ShardPlan::by_pilot_cost(grid, base, 2, mc, 8);
  EXPECT_EQ(plan.range(0).end, plan.range(1).begin);
  EXPECT_EQ(plan.range(1).end, grid.num_points());

  // Per-point cost proxy from an identical deterministic pilot.
  sim::McOptions pilot = mc;
  pilot.min_replications = 8;
  pilot.max_replications = 8;
  sim::MonteCarloEngine engine(pilot);
  const auto est = engine.run_des(grid.expand(base));
  const auto shard_cost = [&](const core::ShardRange& r) {
    double cost = 0.0;
    for (std::size_t i = r.begin; i < r.end; ++i) cost += est[i].ttsf.mean;
    return cost;
  };
  const auto imbalance = [&](const core::ShardPlan& p) {
    const double a = shard_cost(p.range(0));
    const double b = shard_cost(p.range(1));
    return std::max(a, b) / std::max(std::min(a, b), 1e-300);
  };
  const auto contiguous = core::ShardPlan::contiguous(grid.num_points(), 2);
  EXPECT_LT(imbalance(plan), imbalance(contiguous));
  EXPECT_NE(plan.range(0).size(), contiguous.range(0).size());
}

/// Expects `call` to throw std::invalid_argument and returns its
/// message so the test can assert WHICH shards the error names.
template <typename Call>
std::string merge_error(Call&& call) {
  try {
    call();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected merge to reject the part set";
  return {};
}

TEST(ExperimentMerge, ErrorsNameTheGuiltyShardIndices) {
  ExperimentSpec spec = small_spec();
  spec.backends = {BackendKind::Analytic};
  ExperimentService service;
  std::vector<ExperimentResult> parts;
  for (std::size_t s = 0; s < 3; ++s) {
    ExperimentSpec shard = spec;
    shard.shard.policy = ShardSpec::Policy::Contiguous;
    shard.shard.num_shards = 3;
    shard.shard.shard_index = s;
    parts.push_back(service.run(shard));
  }

  // Shard 1 missing: the gap error names the uncovered points and the
  // shards on either side — not a generic "bad tiling".
  const std::vector<ExperimentResult> gap = {parts[0], parts[2]};
  std::string what =
      merge_error([&] { (void)core::merge_experiment_results(gap); });
  EXPECT_NE(what.find("covered by no shard"), std::string::npos) << what;
  EXPECT_NE(what.find("shard 0"), std::string::npos) << what;
  EXPECT_NE(what.find("shard 2"), std::string::npos) << what;

  // The same shard twice is called out by index.
  const std::vector<ExperimentResult> dup = {parts[0], parts[1], parts[1]};
  what = merge_error([&] { (void)core::merge_experiment_results(dup); });
  EXPECT_NE(what.find("duplicate shard 1"), std::string::npos) << what;

  // Overlapping ranges name both offenders.
  std::vector<ExperimentResult> overlap = parts;
  overlap[2] = parts[1];
  overlap[2].shard_index = 2;
  what = merge_error([&] { (void)core::merge_experiment_results(overlap); });
  EXPECT_NE(what.find("overlap"), std::string::npos) << what;
  EXPECT_NE(what.find("shard 1"), std::string::npos) << what;
  EXPECT_NE(what.find("shard 2"), std::string::npos) << what;

  // A part produced by a different spec is rejected by index too.
  std::vector<ExperimentResult> alien = parts;
  alien[1].spec.base.n_init += 1;
  what = merge_error([&] { (void)core::merge_experiment_results(alien); });
  EXPECT_NE(what.find("shard 1"), std::string::npos) << what;
  EXPECT_NE(what.find("different spec"), std::string::npos) << what;
}

// --- Seeded merge fuzz: shard sets cut from a small analytic + DES grid.
// Every complete set, in any order and under any shard labels, merges
// to the single-process bytes; a set with one defect — a duplicated,
// missing, overlapping or out-of-grid shard, a different spec or a
// different backend list — is rejected naming the guilty shard.

TEST(ExperimentMerge, SeededFuzzMergesCompleteSetsAndNamesTheGuiltyShard) {
  ExperimentSpec spec = small_spec();
  spec.backends = {BackendKind::Analytic, BackendKind::Des};
  spec.axes[1].values = {60.0, 240.0, 600.0};  // 2 × 3 points
  ExperimentService service;
  const ExperimentResult full = service.run(spec);
  const std::string full_bytes = full.canonical_json().dump_compact();
  const std::size_t points = full.range.end;

  // Every contiguous slice of the grid, run once as an explicit shard.
  std::map<std::pair<std::size_t, std::size_t>, ExperimentResult> slices;
  for (std::size_t b = 0; b < points; ++b) {
    for (std::size_t e = b + 1; e <= points; ++e) {
      ExperimentSpec shard = spec;
      shard.shard.policy = ShardSpec::Policy::Explicit;
      shard.shard.range = {b, e};
      slices.emplace(std::pair{b, e}, service.run(shard));
    }
  }
  const auto slice = [&](std::size_t b, std::size_t e, std::size_t label) {
    ExperimentResult part = slices.at({b, e});
    part.shard_index = label;
    return part;
  };

  std::mt19937_64 rng(0x6D65726765ULL);
  const auto draw = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  const auto shuffle = [&](auto& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[draw(i)]);
    }
  };
  const auto expect_rejected = [&](const std::vector<ExperimentResult>& bad,
                                   const std::string& needle,
                                   const char* defect) {
    const std::string what =
        merge_error([&] { (void)core::merge_experiment_results(bad); });
    EXPECT_NE(what.find(needle), std::string::npos)
        << defect << ": '" << needle << "' not in: " << what;
  };

  for (int trial = 0; trial < 60; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    // A random tiling of the grid, in shuffled order, under shuffled
    // labels.
    std::vector<ShardRange> ranges;
    for (std::size_t b = 0; b < points;) {
      const std::size_t e = b + 1 + draw(points - b);
      ranges.push_back({b, e});
      b = e;
    }
    shuffle(ranges);
    std::vector<std::size_t> labels(ranges.size());
    for (std::size_t i = 0; i < labels.size(); ++i) labels[i] = i;
    shuffle(labels);
    std::vector<ExperimentResult> parts;
    for (std::size_t i = 0; i < ranges.size(); ++i) {
      parts.push_back(slice(ranges[i].begin, ranges[i].end, labels[i]));
    }

    ExperimentResult merged = core::merge_experiment_results(parts);
    merged.num_shards = 1;
    merged.shard_index = 0;
    merged.shard_policy = full.shard_policy;
    EXPECT_EQ(merged.canonical_json().dump_compact(), full_bytes);

    // One defect at a time, on a random part, the first one included.
    const std::size_t g = draw(parts.size());
    const ShardRange r = parts[g].range;
    const std::string guilty = "shard " + std::to_string(parts[g].shard_index);

    auto bad = parts;
    bad.insert(bad.begin() + static_cast<std::ptrdiff_t>(draw(bad.size() + 1)),
               parts[g]);
    expect_rejected(bad, "duplicate " + guilty, "duplicated");

    if (parts.size() > 1) {
      bad = parts;
      bad.erase(bad.begin() + static_cast<std::ptrdiff_t>(g));
      expect_rejected(bad,
                      "points [" + std::to_string(r.begin) + ", " +
                          std::to_string(r.end) + ") are covered by no shard",
                      "missing");
    }

    if (parts.size() > 1) {
      bad = parts;
      bad[g] = r.end < points ? slice(r.begin, r.end + 1, parts[g].shard_index)
                              : slice(r.begin - 1, r.end, parts[g].shard_index);
      expect_rejected(bad, guilty, "overlapping");
      expect_rejected(bad, "overlap", "overlapping");
    }

    bad = parts;
    bad[g].range = {r.begin + points, r.end + points};
    expect_rejected(bad, guilty + " [", "out-of-grid");

    if (parts.size() > 1) {  // a lone part has nothing to disagree with
      bad = parts;
      bad[g].spec.base.lambda_c *= 2.0;
      expect_rejected(bad, guilty, "different spec");

      bad = parts;
      std::swap(bad[g].backends[0], bad[g].backends[1]);
      expect_rejected(bad, guilty, "different backend list");
      bad[g].backends.pop_back();
      expect_rejected(bad, guilty, "shorter backend list");
    }
  }
}

TEST(ExperimentResult, CanonicalJsonZeroesOnlyWallClockTimings) {
  ExperimentSpec spec = small_spec();
  spec.backends = {BackendKind::Analytic};
  ExperimentService service;
  const ExperimentResult result = service.run(spec);

  // Two copies that differ ONLY in wall-clock timings...
  ExperimentResult fast = result;
  ExperimentResult slow = result;
  for (auto& run : fast.backends) {
    run.seconds = 0.001;
    run.mc_stats.seconds = 0.0005;
  }
  for (auto& run : slow.backends) {
    run.seconds = 982.0;
    run.mc_stats.seconds = 14.5;
  }
  ASSERT_NE(fast.to_json().dump(), slow.to_json().dump());
  // ...are canonically identical: timing never affects payload identity.
  EXPECT_EQ(fast.canonical_json().dump_compact(),
            slow.canonical_json().dump_compact());

  // And the canonical form changes when the PAYLOAD changes.
  ExperimentResult tampered = fast;
  tampered.backends[0].evals[0].mttsf += 1.0;
  EXPECT_NE(tampered.canonical_json().dump_compact(),
            fast.canonical_json().dump_compact());
}

}  // namespace
