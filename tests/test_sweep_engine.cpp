// Sweep-engine equivalence: the cached-structure re-rating path must
// reproduce fresh per-point exploration bit-for-bit (1e-12 relative
// bound per the acceptance criterion; in practice the accumulation
// order is identical and the agreement is exact), and phased points
// must share the engine's structure cache.
#include "core/sweep_engine.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>

#include "core/experiment.h"
#include "core/mission.h"
#include "spn/absorbing.h"
#include "util/arena.h"

namespace {

using namespace midas;
using core::Params;

Params small_params() {
  Params p = Params::paper_defaults();
  p.n_init = 20;
  p.max_groups = 1;
  return p;
}

/// `base` at every TIDS in `grid`.
std::vector<Params> tids_points(const Params& base,
                                const std::vector<double>& grid) {
  std::vector<Params> points;
  for (const double t : grid) {
    Params p = base;
    p.t_ids = t;
    points.push_back(p);
  }
  return points;
}

/// All metrics the paper reports, within `tol` relative.
void expect_evaluations_match(const core::Evaluation& a,
                              const core::Evaluation& b, double tol) {
  const auto rel = [tol](double x, double y) {
    const double scale = std::max({std::fabs(x), std::fabs(y), 1e-300});
    return std::fabs(x - y) / scale <= tol;
  };
  EXPECT_EQ(a.num_states, b.num_states);
  EXPECT_TRUE(rel(a.mttsf, b.mttsf)) << a.mttsf << " vs " << b.mttsf;
  EXPECT_TRUE(rel(a.ctotal, b.ctotal)) << a.ctotal << " vs " << b.ctotal;
  EXPECT_TRUE(rel(a.cost_rates.group_comm, b.cost_rates.group_comm));
  EXPECT_TRUE(rel(a.cost_rates.status, b.cost_rates.status));
  EXPECT_TRUE(rel(a.cost_rates.rekey, b.cost_rates.rekey));
  EXPECT_TRUE(rel(a.cost_rates.ids, b.cost_rates.ids));
  EXPECT_TRUE(rel(a.cost_rates.beacon, b.cost_rates.beacon));
  EXPECT_TRUE(
      rel(a.cost_rates.partition_merge, b.cost_rates.partition_merge));
  EXPECT_TRUE(rel(a.eviction_cost_rate, b.eviction_cost_rate));
  EXPECT_TRUE(rel(a.p_failure_c1, b.p_failure_c1))
      << a.p_failure_c1 << " vs " << b.p_failure_c1;
  EXPECT_TRUE(rel(a.p_failure_c2, b.p_failure_c2));
}

TEST(StructureKey, SharedAcrossRateOnlyChanges) {
  const Params base = small_params();
  const auto key = core::structure_key(base);

  Params t = base;
  t.t_ids = 7.5;
  EXPECT_EQ(core::structure_key(t), key);

  Params m = base;
  m.num_voters = 9;
  EXPECT_EQ(core::structure_key(m), key);

  Params shape = base;
  shape.detection_shape = ids::Shape::Polynomial;
  shape.attacker_shape = ids::Shape::Logarithmic;
  EXPECT_EQ(core::structure_key(shape), key);

  Params err = base;
  err.p1 = 0.05;
  err.p2 = 0.002;
  EXPECT_EQ(core::structure_key(err), key);
}

TEST(StructureKey, DistinctAcrossStructuralChanges) {
  const Params base = Params::paper_defaults();
  const auto key = core::structure_key(base);

  Params n = base;
  n.n_init = 50;
  EXPECT_NE(core::structure_key(n), key);

  Params g = base;
  g.max_groups = 1;
  EXPECT_NE(core::structure_key(g), key);

  Params rates = base;
  rates.partition_rates[1] = 0.0;  // removes the 1→2 partition edge
  EXPECT_NE(core::structure_key(rates), key);

  Params zero = base;
  zero.p2 = 0.0;  // kills every T_FA edge
  EXPECT_NE(core::structure_key(zero), key);

  // Beyond byzantine_fraction = 1/2 a transient marking can hold more
  // compromised than trusted members per group, where the T_IDS
  // zero-pattern (pfn = 1 exactly) depends on m — no sharing across m.
  Params loose_a = base;
  loose_a.byzantine_fraction = 0.75;
  loose_a.num_voters = 3;
  Params loose_b = loose_a;
  loose_b.num_voters = 9;
  EXPECT_NE(core::structure_key(loose_a), core::structure_key(loose_b));
}

TEST(AbsorbingAnalyzer, ImpulseRewardHonoursRateOverride) {
  // Regression for the stored-rate defect: the eviction reward once
  // multiplied sojourn by the graph's stored e.rate even when the
  // sojourns came from re-rated edges — silently mixing two parameter
  // points' eviction costs.  Point A's structure re-rated to point B
  // (t_ids differs, so T_IDS/T_FA rates differ while the impulses
  // coincide) must reproduce point B's eviction cost rate, and must NOT
  // equal point A's.
  Params a = small_params();
  a.t_ids = 120.0;
  Params b = small_params();
  b.t_ids = 30.0;

  const core::GcsSpnModel model_a(a);
  const core::GcsSpnModel model_b(b);
  const auto graph_a = spn::explore(model_a.net());
  const spn::AbsorbingAnalyzer analyzer(graph_a);

  const std::size_t edges = graph_a.edges.size();
  std::vector<double> rates_b(edges);
  std::vector<double> impulses_b(edges);
  const spn::PetriNet* net_b = &model_b.net();
  graph_a.compute_rates_batch({&net_b, 1}, rates_b, impulses_b);
  const core::GcsSpnModel* batch[] = {&model_b};
  util::Arena arena;
  const auto ev = core::evaluate_with_batch(batch, analyzer, rates_b,
                                            impulses_b, true, arena);

  // Oracle: point B on its own freshly explored graph, scalar solve.
  const auto want = model_b.evaluate_reference();
  ASSERT_GT(want.eviction_cost_rate, 0.0);
  EXPECT_EQ(ev.front().eviction_cost_rate, want.eviction_cost_rate);
  EXPECT_EQ(ev.front().ctotal, want.ctotal);

  const auto stored = model_a.evaluate_reference();
  EXPECT_GT(std::fabs(stored.eviction_cost_rate - want.eviction_cost_rate),
            1e-3 * want.eviction_cost_rate);
}

TEST(SweepEngine, RejectsMismatchedRateSpans) {
  const core::GcsSpnModel model(small_params());
  const spn::AbsorbingAnalyzer analyzer(model.graph());
  const std::size_t edges = model.graph().edges.size();

  std::vector<double> wrong(edges - 1, 1.0);
  EXPECT_THROW((void)analyzer.solve(wrong), std::invalid_argument);

  // Spans must hold edge count x batch size doubles each: a short span,
  // or rates and impulses sized for different batches, would read past
  // the matrix or blend two points.
  const core::GcsSpnModel* batch[] = {&model, &model};
  std::vector<double> rates(2 * edges, 1.0);
  std::vector<double> one_point(edges, 1.0);
  util::Arena arena;
  EXPECT_THROW((void)core::evaluate_with_batch(batch, analyzer, rates,
                                               one_point, true, arena),
               std::invalid_argument);
  EXPECT_THROW((void)core::evaluate_with_batch(batch, analyzer, one_point,
                                               rates, true, arena),
               std::invalid_argument);
  EXPECT_THROW((void)core::evaluate_with_batch(
                   std::span<const core::GcsSpnModel* const>{}, analyzer,
                   {}, {}, true, arena),
               std::invalid_argument);
}

TEST(ReachabilityCsr, AdjacencyIsConsistent) {
  const core::GcsSpnModel model(small_params());
  const auto g = spn::explore(model.net());

  ASSERT_EQ(g.edge_offsets.size(), g.num_states() + 1);
  EXPECT_EQ(g.edge_offsets.front(), 0u);
  EXPECT_EQ(g.edge_offsets.back(), g.edges.size());
  for (spn::StateId s = 0; s < g.num_states(); ++s) {
    EXPECT_LE(g.edge_offsets[s], g.edge_offsets[s + 1]);
    for (const auto& e : g.out_edges(s)) {
      EXPECT_EQ(e.src, s);
      EXPECT_LT(e.dst, g.num_states());
      EXPECT_GT(e.rate, 0.0);
    }
  }

  // The mask from CSR ranges must agree with a flat-edge-list scan.
  const auto mask = g.absorbing_mask();
  std::vector<char> brute(g.num_states(), 1);
  for (const auto& e : g.edges) {
    if (e.src != e.dst) brute[e.src] = 0;
  }
  EXPECT_EQ(mask, brute);
}

TEST(ReachabilityCsr, RefreshRatesMatchesFreshExploration) {
  // Re-rating a cached structure for another point (one net through
  // compute_rates_batch) must give bitwise the rates and impulses that
  // exploring that point's net stores on its edges.
  Params a = small_params();
  a.t_ids = 120.0;
  Params b = small_params();
  b.t_ids = 30.0;
  b.detection_shape = ids::Shape::Polynomial;

  const core::GcsSpnModel model_a(a);
  const core::GcsSpnModel model_b(b);
  const auto cached = spn::explore(model_a.net());
  const auto fresh = spn::explore(model_b.net());
  ASSERT_EQ(cached.num_states(), fresh.num_states());
  ASSERT_EQ(cached.edges.size(), fresh.edges.size());

  std::vector<double> rates(cached.edges.size());
  std::vector<double> impulses(cached.edges.size());
  const spn::PetriNet* net_b = &model_b.net();
  cached.compute_rates_batch({&net_b, 1}, rates, impulses);
  for (std::size_t i = 0; i < fresh.edges.size(); ++i) {
    EXPECT_EQ(cached.edges[i].src, fresh.edges[i].src);
    EXPECT_EQ(cached.edges[i].dst, fresh.edges[i].dst);
    EXPECT_EQ(cached.edges[i].transition, fresh.edges[i].transition);
    EXPECT_EQ(rates[i], fresh.edges[i].rate) << "edge " << i;
    EXPECT_EQ(impulses[i], fresh.edges[i].impulse) << "edge " << i;
  }
}

TEST(SweepEngine, MatchesFreshPerPointEvaluation) {
  const std::vector<double> grid{30, 120, 480};
  std::vector<Params> points;
  for (const int m : {3, 5}) {
    for (const auto shape : {ids::Shape::Logarithmic, ids::Shape::Linear,
                             ids::Shape::Polynomial}) {
      for (const double t : grid) {
        Params p = small_params();
        p.num_voters = m;
        p.detection_shape = shape;
        p.t_ids = t;
        points.push_back(p);
      }
    }
  }

  core::SweepEngine engine;
  const auto evals = engine.evaluate(points, core::kDefaultBatchWidth);
  ASSERT_EQ(evals.size(), points.size());
  EXPECT_EQ(engine.stats().explorations, 1u);
  EXPECT_EQ(engine.stats().points, points.size());

  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto reference = core::GcsSpnModel(points[i]).evaluate_reference();
    expect_evaluations_match(evals[i], reference, 1e-12);
  }
}

TEST(SweepEngine, MatchesOnPartitionMergeConfiguration) {
  // The max_groups > 1 birth–death structure: group-count cycles make
  // the SCC condensation non-trivial, and T_PAR/T_MER edges must
  // re-rate correctly.
  Params base = Params::paper_defaults();
  base.n_init = 20;
  ASSERT_GT(base.max_groups, 1);

  const std::vector<double> grid{15, 120, 600};
  core::SweepEngine engine;
  const auto evals =
      engine.evaluate(tids_points(base, grid), core::kDefaultBatchWidth);
  EXPECT_EQ(engine.stats().explorations, 1u);

  for (std::size_t i = 0; i < grid.size(); ++i) {
    Params p = base;
    p.t_ids = grid[i];
    const auto reference = core::GcsSpnModel(p).evaluate_reference();
    expect_evaluations_match(evals[i], reference, 1e-12);
  }
}

TEST(SweepEngine, StructureCachePersistsAcrossCalls) {
  const std::vector<double> grid{60, 240};
  core::SweepEngine engine;
  for (const int m : {3, 5, 7}) {
    Params p = small_params();
    p.num_voters = m;
    (void)engine.evaluate(tids_points(p, grid), core::kDefaultBatchWidth);
  }
  EXPECT_EQ(engine.stats().explorations, 1u);
  EXPECT_EQ(engine.stats().points, 6u);
}

TEST(SweepEngine, ThreadCountDoesNotChangeResults) {
  const auto points = tids_points(small_params(), {30, 120, 480});
  core::SweepEngine serial(1);
  core::SweepEngine parallel(4);
  for (const std::size_t width : {std::size_t{1}, core::kDefaultBatchWidth}) {
    const auto a = serial.evaluate(points, width);
    const auto b = parallel.evaluate(points, width);
    for (std::size_t i = 0; i < points.size(); ++i) {
      expect_evaluations_match(a[i], b[i], 0.0);
    }
  }
}

// --- One structure cache behind every analytic answer: mission
// segments look their structures up in the engine's cache, so a warm
// service explores nothing for a phased point, and equal segment keys
// share one exploration at any index.

/// small_params() on a three-phase mission that moves λc only, never a
/// zero pattern: every segment has the constant base's structure key.
Params phased_params() {
  Params p = small_params();
  p.mission.phases = {core::MissionPhase{}, core::MissionPhase{},
                      core::MissionPhase{}};
  p.mission.phases[0].name = "calm";
  p.mission.phases[0].duration_s = 3600.0;
  p.mission.phases[1].name = "surge";
  p.mission.phases[1].duration_s = 7200.0;
  p.mission.phases[1].lambda_c = 4.0 * p.lambda_c;
  p.mission.phases[2].name = "recovery";
  return p;
}

/// An analytic request over `base` at every TIDS in `grid`.
core::ExperimentSpec tids_spec(const Params& base, std::vector<double> grid) {
  core::ExperimentSpec spec;
  spec.name = "one-cache";
  spec.base = base;
  core::AxisSpec axis;
  axis.param = "t_ids";
  axis.values = std::move(grid);
  spec.axes = {std::move(axis)};
  return spec;
}

TEST(SweepEngine, WarmServiceExploresNothingForPhasedOrConstantRequests) {
  core::ExperimentService service(
      core::ExperimentServiceOptions{.threads = 2});
  const auto& stats = service.sweep_engine().stats();
  for (const auto& grid :
       {std::vector<double>{60, 240}, std::vector<double>{30, 480}}) {
    const auto spec = tids_spec(phased_params(), grid);
    const auto evals = service.run(spec).at(core::BackendKind::Analytic).evals;
    EXPECT_EQ(stats.explorations, 1u);
    ASSERT_EQ(evals.size(), grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
      const auto standalone =
          core::MissionAnalyzer(spec.grid().point(spec.base, i)).evaluate();
      expect_evaluations_match(evals[i], standalone, 0.0);
    }
  }
  // The constant base has the phases' key, so it shares their entry.
  (void)service.run(tids_spec(small_params(), {60, 240}));
  EXPECT_EQ(stats.explorations, 1u);
  EXPECT_EQ(stats.points, 6u);
}

TEST(SweepEngine, PhasedGridBytesDoNotDependOnTheThreadCount) {
  const auto spec = tids_spec(phased_params(), {30, 60, 120, 240, 480});
  const auto bytes_at = [&](std::size_t threads) {
    core::ExperimentService service(
        core::ExperimentServiceOptions{.threads = threads});
    return service.run(spec).canonical_json().dump_compact();
  };
  EXPECT_EQ(bytes_at(1), bytes_at(4));
}

TEST(SweepEngine, EqualSegmentKeysShareOneExplorationAtAnyIndex) {
  // λc = 0 removes the T_CP edges, so phase 0 has a key of its own;
  // phases 1 and 2 differ in λc only and share the other.
  Params p = small_params();
  p.mission.phases = {core::MissionPhase{}, core::MissionPhase{},
                      core::MissionPhase{}};
  p.mission.phases[0].name = "quiet";
  p.mission.phases[0].duration_s = 36000.0;
  p.mission.phases[0].lambda_c = 0.0;
  p.mission.phases[1].name = "attack";
  p.mission.phases[1].duration_s = 36000.0;
  p.mission.phases[2].name = "surge";
  p.mission.phases[2].lambda_c = 3.0 * p.lambda_c;
  const auto timeline = core::resolve_timeline(p);
  ASSERT_EQ(timeline.size(), 3u);
  const auto key = [&](std::size_t k) {
    return core::structure_key(timeline[k].params);
  };
  ASSERT_NE(key(0), key(1));
  ASSERT_EQ(key(1), key(2));

  core::SweepEngine engine(1);
  const auto evals =
      engine.evaluate(std::vector<Params>{p}, core::kDefaultBatchWidth);
  EXPECT_EQ(engine.stats().explorations, 2u);
  expect_evaluations_match(evals[0], core::MissionAnalyzer(p).evaluate(),
                           0.0);
}

TEST(SweepResult, EmptyResultThrowsInsteadOfUb) {
  // Regression: argmax/argmin on an empty sweep must throw, never index
  // points[0].
  const core::SweepResult empty;
  EXPECT_THROW((void)empty.argmax_mttsf(), std::logic_error);
  EXPECT_THROW((void)empty.argmin_ctotal(), std::logic_error);
  EXPECT_THROW((void)empty.best_mttsf(), std::logic_error);
  EXPECT_THROW((void)empty.best_ctotal(), std::logic_error);
}

TEST(GcsSpnModel, GraphIsCachedAcrossUses) {
  const core::GcsSpnModel model(small_params());
  const auto* first = &model.graph();
  const auto* second = &model.graph();
  EXPECT_EQ(first, second);

  // evaluate() and reliability_at() share the cached exploration and
  // stay consistent with the reference path.
  const auto ev = model.evaluate();
  const auto reference = model.evaluate_reference();
  expect_evaluations_match(ev, reference, 1e-12);
  const std::vector<double> times{0.0};
  const auto rel = model.reliability_at(times);
  ASSERT_EQ(rel.size(), 1u);
  EXPECT_NEAR(rel[0], 1.0, 1e-9);
}

}  // namespace
