// core::StructurePlan against the generic path: its rates and impulses
// must be bitwise spn::ReachabilityGraph::compute_rates_batch over the
// models' nets (PetriNet::rate/impulse per point, no hook), and rewards
// through the plan with factor reuse off must be bitwise
// GcsSpnModel::evaluate_reference().  The cases cover static and
// entropy detectors, both attacker-progress modes (also mixed in one
// batch), max_groups 1 and 3, Byzantine fractions 1/3 and 0.6, the
// p1/p2 corners validate() accepts, and batch widths 1, 3, 8 and 17
// (compile-time and runtime lane counts).
#include "core/structure_plan.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/params.h"
#include "core/sweep_engine.h"
#include "spn/absorbing.h"
#include "spn/reachability.h"
#include "util/arena.h"

namespace {

using namespace midas;
using core::Params;

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_bitwise(double a, double b, const std::string& what) {
  EXPECT_EQ(bits(a), bits(b)) << what << ": " << a << " vs " << b;
}

struct Case {
  std::string name;
  Params base;
};

Params small_base() {
  Params p = Params::paper_defaults();
  p.n_init = 12;
  p.max_groups = 3;
  return p;
}

std::vector<Case> cases() {
  std::vector<Case> out;
  out.push_back({"static, ratio, 3 groups", small_base()});
  {
    Params p = small_base();
    p.detector.kind = ids::DetectorKind::Entropy;
    p.detector.entropy_weight = 0.5;
    out.push_back({"entropy detector", p});
  }
  {
    Params p = small_base();
    p.attacker_progress = core::AttackerProgress::CampaignProgress;
    out.push_back({"campaign progress", p});
  }
  {
    Params p = small_base();
    p.max_groups = 1;
    out.push_back({"one group", p});
  }
  {
    Params p = small_base();
    p.byzantine_fraction = 0.6;
    out.push_back({"Byzantine fraction 0.6", p});
  }
  const double corners[][2] = {{0.0, 0.01}, {1.0, 0.01}, {0.01, 0.0},
                               {0.01, 1.0}, {0.0, 0.0},  {1.0, 1.0}};
  for (const auto& c : corners) {
    Params p = small_base();
    p.p1 = c[0];
    p.p2 = c[1];
    out.push_back({"p1=" + std::to_string(c[0]) + " p2=" +
                       std::to_string(c[1]),
                   p});
  }
  return out;
}

/// 17 points on `base`'s structure: TIDS moves every point, the shapes
/// and λc every few points (so some columns repeat and some do not),
/// m where the structure key allows it, and the progress mode on a
/// mixed-mode case.
std::vector<Params> points_on(const Params& base, bool mix_progress) {
  const ids::Shape shapes[] = {ids::Shape::Logarithmic, ids::Shape::Linear,
                               ids::Shape::Polynomial};
  const std::string key = core::structure_key(base);
  std::vector<Params> pts;
  for (std::size_t i = 0; i < 17; ++i) {
    Params p = base;
    p.t_ids = 15.0 + 37.5 * static_cast<double>(i % 9);
    p.detection_shape = shapes[(i / 2) % 3];
    p.attacker_shape = shapes[(i / 3) % 3];
    p.lambda_c = base.lambda_c * (1.0 + static_cast<double>(i / 6));
    Params m = p;
    m.num_voters = 3 + 2 * static_cast<std::int64_t>(i % 3);
    if (core::structure_key(m) == key) p = m;
    if (mix_progress && i % 4 == 1) {
      p.attacker_progress = core::AttackerProgress::CampaignProgress;
    }
    EXPECT_EQ(core::structure_key(p), key) << "point " << i;
    pts.push_back(p);
  }
  return pts;
}

/// The models of `pts`, their structure explored from the first, and
/// the structure's plan.
struct Batch {
  explicit Batch(const std::vector<Params>& pts) {
    for (const auto& p : pts) models.emplace_back(p);
    for (const auto& m : models) {
      ptrs.push_back(&m);
      nets.push_back(&m.net());
    }
    graph = spn::explore(models.front().net());
    plan = std::make_unique<core::StructurePlan>(models.front(), graph);
  }

  std::deque<core::GcsSpnModel> models;  // immovable
  std::vector<const core::GcsSpnModel*> ptrs;
  std::vector<const spn::PetriNet*> nets;
  spn::ReachabilityGraph graph;
  std::unique_ptr<core::StructurePlan> plan;
};

void expect_plan_matches_generic(const Batch& b, std::size_t width,
                                 const std::string& tag) {
  const std::size_t E = b.graph.edges.size();
  const std::span<const core::GcsSpnModel* const> models(b.ptrs.data(),
                                                         width);
  const std::span<const spn::PetriNet* const> nets(b.nets.data(), width);
  std::vector<double> want_rates(E * width), want_impulses(E * width);
  b.graph.compute_rates_batch(nets, want_rates, want_impulses);
  std::vector<double> rates(E * width), impulses(E * width);
  b.plan->rate(models, rates, impulses);
  for (std::size_t i = 0; i < E * width; ++i) {
    const std::string at = tag + ", width " + std::to_string(width) +
                           ", edge " + std::to_string(i / width) +
                           ", point " + std::to_string(i % width);
    expect_bitwise(rates[i], want_rates[i], at + " rate");
    expect_bitwise(impulses[i], want_impulses[i], at + " impulse");
  }
}

TEST(StructurePlan, RatesAreBitwiseTheGenericPath) {
  for (const auto& c : cases()) {
    const Batch b(points_on(c.base, false));
    for (const std::size_t width : {1u, 3u, 8u, 17u}) {
      expect_plan_matches_generic(b, width, c.name);
    }
  }
}

TEST(StructurePlan, MixedProgressModesShareOnePlan) {
  // attacker_progress is not part of the structure key, so one batch
  // can mix the modes; each point reads its own mode's mc.
  const Batch b(points_on(small_base(), true));
  for (const std::size_t width : {1u, 3u, 8u, 17u}) {
    expect_plan_matches_generic(b, width, "mixed progress");
  }
}

TEST(StructurePlan, RewardsAreBitwiseEvaluateReference) {
  // Factor reuse off: the plan's re-rate, solve_batch and the plan's
  // reward pass against the oracle that shares none of them.
  for (const auto& c : cases()) {
    const Batch b(points_on(c.base, c.name == "campaign progress"));
    const spn::AbsorbingAnalyzer analyzer(b.graph);
    for (const std::size_t width : {1u, 8u, 17u}) {
      const std::size_t E = b.graph.edges.size();
      std::vector<double> rates(E * width), impulses(E * width);
      const std::span<const core::GcsSpnModel* const> models(b.ptrs.data(),
                                                             width);
      b.plan->rate(models, rates, impulses);
      util::Arena arena;
      const auto evals = core::evaluate_with_batch(
          models, analyzer, *b.plan, rates, impulses, false, arena);
      for (std::size_t p = 0; p < width; ++p) {
        const auto want = b.models[p].evaluate_reference();
        const auto& got = evals[p];
        const std::string at = c.name + ", width " + std::to_string(width) +
                               ", point " + std::to_string(p);
        expect_bitwise(got.mttsf, want.mttsf, at + " mttsf");
        expect_bitwise(got.ctotal, want.ctotal, at + " ctotal");
        expect_bitwise(got.cost_rates.group_comm, want.cost_rates.group_comm,
                       at + " group_comm");
        expect_bitwise(got.cost_rates.status, want.cost_rates.status,
                       at + " status");
        expect_bitwise(got.cost_rates.rekey, want.cost_rates.rekey,
                       at + " rekey");
        expect_bitwise(got.cost_rates.ids, want.cost_rates.ids, at + " ids");
        expect_bitwise(got.cost_rates.beacon, want.cost_rates.beacon,
                       at + " beacon");
        expect_bitwise(got.cost_rates.partition_merge,
                       want.cost_rates.partition_merge, at + " pm");
        expect_bitwise(got.eviction_cost_rate, want.eviction_cost_rate,
                       at + " eviction");
        expect_bitwise(got.p_failure_c1, want.p_failure_c1, at + " c1");
        expect_bitwise(got.p_failure_c2, want.p_failure_c2, at + " c2");
      }
    }
  }
}

TEST(StructurePlan, RejectsModelsOfAnotherStructure) {
  const Batch b({small_base()});
  Params entropy = small_base();
  entropy.detector.kind = ids::DetectorKind::Entropy;
  const core::GcsSpnModel other(entropy);
  const core::GcsSpnModel* models[] = {b.ptrs[0], &other};
  const std::size_t E = b.graph.edges.size();
  std::vector<double> rates(E * 2), impulses(E * 2);
  EXPECT_THROW(b.plan->rate(models, rates, impulses), std::invalid_argument);
  EXPECT_THROW(b.plan->rate({}, {}, {}), std::invalid_argument);
  std::vector<double> short_span(E * 2 - 1);
  EXPECT_THROW(b.plan->rate(models, short_span, impulses),
               std::invalid_argument);
}

}  // namespace
