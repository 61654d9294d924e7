// Batched multi-point solver equivalence: spn::TransientStructure's
// lane-generic kernels, and spn::AbsorbingAnalyzer::solve_batch on them,
// must reproduce the scalar substitution oracle (tests/oracle) BITWISE
// with factor reuse off and within 1e-12 relative with reuse on, at
// shift 0 and at a θ-step shift, with one lane or many; the layers
// above it —
// evaluate_with_batch, SweepEngine's batch chunking and
// GcsSpnModel::evaluate() — must reproduce the independent per-point
// reference and agree with each other bitwise, however points are
// grouped into batches.  Also covers the util::Arena scratch allocator
// and the batch rate matrix (ReachabilityGraph::compute_rates_batch)
// error contract.
#include "spn/absorbing.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "core/gcs_spn_model.h"
#include "core/params.h"
#include "core/structure_plan.h"
#include "core/sweep_engine.h"
#include "oracle/substitution.h"
#include "spn/petri_net.h"
#include "spn/reachability.h"
#include "util/arena.h"

namespace {

using namespace midas;
using core::Params;

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_bitwise(double a, double b, const std::string& what) {
  EXPECT_EQ(bits(a), bits(b)) << what << ": " << a << " vs " << b;
}

void expect_rel(double a, double b, double tol, const std::string& what) {
  const double scale = std::max({std::fabs(a), std::fabs(b), 1e-300});
  EXPECT_LE(std::fabs(a - b) / scale, tol) << what << ": " << a << " vs " << b;
}

// --- GCS-model batches (the sweep engine's real workload). -------------

Params small_params() {
  Params p = Params::paper_defaults();
  p.n_init = 12;
  // Multi-group: the partition/merge cycles give the transient graph
  // multi-state SCCs, so these sweeps exercise the dense-block batch
  // kernels (a single-group structure is all singleton SCCs).
  p.max_groups = 3;
  return p;
}

/// P models sharing one structure, their explored graph/analyzer, and
/// the point-major [edge][point] rate/impulse matrices.
struct ModelBatch {
  explicit ModelBatch(const std::vector<Params>& pts) {
    for (const auto& p : pts) models.emplace_back(p);
    for (auto& m : models) {
      model_ptrs.push_back(&m);
      nets.push_back(&m.net());
    }
    graph = spn::explore(models.front().net());
    analyzer = std::make_unique<spn::AbsorbingAnalyzer>(graph);
    num_points = pts.size();
    num_edges = graph.edges.size();
    rates.resize(num_edges * num_points);
    impulses.resize(num_edges * num_points);
    graph.compute_rates_batch(nets, rates, impulses);
  }

  /// Point p's per-edge rate vector (the scalar solve's input).
  [[nodiscard]] std::vector<double> rate_column(std::size_t p) const {
    std::vector<double> col(num_edges);
    for (std::size_t i = 0; i < num_edges; ++i) {
      col[i] = rates[i * num_points + p];
    }
    return col;
  }

  std::deque<core::GcsSpnModel> models;  // immovable (lazy-graph once_flag)
  std::vector<const core::GcsSpnModel*> model_ptrs;
  std::vector<const spn::PetriNet*> nets;
  spn::ReachabilityGraph graph;
  std::unique_ptr<spn::AbsorbingAnalyzer> analyzer;
  std::size_t num_points = 0;
  std::size_t num_edges = 0;
  std::vector<double> rates;
  std::vector<double> impulses;
};

/// Gates every solve_batch output column against the scalar oracle
/// solve of the same rate column: bitwise when `tol` < 0, else `tol`
/// relative.
void expect_batch_matches_scalar(const ModelBatch& mb, bool factor_reuse,
                                 double tol) {
  util::Arena arena;
  const auto res = mb.analyzer->solve_batch(
      mb.rates, mb.num_points, spn::BatchSolveOptions{factor_reuse}, &arena);
  const std::size_t n = mb.graph.num_states();
  for (std::size_t p = 0; p < mb.num_points; ++p) {
    const auto ref = spn::oracle::solve_from(mb.graph, {}, mb.rate_column(p));
    const std::string tag = "point " + std::to_string(p);
    if (tol < 0.0) {
      expect_bitwise(res.mtta[p], ref.mtta, tag + " mtta");
    } else {
      expect_rel(res.mtta[p], ref.mtta, tol, tag + " mtta");
    }
    for (std::size_t s = 0; s < n; ++s) {
      const std::string st = tag + " state " + std::to_string(s);
      if (tol < 0.0) {
        expect_bitwise(res.sojourn[s * mb.num_points + p], ref.sojourn[s],
                       st + " sojourn");
        expect_bitwise(res.absorb_probability[s * mb.num_points + p],
                       ref.absorb_probability[s], st + " absorb");
      } else {
        expect_rel(res.sojourn[s * mb.num_points + p], ref.sojourn[s], tol,
                   st + " sojourn");
        expect_rel(res.absorb_probability[s * mb.num_points + p],
                   ref.absorb_probability[s], tol, st + " absorb");
      }
    }
  }
}

std::vector<Params> tids_sweep_points(std::size_t count) {
  std::vector<Params> pts;
  for (std::size_t i = 0; i < count; ++i) {
    Params p = small_params();
    p.t_ids = 30.0 + 45.0 * static_cast<double>(i);
    pts.push_back(p);
  }
  return pts;
}

TEST(SolverBatch, ReuseOffIsBitwiseScalarOnTidsSweep) {
  const ModelBatch mb(tids_sweep_points(5));
  expect_batch_matches_scalar(mb, /*factor_reuse=*/false, /*tol=*/-1.0);
}

TEST(SolverBatch, ReuseOnIsWithinToleranceOnTidsSweep) {
  const ModelBatch mb(tids_sweep_points(5));
  expect_batch_matches_scalar(mb, /*factor_reuse=*/true, /*tol=*/1e-12);
}

TEST(SolverBatch, ReuseOffIsBitwiseScalarOnVoterCountSweep) {
  // Fig. 4's axis: the voter count m changes every voting-dependent
  // rate but not the structure.
  std::vector<Params> pts;
  for (int m : {1, 3, 5}) {
    Params p = small_params();
    p.num_voters = m;
    pts.push_back(p);
  }
  const ModelBatch mb(pts);
  expect_batch_matches_scalar(mb, /*factor_reuse=*/false, /*tol=*/-1.0);
  expect_batch_matches_scalar(mb, /*factor_reuse=*/true, /*tol=*/1e-12);
}

TEST(SolverBatch, ReuseOnIsWithinToleranceOnAttackerSensitivitySweep) {
  // Sensitivity-style sweep over the attacker strength λc.
  std::vector<Params> pts;
  for (double scale : {0.5, 1.0, 2.0, 3.0}) {
    Params p = small_params();
    p.lambda_c = p.lambda_c * scale;
    pts.push_back(p);
  }
  const ModelBatch mb(pts);
  expect_batch_matches_scalar(mb, /*factor_reuse=*/false, /*tol=*/-1.0);
  expect_batch_matches_scalar(mb, /*factor_reuse=*/true, /*tol=*/1e-12);
}

TEST(SolverBatch, KernelLanesAreBitwiseTheScalarOracle) {
  // TransientStructure's exit rates, substitution and absorption flow
  // against the scalar pass in tests/oracle, lane by lane: the sojourn
  // balance (shift 0) and a θ-step (shift 1/(θh)), one lane and five,
  // on a multi-group structure whose partition/merge flips give dense
  // blocks.  The right-hand side differs per state and lane.
  const ModelBatch mb(tids_sweep_points(5));
  const spn::TransientStructure t(mb.graph);
  ASSERT_GT(t.max_block, 1u) << "the structure must have dense blocks";
  const std::size_t nt = t.size();
  const std::size_t n = mb.graph.num_states();
  std::size_t dense_blocks = 0;
  for (const auto& block : t.components) dense_blocks += block.size() > 1;
  for (const std::size_t lanes : {std::size_t{1}, mb.num_points}) {
    std::vector<double> rates(mb.num_edges * lanes);
    for (std::size_t i = 0; i < mb.num_edges; ++i) {
      for (std::size_t p = 0; p < lanes; ++p) {
        rates[i * lanes + p] = mb.rates[i * mb.num_points + p];
      }
    }
    util::Arena arena;
    auto exit = arena.make_span<double>(nt * lanes);
    t.exit_rates(rates, exit, lanes);
    for (const double shift : {0.0, 1.0 / (0.5 * 3.75)}) {
      const auto b = [&](std::size_t j, std::size_t p) {
        return 0.125 * static_cast<double>(1 + (j * 7 + p * 3) % 11);
      };
      std::vector<double> x(nt * lanes);
      for (std::size_t j = 0; j < nt; ++j) {
        for (std::size_t p = 0; p < lanes; ++p) x[j * lanes + p] = b(j, p);
      }
      auto scratch = t.make_scratch(lanes, arena);
      t.substitute(rates, exit, shift, x, scratch);
      std::vector<double> absorbed(n * lanes, 0.0);
      t.absorption_flow(rates, x, absorbed, lanes);
      EXPECT_EQ(scratch.blocks_factored, lanes * dense_blocks);

      for (std::size_t p = 0; p < lanes; ++p) {
        const std::string tag = std::to_string(lanes) + " lanes, lane " +
                                std::to_string(p) + ", shift " +
                                std::to_string(shift);
        const auto col = mb.rate_column(p);
        std::vector<double> ref_exit(nt);
        spn::oracle::exit_rates(t, col, ref_exit);
        std::vector<double> ref(nt);
        for (std::size_t j = 0; j < nt; ++j) ref[j] = b(j, p);
        auto ref_scratch = spn::oracle::make_scratch(t);
        spn::oracle::substitute(t, col, ref_exit, shift, ref, ref_scratch);
        std::vector<double> ref_absorbed(n, 0.0);
        spn::oracle::absorption_flow(t, col, ref, ref_absorbed);
        for (std::size_t j = 0; j < nt; ++j) {
          expect_bitwise(exit[j * lanes + p], ref_exit[j],
                         tag + " exit " + std::to_string(j));
          expect_bitwise(x[j * lanes + p], ref[j],
                         tag + " x " + std::to_string(j));
        }
        for (std::size_t s = 0; s < n; ++s) {
          expect_bitwise(absorbed[s * lanes + p], ref_absorbed[s],
                         tag + " absorbed " + std::to_string(s));
        }
      }
    }
  }
}

TEST(SolverBatch, IdenticalPointsShareFactorisationsAndAgreeBitwise) {
  // Four copies of one parameter point: every normalised dense block is
  // bitwise identical across the batch, so with reuse on each block
  // factors once and serves the other three points.
  const ModelBatch mb(std::vector<Params>(4, small_params()));
  util::Arena arena;
  const auto res = mb.analyzer->solve_batch(mb.rates, mb.num_points,
                                            spn::BatchSolveOptions{true},
                                            &arena);
  EXPECT_GT(res.blocks_reused, 0u);
  EXPECT_LT(res.blocks_factored, res.solver_blocks * mb.num_points);
  for (std::size_t p = 1; p < mb.num_points; ++p) {
    expect_bitwise(res.mtta[p], res.mtta[0],
                   "identical point " + std::to_string(p));
  }
  // And the shared-factor answers still match the scalar path.
  expect_batch_matches_scalar(mb, /*factor_reuse=*/true, /*tol=*/1e-12);
}

// --- Synthetic cyclic nets (dense-SCC reuse mechanics). ----------------

/// A → B → A cycle with escape B → Dead: one 2-state transient SCC, so
/// the dense-block path (and its factor-reuse grouping) is exercised in
/// isolation.
spn::PetriNet cycle_net(double ra, double rb, double rd) {
  spn::PetriNet net;
  const auto a = net.add_place("A", 1);
  const auto b = net.add_place("B", 0);
  const auto dead = net.add_place("Dead", 0);
  net.transition("ab").input(a).output(b).rate(ra).add();
  net.transition("ba").input(b).output(a).rate(rb).add();
  net.transition("bd").input(b).output(dead).rate(rd).add();
  return net;
}

TEST(SolverBatch, RateScaledBlocksFactorOnceUnderReuse) {
  // Point p's rates are 2^p × point 0's: the dense blocks are exact
  // scalar multiples, the power-of-two normalisation is lossless, and
  // one elimination serves all four points.
  std::vector<spn::PetriNet> nets;
  for (int p = 0; p < 4; ++p) {
    const double s = std::ldexp(1.0, p);
    nets.push_back(cycle_net(1.25 * s, 0.5 * s, 0.75 * s));
  }
  std::vector<const spn::PetriNet*> ptrs;
  for (auto& n : nets) ptrs.push_back(&n);
  const auto g = spn::explore(nets.front());
  const spn::AbsorbingAnalyzer an(g);
  const std::size_t E = g.edges.size();
  const std::size_t P = nets.size();
  std::vector<double> rates(E * P);
  std::vector<double> impulses(E * P);
  g.compute_rates_batch(ptrs, rates, impulses);

  util::Arena arena;
  const auto res =
      an.solve_batch(rates, P, spn::BatchSolveOptions{true}, &arena);
  EXPECT_EQ(res.blocks_factored, 1u);
  EXPECT_EQ(res.blocks_reused, P - 1);
  for (std::size_t p = 0; p < P; ++p) {
    std::vector<double> col(E);
    for (std::size_t i = 0; i < E; ++i) col[i] = rates[i * P + p];
    const auto ref = spn::oracle::solve_from(g, {}, col);
    expect_rel(res.mtta[p], ref.mtta, 1e-12,
               "scaled point " + std::to_string(p));
  }
}

TEST(SolverBatch, MixedScaledAndUnrelatedBlocksGroupCorrectly) {
  // Points 0/2/4 are scalar multiples of each other; points 1 and 3 are
  // unrelated.  Reuse must find exactly one shared group (3 members)
  // and factor the other two points separately — and reuse OFF must
  // stay bitwise-scalar on the same batch.
  std::vector<spn::PetriNet> nets;
  nets.push_back(cycle_net(1.25, 0.5, 0.75));        // group head
  nets.push_back(cycle_net(1.3, 0.4, 0.9));          // unrelated
  nets.push_back(cycle_net(2.5, 1.0, 1.5));          // 2 × head
  nets.push_back(cycle_net(0.7, 1.1, 0.2));          // unrelated
  nets.push_back(cycle_net(5.0, 2.0, 3.0));          // 4 × head
  std::vector<const spn::PetriNet*> ptrs;
  for (auto& n : nets) ptrs.push_back(&n);
  const auto g = spn::explore(nets.front());
  const spn::AbsorbingAnalyzer an(g);
  const std::size_t E = g.edges.size();
  const std::size_t P = nets.size();
  std::vector<double> rates(E * P);
  std::vector<double> impulses(E * P);
  g.compute_rates_batch(ptrs, rates, impulses);

  util::Arena arena;
  const auto reuse =
      an.solve_batch(rates, P, spn::BatchSolveOptions{true}, &arena);
  EXPECT_EQ(reuse.blocks_factored, 3u);  // head + the two unrelated points
  EXPECT_EQ(reuse.blocks_reused, 2u);    // 2× and 4× join the head's group

  util::Arena arena2;
  const auto exact =
      an.solve_batch(rates, P, spn::BatchSolveOptions{false}, &arena2);
  EXPECT_EQ(exact.blocks_factored, P);
  EXPECT_EQ(exact.blocks_reused, 0u);
  for (std::size_t p = 0; p < P; ++p) {
    std::vector<double> col(E);
    for (std::size_t i = 0; i < E; ++i) col[i] = rates[i * P + p];
    const auto ref = spn::oracle::solve_from(g, {}, col);
    expect_bitwise(exact.mtta[p], ref.mtta,
                   "exact point " + std::to_string(p));
    expect_rel(reuse.mtta[p], ref.mtta, 1e-12,
               "reuse point " + std::to_string(p));
  }
}

TEST(SolverBatch, ComputeRatesBatchRejectsReRatedEdgeNamingIt) {
  // A transition whose rate drops to zero for one batch point changes
  // the edge structure — the batch rate pass must refuse, naming the
  // edge, the transition and the offending point.
  std::vector<spn::PetriNet> nets;
  nets.push_back(cycle_net(1.0, 0.5, 0.75));
  nets.push_back(cycle_net(1.0, 0.0, 0.75));  // B → A edge vanishes
  std::vector<const spn::PetriNet*> ptrs{&nets[0], &nets[1]};
  const auto g = spn::explore(nets.front());
  const std::size_t E = g.edges.size();
  std::vector<double> rates(E * 2);
  std::vector<double> impulses(E * 2);
  try {
    g.compute_rates_batch(ptrs, rates, impulses);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("re-rates"), std::string::npos) << msg;
    EXPECT_NE(msg.find("transition ba"), std::string::npos) << msg;
    EXPECT_NE(msg.find("batch point 1"), std::string::npos) << msg;
  }

  // The structure plan raises the same error: p1 = 0 at point 1 zeroes
  // every T_DRQ edge of the structure explored at p1 = 0.01.
  Params dry = small_params();
  dry.p1 = 0.0;
  const core::GcsSpnModel wet_model(small_params());
  const core::GcsSpnModel dry_model(dry);
  const core::GcsSpnModel* models[] = {&wet_model, &dry_model};
  const auto graph = spn::explore(wet_model.net());
  const core::StructurePlan plan(wet_model, graph);
  std::vector<double> plan_rates(graph.edges.size() * 2);
  std::vector<double> plan_impulses(graph.edges.size() * 2);
  try {
    plan.rate(models, plan_rates, plan_impulses);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("re-rates"), std::string::npos) << msg;
    EXPECT_NE(msg.find("transition T_DRQ"), std::string::npos) << msg;
    EXPECT_NE(msg.find("at marking ("), std::string::npos) << msg;
    EXPECT_NE(msg.find("batch point 1"), std::string::npos) << msg;
  }
}

TEST(SolverBatch, ComputeRatesBatchValidatesSpanShapes) {
  auto net = cycle_net(1.0, 0.5, 0.75);
  const auto g = spn::explore(net);
  const spn::PetriNet* ptr = &net;
  std::vector<double> wrong(g.edges.size() * 2 - 1);
  std::vector<double> impulses(g.edges.size() * 2);
  EXPECT_THROW(
      g.compute_rates_batch(std::span<const spn::PetriNet* const>{&ptr, 1},
                            wrong, impulses),
      std::invalid_argument);
  EXPECT_THROW(g.compute_rates_batch({}, wrong, impulses),
               std::invalid_argument);
}

TEST(SolverBatch, BatchRateHookIsBitwiseGenericPath) {
  // GcsSpnModel::batch_rate_fn answers whole (transition, marking)
  // pairs across the batch; its values must be bitwise what the generic
  // per-net rate()/impulse() path computes — with and without the
  // factor memo, since the sweep engine enables it before rating.
  for (const bool memo : {false, true}) {
    ModelBatch mb(tids_sweep_points(4));  // generic path (no memo)
    if (memo) {
      for (auto& m : mb.models) m.enable_factor_memo();
    }
    std::vector<double> rates(mb.num_edges * mb.num_points);
    std::vector<double> impulses(mb.num_edges * mb.num_points);
    mb.graph.compute_rates_batch(
        mb.nets, rates, impulses,
        core::GcsSpnModel::batch_rate_fn(mb.model_ptrs));
    for (std::size_t i = 0; i < rates.size(); ++i) {
      expect_bitwise(rates[i], mb.rates[i],
                     std::string("hook rate entry ") + std::to_string(i) +
                         (memo ? " (memo)" : ""));
      expect_bitwise(impulses[i], mb.impulses[i],
                     std::string("hook impulse entry ") + std::to_string(i) +
                         (memo ? " (memo)" : ""));
    }
  }
}

TEST(SolverBatch, BatchRateHookDeclinesUnknownTransitions) {
  // On a net without the GCS transition names the hook must decline
  // every pair and the generic path must still fill the matrices.
  std::vector<spn::PetriNet> nets;
  nets.push_back(cycle_net(1.25, 0.5, 0.75));
  nets.push_back(cycle_net(2.5, 1.0, 1.5));
  std::vector<const spn::PetriNet*> ptrs{&nets[0], &nets[1]};
  const auto g = spn::explore(nets.front());
  const std::size_t E = g.edges.size();
  std::vector<double> plain(E * 2), plain_imp(E * 2);
  g.compute_rates_batch(ptrs, plain, plain_imp);
  // A hook that declines everything is equivalent to no hook.
  std::vector<double> hooked(E * 2), hooked_imp(E * 2);
  g.compute_rates_batch(ptrs, hooked, hooked_imp,
                        [](spn::TransitionId, const spn::Marking&,
                           std::span<double>, std::span<double>) {
                          return false;
                        });
  for (std::size_t i = 0; i < plain.size(); ++i) {
    expect_bitwise(hooked[i], plain[i], "declined-hook rate");
    expect_bitwise(hooked_imp[i], plain_imp[i], "declined-hook impulse");
  }
}

// --- Scalar solve entry points. ----------------------------------------

TEST(SolverBatch, StoredRateSolveMatchesExplicitRates) {
  // solve() uses the construction-time rate snapshot; it must equal
  // solve(edge_rates) with the graph's own rates, bitwise.
  auto net = cycle_net(1.25, 0.5, 0.75);
  const auto g = spn::explore(net);
  const spn::AbsorbingAnalyzer an(g);
  std::vector<double> stored;
  for (const auto& e : g.edges) stored.push_back(e.rate);
  const auto a = an.solve();
  const auto b = an.solve(stored);
  expect_bitwise(a.mtta, b.mtta, "stored-rate mtta");
  for (std::size_t s = 0; s < g.num_states(); ++s) {
    expect_bitwise(a.sojourn[s], b.sojourn[s], "stored-rate sojourn");
  }
}

// --- Numerical failures name their marking and lane. -------------------

/// The message `solve` throws as std::runtime_error, or "" when it
/// returns.
template <class Solve>
std::string error_of(Solve&& solve) {
  try {
    solve();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

/// The index of the edge from the state with marking `from` to the one
/// with marking `to`.
std::size_t edge_index(const spn::ReachabilityGraph& g,
                       const std::string& from, const std::string& to) {
  for (std::size_t i = 0; i < g.edges.size(); ++i) {
    if (g.states[g.edges[i].src].to_string() == from &&
        g.states[g.edges[i].dst].to_string() == to) {
      return i;
    }
  }
  ADD_FAILURE() << "no edge " << from << " -> " << to;
  return 0;
}

TEST(SolverBatch, SingularBlockThrowsNamingItsMarkingAndLane) {
  // A ⇄ B at 1e20 with exits at 1e-10: each exit rounds away against
  // the cycle rate, so the 2-state block is singular to rounding (its
  // second pivot is 0).  In a batch whose other lanes are well posed,
  // that lane must fail the same way, with factor reuse on (two good
  // lanes share a group, so the bad one is eliminated as a group of
  // its own) and off, and so must a NaN in-block rate (a NaN pivot)
  // and a negative exit (a negative pivot), which a test of |pivot|
  // let through.
  spn::PetriNet net;
  const auto a = net.add_place("A", 1);
  const auto b = net.add_place("B", 0);
  const auto dead = net.add_place("Dead", 0);
  net.transition("ab").input(a).output(b).rate(1e20).add();
  net.transition("ba").input(b).output(a).rate(1e20).add();
  net.transition("ad").input(a).output(dead).rate(1e-10).add();
  net.transition("bd").input(b).output(dead).rate(1e-10).add();
  const auto g = spn::explore(net);
  const spn::AbsorbingAnalyzer an(g);
  const auto names_block = [](const std::string& msg) {
    return msg.find("2-state block at marking (1, 0, 0)") !=
               std::string::npos ||
           msg.find("2-state block at marking (0, 1, 0)") != std::string::npos;
  };
  std::string msg = error_of([&] { (void)an.solve(); });
  EXPECT_TRUE(names_block(msg)) << msg;
  EXPECT_NE(msg.find("batch lane 0"), std::string::npos) << msg;

  const std::size_t E = g.edges.size();
  const std::size_t ab = edge_index(g, "(1, 0, 0)", "(0, 1, 0)");
  const std::size_t ad = edge_index(g, "(1, 0, 0)", "(0, 0, 1)");
  for (const int defect : {0, 1, 2}) {
    std::vector<double> rates(E * 3, 1.0);
    const std::size_t bad = defect == 1 ? 1 : 2;
    if (defect == 0) {
      for (std::size_t i = 0; i < E; ++i) rates[i * 3 + 2] = g.edges[i].rate;
    }
    if (defect == 1) rates[ab * 3 + 1] = std::nan("");
    if (defect == 2) rates[ad * 3 + 2] = -3.0;
    for (const bool reuse : {false, true}) {
      util::Arena arena;
      msg = error_of([&] {
        (void)an.solve_batch(rates, 3, spn::BatchSolveOptions{reuse}, &arena);
      });
      EXPECT_TRUE(names_block(msg)) << msg;
      EXPECT_NE(msg.find("batch lane " + std::to_string(bad)),
                std::string::npos)
          << msg;
    }
  }
}

TEST(SolverBatch, StateWithoutExitThrowsNamingItsMarkingAndLane) {
  // A → B → Dead: every SCC is a singleton.  A zero override of
  // B → Dead leaves B with no exit, and a NaN one with a NaN diagonal;
  // both must fail naming B, not divide.
  spn::PetriNet net;
  const auto a = net.add_place("A", 1);
  const auto b = net.add_place("B", 0);
  const auto dead = net.add_place("Dead", 0);
  net.transition("ab").input(a).output(b).rate(1.0).add();
  net.transition("bd").input(b).output(dead).rate(1.0).add();
  const auto g = spn::explore(net);
  const spn::AbsorbingAnalyzer an(g);
  const std::size_t bd = edge_index(g, "(0, 1, 0)", "(0, 0, 1)");
  for (const double r : {0.0, std::nan("")}) {
    std::vector<double> rates(g.edges.size(), 1.0);
    rates[bd] = r;
    const std::string msg = error_of([&] { (void)an.solve(rates); });
    EXPECT_NE(msg.find("transient state (0, 1, 0)"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("batch lane 0"), std::string::npos) << msg;
  }
}

TEST(SolverBatch, StiffButWellPosedCycleSolves) {
  // A ⇄ B at 2^23 with B's exit at 2^-24, 14 decades apart: the block
  // is ill-conditioned, but its last pivot is the exit rate, far above
  // the n·ε·‖A‖∞ ≈ 2^-27 floor, so the solve must go through.
  // MTTA = 2^25 + 2^-23.
  const auto g = spn::explore(cycle_net(0x1p23, 0x1p23, 0x1p-24));
  const auto res = spn::AbsorbingAnalyzer(g).solve();
  expect_rel(res.mtta, 0x1p25 + 0x1p-23, 1e-12, "stiff cycle mtta");
}

// --- Full evaluation pipeline (evaluate_with_batch + engine). ----------

void expect_eval_bitwise(const core::Evaluation& a, const core::Evaluation& b,
                         const std::string& what) {
  expect_bitwise(a.mttsf, b.mttsf, what + " mttsf");
  expect_bitwise(a.ctotal, b.ctotal, what + " ctotal");
  expect_bitwise(a.cost_rates.group_comm, b.cost_rates.group_comm, what);
  expect_bitwise(a.cost_rates.status, b.cost_rates.status, what);
  expect_bitwise(a.cost_rates.rekey, b.cost_rates.rekey, what);
  expect_bitwise(a.cost_rates.ids, b.cost_rates.ids, what);
  expect_bitwise(a.cost_rates.beacon, b.cost_rates.beacon, what);
  expect_bitwise(a.cost_rates.partition_merge, b.cost_rates.partition_merge,
                 what);
  expect_bitwise(a.eviction_cost_rate, b.eviction_cost_rate, what);
  expect_bitwise(a.p_failure_c1, b.p_failure_c1, what + " pc1");
  expect_bitwise(a.p_failure_c2, b.p_failure_c2, what + " pc2");
  EXPECT_EQ(a.num_states, b.num_states) << what;
}

TEST(SolverBatch, EvaluateWithBatchReuseOffIsBitwiseEvaluateReference) {
  // The batched pipeline (re-rated shared structure, solve_batch, one
  // point-major reward pass) against the oracle that shares none of it:
  // a fresh exploration per point, the scalar solve and one generic
  // reward pass per cost component.
  const ModelBatch mb(tids_sweep_points(4));
  util::Arena arena;
  const auto batch =
      core::evaluate_with_batch(mb.model_ptrs, *mb.analyzer, mb.rates,
                                mb.impulses, /*factor_reuse=*/false, arena);
  ASSERT_EQ(batch.size(), mb.num_points);
  for (std::size_t p = 0; p < mb.num_points; ++p) {
    expect_eval_bitwise(batch[p], mb.models[p].evaluate_reference(),
                        "point " + std::to_string(p));
  }
}

TEST(SolverBatch, EngineResultsAreIndependentOfBatchWidth) {
  // 17 points so widths 3 and 8 leave ragged final batches (17 = 5·3+2
  // = 2·8+1) and width 17 is one full batch.  Point 1 duplicates point
  // 0, so at every width >= 2 their batch shares eliminations.
  // Factor reuse is grouping-independent and exact, so every width —
  // including batches of one — and GcsSpnModel::evaluate() must agree
  // BITWISE.
  auto pts = tids_sweep_points(16);
  pts.insert(pts.begin() + 1, pts.front());
  {
    const ModelBatch head({pts[0], pts[1], pts[2]});
    util::Arena arena;
    const auto res = head.analyzer->solve_batch(
        head.rates, head.num_points, spn::BatchSolveOptions{}, &arena);
    ASSERT_GT(res.blocks_reused, 0u) << "the duplicate must share an elimination";
  }
  core::SweepEngine engine(1);
  const auto w1 = engine.evaluate(pts, 1);
  const auto w3 = engine.evaluate(pts, 3);
  const auto w8 = engine.evaluate(pts, 8);
  const auto w17 = engine.evaluate(pts, 17);
  ASSERT_EQ(w1.size(), pts.size());
  for (std::size_t p = 0; p < pts.size(); ++p) {
    const std::string tag = "point " + std::to_string(p);
    const auto single = core::GcsSpnModel(pts[p]).evaluate();
    expect_eval_bitwise(w1[p], single, tag + " w1-vs-evaluate");
    expect_eval_bitwise(w3[p], single, tag + " w3-vs-evaluate");
    expect_eval_bitwise(w8[p], single, tag + " w8-vs-evaluate");
    expect_eval_bitwise(w17[p], single, tag + " w17-vs-evaluate");
  }
}

// --- util::Arena. ------------------------------------------------------

TEST(Arena, AllocationsAreAlignedAndDistinct) {
  util::Arena arena;
  auto a = arena.make_span<double>(7, 1.5);
  auto b = arena.make_span<std::uint32_t>(3, 9u);
  auto c = arena.make_span<double>(4, -2.0);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a.data()) % alignof(double), 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(c.data()) % alignof(double), 0u);
  for (double v : a) EXPECT_EQ(v, 1.5);
  for (auto v : b) EXPECT_EQ(v, 9u);
  for (double v : c) EXPECT_EQ(v, -2.0);
  // Writing one span must not disturb the others.
  for (auto& v : c) v = 7.0;
  for (double v : a) EXPECT_EQ(v, 1.5);
  EXPECT_GE(arena.bytes_used(), 7 * sizeof(double) + 3 * sizeof(std::uint32_t) +
                                    4 * sizeof(double));
}

TEST(Arena, ResetCoalescesGrowthIntoOneChunk) {
  util::Arena arena(64);
  // Force growth past the first chunk.
  (void)arena.make_span<double>(64);
  (void)arena.make_span<double>(100'000);
  EXPECT_GT(arena.num_chunks(), 1u);
  const std::size_t cap = arena.capacity();
  arena.reset();
  EXPECT_EQ(arena.num_chunks(), 1u);
  EXPECT_GE(arena.capacity(), cap);
  EXPECT_EQ(arena.bytes_used(), 0u);
  // The same workload now fits the coalesced block: no further chunks.
  (void)arena.make_span<double>(64);
  (void)arena.make_span<double>(100'000);
  EXPECT_EQ(arena.num_chunks(), 1u);
}

TEST(Arena, HighWaterTracksPeakUse) {
  util::Arena arena;
  (void)arena.make_span<double>(1000);
  const std::size_t peak = arena.bytes_used();
  arena.reset();
  (void)arena.make_span<double>(10);
  EXPECT_GE(arena.high_water(), peak);
  EXPECT_LT(arena.bytes_used(), peak);
}

TEST(Arena, ThreadScratchArenaIsStable) {
  util::Arena& a = util::thread_scratch_arena();
  util::Arena& b = util::thread_scratch_arena();
  EXPECT_EQ(&a, &b);
}

TEST(Arena, SolveBatchDrawsScratchFromCallerArena) {
  const ModelBatch mb(tids_sweep_points(3));
  util::Arena arena;
  const auto res = mb.analyzer->solve_batch(mb.rates, mb.num_points,
                                            spn::BatchSolveOptions{}, &arena);
  EXPECT_GT(arena.bytes_used(), 0u);
  // Result spans live inside the arena's chunks (sized by it).
  EXPECT_EQ(res.mtta.size(), mb.num_points);
  EXPECT_EQ(res.sojourn.size(), mb.graph.num_states() * mb.num_points);
}

}  // namespace
