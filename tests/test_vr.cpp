// Variance-reduction subsystem: regression accumulator algebra, Sobol
// net structure under Owen scrambling, CV unbiasedness against the
// analytic control means, the splitting product estimator against the
// analytic absorption probability, rare-event-honest one-sided
// intervals, thread/shard invariance of every vr payload, the
// spec.mc.vr codec, and vr-neutrality of the plain Monte-Carlo pass.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/experiment_presets.h"
#include "core/gcs_spn_model.h"
#include "sim/stats.h"
#include "vr/engine.h"
#include "vr/options.h"
#include "vr/sobol.h"
#include "vr/splitting.h"

namespace {

using namespace midas;
using core::BackendKind;
using core::ExperimentService;
using core::ExperimentSpec;

/// Small hot-λq grid where every estimator has something to do: each
/// compromise is a leak/detect/evict race (CV leverage) and C2 needs a
/// short UCm climb (splitting leverage, p_c2 ≈ 5e-2 / 8e-3).
ExperimentSpec vr_spec() {
  ExperimentSpec spec;
  spec.name = "vr_test";
  spec.base = core::Params::paper_defaults();
  spec.base.max_groups = 1;
  spec.base.num_voters = 5;
  spec.base.n_init = 8;
  spec.base.lambda_c = 1.0 / 500.0;
  spec.base.lambda_q = 1.0;
  core::AxisSpec t_ids;
  t_ids.param = "t_ids";
  t_ids.values = {60.0, 120.0};
  spec.axes = {std::move(t_ids)};
  spec.backends = {BackendKind::Analytic, BackendKind::Des};
  spec.mc.base_seed = 99;
  spec.mc.rel_ci_target = 0.0;
  spec.mc.min_replications = 64;
  spec.mc.max_replications = 64;
  spec.vr.sobol.enabled = true;
  spec.vr.sobol.replicates = 4;
  spec.vr.sobol.samples_per_replicate = 32;
  spec.vr.cv.enabled = true;
  spec.vr.cv.pilot = 32;
  spec.vr.cv.replications = 192;
  spec.vr.splitting.enabled = true;
  spec.vr.splitting.target = "c2";
  spec.vr.splitting.levels = {2, 3};
  spec.vr.splitting.effort = 128;
  spec.vr.splitting.replicates = 8;
  return spec;
}

std::string backends_bytes(const core::ExperimentResult& r) {
  return r.canonical_json().at("backends").dump();
}

// --- Regression accumulator ------------------------------------------

TEST(RegressionWelford, MatchesClosedFormAndMerges) {
  // y = 3 + 2c + noise-free quadratic wiggle: β and ρ have closed
  // two-pass forms to compare the streaming single pass against.
  std::vector<double> c, y;
  for (int i = 0; i < 64; ++i) {
    const double ci = 0.1 * i;
    c.push_back(ci);
    y.push_back(3.0 + 2.0 * ci + 0.01 * ci * ci);
  }
  double mc = 0.0, my = 0.0;
  for (std::size_t i = 0; i < c.size(); ++i) {
    mc += c[i];
    my += y[i];
  }
  mc /= static_cast<double>(c.size());
  my /= static_cast<double>(c.size());
  double syc = 0.0, scc = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < c.size(); ++i) {
    syc += (y[i] - my) * (c[i] - mc);
    scc += (c[i] - mc) * (c[i] - mc);
    syy += (y[i] - my) * (y[i] - my);
  }

  sim::RegressionWelford whole, lo, hi;
  for (std::size_t i = 0; i < c.size(); ++i) {
    whole.push(y[i], c[i]);
    (i < c.size() / 2 ? lo : hi).push(y[i], c[i]);
  }
  EXPECT_NEAR(whole.beta(), syc / scc, 1e-12);
  EXPECT_NEAR(whole.correlation(), syc / std::sqrt(syy * scc), 1e-12);

  lo.merge(hi);
  EXPECT_EQ(lo.count(), whole.count());
  EXPECT_NEAR(lo.beta(), whole.beta(), 1e-12);
  EXPECT_NEAR(lo.mean_y(), whole.mean_y(), 1e-12);

  // State round-trip is exact.
  const auto back = sim::RegressionWelford::from_state(whole.state());
  EXPECT_EQ(back.beta(), whole.beta());
  EXPECT_EQ(back.correlation(), whole.correlation());
}

// --- Rare-event-honest intervals -------------------------------------

TEST(RareEventStats, ZeroAndFullCountsAreOneSidedNeverPlusMinusZero) {
  const auto none = sim::binomial_summary(400, 0);
  EXPECT_TRUE(none.one_sided);
  EXPECT_EQ(none.mean, 0.0);
  EXPECT_GT(none.ci_half_width, 0.0);  // never a dishonest ±0

  const auto all = sim::binomial_summary(400, 400);
  EXPECT_TRUE(all.one_sided);
  EXPECT_EQ(all.mean, 1.0);
  EXPECT_GT(all.ci_half_width, 0.0);

  const auto mid = sim::binomial_summary(400, 100);
  EXPECT_FALSE(mid.one_sided);
  EXPECT_NEAR(mid.mean, 0.25, 1e-12);

  // Rule of three: upper 95% bound after n failure-free trials ≈ 3/n.
  EXPECT_NEAR(sim::rule_of_three_upper(300), 0.01, 1e-3);
  EXPECT_GT(sim::rule_of_three_upper(10), sim::rule_of_three_upper(100));
}

TEST(Splitting, AllZeroEstimatesReportRuleOfThreeUpperBound) {
  const std::vector<double> zeros(8, 0.0);
  const auto s = vr::splitting_probability_summary(zeros, 2048);
  EXPECT_TRUE(s.one_sided);
  EXPECT_EQ(s.mean, 0.0);
  EXPECT_EQ(s.ci_half_width, sim::rule_of_three_upper(2048));

  const std::vector<double> some{0.0, 1e-4, 0.0, 2e-4};
  EXPECT_FALSE(vr::splitting_probability_summary(some, 2048).one_sided);
}

// --- Sobol nets and Owen scrambling ----------------------------------

TEST(Sobol, FirstPowerOfTwoPointsStratifyEveryTabulatedDimension) {
  // (t,m,s)-net property in base 2, one dimension at a time: the first
  // 2^k points drop exactly one value into each of the 2^k equal bins.
  for (std::uint32_t dim = 0; dim < vr::kSobolTabulatedDims; ++dim) {
    for (const std::uint32_t k : {3u, 5u}) {
      const std::uint32_t n = 1u << k;
      std::set<std::uint32_t> bins;
      for (std::uint32_t i = 0; i < n; ++i) {
        bins.insert(vr::sobol_raw(i, dim) >> (32 - k));
      }
      EXPECT_EQ(bins.size(), n) << "dim " << dim << " k " << k;
    }
  }
}

TEST(Sobol, OwenScrambleIsNestedAndPreservesStratification) {
  // Nested uniform scrambling: a shared b-bit prefix stays shared (one
  // permutation per node of the digit tree), distinct values stay
  // distinct, and the per-dimension stratification survives.
  const std::uint32_t seed = 0xDECAFBAD;
  std::set<std::uint32_t> images;
  for (std::uint32_t v = 0; v < 4096; ++v) {
    images.insert(vr::owen_scramble(v << 20, seed));
  }
  EXPECT_EQ(images.size(), 4096u);  // injective on the sample

  for (const std::uint32_t a : {0x12345678u, 0xF00DFACEu}) {
    const std::uint32_t b = a ^ 0x000000FFu;  // shares the top 24 bits
    EXPECT_EQ(vr::owen_scramble(a, seed) >> 8,
              vr::owen_scramble(b, seed) >> 8);
  }

  for (const std::uint32_t k : {4u}) {
    const std::uint32_t n = 1u << k;
    std::set<std::uint32_t> bins;
    for (std::uint32_t i = 0; i < n; ++i) {
      bins.insert(vr::owen_scramble(vr::sobol_raw(i, 2), seed) >>
                  (32 - k));
    }
    EXPECT_EQ(bins.size(), n);
  }
}

TEST(Sobol, StreamIsDeterministicInKeyAndIndexOnly) {
  vr::SobolStream a(42, 7), b(42, 7), other_key(43, 7), other_idx(42, 8);
  bool any_key_diff = false, any_idx_diff = false;
  for (int d = 0; d < 64; ++d) {
    const double va = a();
    EXPECT_EQ(va, b());  // bitwise reproducible
    EXPECT_GE(va, 0.0);
    EXPECT_LT(va, 1.0);
    any_key_diff = any_key_diff || va != other_key();
    any_idx_diff = any_idx_diff || va != other_idx();
  }
  EXPECT_TRUE(any_key_diff);
  EXPECT_TRUE(any_idx_diff);
}

// --- Estimator correctness against the analytic backend --------------

TEST(ControlVariate, AdjustedMeanIsUnbiasedAndTighterOnTheHotPoint) {
  auto spec = vr_spec();
  spec.vr.sobol.enabled = false;
  spec.vr.splitting.enabled = false;
  ExperimentService service;
  const auto result = service.run(spec);
  const auto& evals = result.at(BackendKind::Analytic).evals;
  const auto& des = result.at(BackendKind::Des);
  ASSERT_EQ(des.vr.size(), evals.size());
  for (std::size_t i = 0; i < evals.size(); ++i) {
    ASSERT_TRUE(des.vr[i].has_cv);
    const auto& m = des.vr[i].cv.ttsf;
    // β comes from the pilot block only; the adjusted CI over the
    // remaining replications must cover the exact analytic MTTSF.
    EXPECT_TRUE(m.adjusted.contains(evals[i].mttsf))
        << "point " << i << ": " << m.adjusted.mean << " ± "
        << m.adjusted.ci_half_width << " vs " << evals[i].mttsf;
    EXPECT_GT(m.correlation, 0.0) << i;
    EXPECT_GE(m.variance_ratio, 1.0) << i;
    EXPECT_LT(m.adjusted.ci_half_width, m.plain.ci_half_width) << i;
  }
}

TEST(Splitting, ProductEstimatorCoversTheAnalyticAbsorptionProbability) {
  core::Params p = core::Params::paper_defaults();
  p.max_groups = 1;
  p.num_voters = 5;
  p.n_init = 8;
  p.lambda_c = 1.0 / 500.0;
  p.lambda_q = 2.0;
  p.t_ids = 300.0;  // analytic p_failure_c2 ≈ 6.2e-3
  const double p2 = core::GcsSpnModel(p).evaluate().p_failure_c2;

  for (const char* scheme : {"fixed_effort", "fixed_splitting"}) {
    vr::SplittingOptions opt;
    opt.enabled = true;
    opt.target = "c2";
    opt.levels = {2, 3};
    opt.scheme = scheme;
    opt.effort = 256;
    opt.splitting_factor = 4;
    opt.replicates = 12;
    const auto res = vr::run_splitting(opt, p, 0xABCDEF, 2);
    EXPECT_FALSE(res.probability.one_sided) << scheme;
    EXPECT_LE(std::abs(res.probability.mean - p2),
              2.0 * res.probability.ci_half_width)
        << scheme << ": " << res.probability.mean << " ± "
        << res.probability.ci_half_width << " vs analytic " << p2;
    ASSERT_EQ(res.levels.size(), 2u) << scheme;
    // The ladder actually filters: conditional passage < 1 per level.
    EXPECT_GT(res.levels[0].p_up, 0.0) << scheme;
    EXPECT_LT(res.levels[0].p_up, 1.0) << scheme;
  }
}

// --- Thread / shard invariance and merge -----------------------------

TEST(VrEngine, PayloadsAreBitwiseAcrossThreadCounts) {
  const auto spec = vr_spec();
  ExperimentService one({.threads = 1});
  ExperimentService three({.threads = 3});
  EXPECT_EQ(backends_bytes(one.run(spec)), backends_bytes(three.run(spec)));
}

TEST(VrEngine, ShardedRunsMergeBitwiseIncludingVrPayloads) {
  const auto spec = vr_spec();
  ExperimentService service;
  const auto whole = service.run(spec);

  std::vector<core::ExperimentResult> parts;
  for (std::size_t s = 0; s < 2; ++s) {
    ExperimentSpec shard = spec;
    shard.shard.policy = core::ShardSpec::Policy::Contiguous;
    shard.shard.num_shards = 2;
    shard.shard.shard_index = s;
    parts.push_back(service.run(shard));
  }
  // Each shard carries exactly its slice of vr points...
  ASSERT_EQ(parts[0].at(BackendKind::Des).vr.size(), 1u);
  ASSERT_EQ(parts[1].at(BackendKind::Des).vr.size(), 1u);
  // ...and the merge reassembles the whole-grid answer byte for byte:
  // vr streams are keyed by GLOBAL point index, never shard layout.
  const auto merged = core::merge_experiment_results(parts);
  EXPECT_EQ(backends_bytes(merged), backends_bytes(whole));
}

TEST(VrEngine, PlainMcPayloadIsBitwiseUntouchedByTheVrLayer) {
  auto with_vr = vr_spec();
  auto without = vr_spec();
  without.vr = vr::VrOptions{};
  ExperimentService service;
  const auto a = service.run(with_vr);
  const auto b = service.run(without);
  const auto& da = a.at(BackendKind::Des);
  const auto& db = b.at(BackendKind::Des);
  ASSERT_EQ(da.mc.size(), db.mc.size());
  EXPECT_FALSE(da.vr.empty());
  EXPECT_TRUE(db.vr.empty());
  for (std::size_t i = 0; i < da.mc.size(); ++i) {
    EXPECT_EQ(core::mc_point_to_json(da.mc[i]).dump(),
              core::mc_point_to_json(db.mc[i]).dump())
        << i;
  }
}

TEST(VrEngine, CvMeansAreTheRequestsAnalyticAnswerInEitherBackendOrder) {
  // cv takes its exact means from the Analytic run when it came first in
  // the request, else from the service's warm engine: the same numbers.
  auto spec = vr_spec();
  spec.vr.sobol.enabled = false;
  spec.vr.splitting.enabled = false;
  auto des_first = spec;
  des_first.backends = {BackendKind::Des, BackendKind::Analytic};
  ExperimentService service;
  const auto a = service.run(spec);
  const auto b = service.run(des_first);
  const auto& evals = a.at(BackendKind::Analytic).evals;
  const auto& va = a.at(BackendKind::Des).vr;
  const auto& vb = b.at(BackendKind::Des).vr;
  ASSERT_EQ(va.size(), evals.size());
  ASSERT_EQ(vb.size(), evals.size());
  for (std::size_t i = 0; i < evals.size(); ++i) {
    EXPECT_EQ(va[i].cv.ttsf.control_mean, evals[i].mttsf) << i;
    EXPECT_EQ(vb[i].cv.ttsf.control_mean, evals[i].mttsf) << i;
    EXPECT_EQ(va[i].cv.cost.control_mean, vb[i].cv.cost.control_mean) << i;
    EXPECT_EQ(va[i].cv.ttsf.adjusted.mean, vb[i].cv.ttsf.adjusted.mean) << i;
  }

  // Means that do not cover every point are refused before any work.
  const auto grid = spec.grid();
  const std::vector<core::Params> points{grid.point(spec.base, 0),
                                         grid.point(spec.base, 1)};
  EXPECT_THROW((void)vr::run_vr(spec.vr, spec.mc, points,
                                std::span(evals).first(1)),
               std::invalid_argument);
}

// --- Codec: spec round-trip, result round-trip, validation paths -----

TEST(VrCodec, SpecRoundTripsCanonicallyAndIsOptionalOnRead) {
  const auto spec = vr_spec();
  const std::string bytes = spec.to_json().dump();
  const auto back = ExperimentSpec::from_json(util::Json::parse(bytes));
  EXPECT_EQ(back.to_json().dump(), bytes);  // canonical wire format
  EXPECT_TRUE(back.vr.sobol.enabled);
  EXPECT_EQ(back.vr.splitting.levels, spec.vr.splitting.levels);

  // A vr-less spec emits NO "vr" key (pre-PR spec bytes stay stable)
  // and old documents without the key parse to a disabled subsystem.
  auto plain = vr_spec();
  plain.vr = vr::VrOptions{};
  const std::string plain_bytes = plain.to_json().dump();
  EXPECT_EQ(plain_bytes.find("\"vr\""), std::string::npos);
  EXPECT_FALSE(
      ExperimentSpec::from_json(util::Json::parse(plain_bytes)).vr.any());
}

TEST(VrCodec, ResultRoundTripsBitwise) {
  ExperimentService service;
  const auto result = service.run(vr_spec());
  ASSERT_FALSE(result.at(BackendKind::Des).vr.empty());
  const auto back =
      core::ExperimentResult::from_json(util::Json::parse(
          result.to_json().dump()));
  EXPECT_EQ(back.canonical_json().dump(), result.canonical_json().dump());
  // Derived summaries (CV ratio, splitting probability) re-derive
  // identically from the serialised raw states.
  const auto& a = result.at(BackendKind::Des).vr[0];
  const auto& b = back.at(BackendKind::Des).vr[0];
  EXPECT_EQ(a.cv.ttsf.variance_ratio, b.cv.ttsf.variance_ratio);
  EXPECT_EQ(a.splitting.probability.ci_half_width,
            b.splitting.probability.ci_half_width);
}

TEST(VrCodec, ValidationErrorsNameTheOffendingPath) {
  const auto expect_path = [](ExperimentSpec spec, const char* needle) {
    try {
      spec.validate();
      FAIL() << "expected rejection mentioning " << needle;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };

  auto bad_levels = vr_spec();
  bad_levels.vr.splitting.levels = {2, 4, 4};
  expect_path(bad_levels, "spec.mc.vr.splitting.levels[2]");

  auto bad_target = vr_spec();
  bad_target.vr.splitting.target = "c3";
  expect_path(bad_target, "spec.mc.vr.splitting.target");

  auto bad_pilot = vr_spec();
  bad_pilot.vr.cv.replications = bad_pilot.vr.cv.pilot;
  expect_path(bad_pilot, "spec.mc.vr.cv.replications");

  auto bad_pair = vr_spec();
  bad_pair.mc.antithetic = true;
  expect_path(bad_pair, "spec.mc.vr.sobol");

  auto no_des = vr_spec();
  no_des.backends = {BackendKind::Analytic};
  expect_path(no_des, "spec.mc.vr");
}

// --- Presets ----------------------------------------------------------

TEST(VrPresets, RareEventAndValProtocolCiAreRegisteredAndWellFormed) {
  const auto names = core::experiment_preset_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "rare_event"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "val_protocol_ci"),
            names.end());

  const auto rare = core::experiment_preset("rare_event", true);
  EXPECT_TRUE(rare.vr.sobol.enabled);
  EXPECT_TRUE(rare.vr.cv.enabled);
  EXPECT_TRUE(rare.vr.splitting.enabled);
  EXPECT_NO_THROW(rare.validate());

  // The CI-stopping twin targets a width and pair-averages; the
  // golden-pinned val_protocol stays a fixed budget.
  const auto ci = core::experiment_preset("val_protocol_ci", true);
  EXPECT_NO_THROW(ci.validate());
  EXPECT_GT(ci.mc.rel_ci_target, 0.0);
  EXPECT_TRUE(ci.mc.antithetic);
  EXPECT_LT(ci.mc.min_replications, ci.mc.max_replications);
  const auto pinned = core::experiment_preset("val_protocol", true);
  EXPECT_EQ(pinned.mc.rel_ci_target, 0.0);
}

}  // namespace
