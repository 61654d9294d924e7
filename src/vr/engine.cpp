#include "vr/engine.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>

#include "sim/rng.h"
#include "vr/sobol.h"

namespace midas::vr {

namespace {

// Seed-domain tags: every estimator derives its base seed as
// splitmix64(mc.base_seed ^ tag), so no vr stream can collide with the
// plain pass (stream 0/point streams of the raw base seed) or with a
// sibling estimator.
constexpr std::uint64_t kCvTag = 0xC0FFEE0CF01D5EEDull;
constexpr std::uint64_t kSobolTag = 0x50B0150B015EED00ull;
constexpr std::uint64_t kSplitTag = 0x5924977165EED000ull;

/// Extracts sample k of a captured trajectory list: the trajectory
/// itself, or the antithetic pair average of (2k, 2k+1) — both the
/// estimator Y and the control C are averaged, which keeps the CV
/// identity E[C] exact and the pair correlation inside one sample.
struct CvSample {
  double ttsf, dwell, cost, ecost;
};

CvSample cv_sample(const std::vector<sim::Trajectory>& t, std::size_t k,
                   bool antithetic) {
  if (!antithetic) {
    return {t[k].ttsf, t[k].expected_dwell, t[k].accumulated_cost,
            t[k].expected_cost};
  }
  const sim::Trajectory& a = t[2 * k];
  const sim::Trajectory& b = t[2 * k + 1];
  return {0.5 * (a.ttsf + b.ttsf),
          0.5 * (a.expected_dwell + b.expected_dwell),
          0.5 * (a.accumulated_cost + b.accumulated_cost),
          0.5 * (a.expected_cost + b.expected_cost)};
}

CvMetric reduce_cv_metric(const std::vector<double>& y,
                          const std::vector<double>& c,
                          std::size_t pilot, double control_mean) {
  CvMetric m;
  m.control_mean = control_mean;
  sim::RegressionWelford reg;
  for (std::size_t k = 0; k < pilot; ++k) reg.push(y[k], c[k]);
  m.beta = reg.beta();
  m.correlation = reg.correlation();
  sim::Welford plain, adjusted;
  for (std::size_t k = pilot; k < y.size(); ++k) {
    plain.push(y[k]);
    adjusted.push(y[k] - m.beta * (c[k] - control_mean));
  }
  m.plain_state = plain.state();
  m.adjusted_state = adjusted.state();
  m.finalize();
  return m;
}

void run_cv_all(const ControlVariateOptions& cv, const sim::McOptions& mc,
                std::span<const core::Params> points,
                std::span<const core::Evaluation> exact_evals,
                std::vector<VrPointResult>& out) {
  sim::McOptions opts = mc;
  opts.base_seed = sim::splitmix64(mc.base_seed ^ kCvTag);
  opts.min_replications = cv.replications;
  opts.max_replications = cv.replications;
  opts.block = std::min(mc.block, cv.replications);
  opts.rel_ci_target = 0.0;  // fixed budget
  opts.capture_trajectories = true;
  opts.survival_horizons.clear();
  opts.stream_factory = nullptr;
  sim::MonteCarloEngine engine(opts);
  const auto results = engine.run_des(points);
  // The exact control means: E[expected_dwell] = MTTSF and
  // E[expected_cost] = Ĉtotal·MTTSF (accumulated cost to absorption) —
  // identities of the time-homogeneous CTMC that spec validation
  // already guarantees.
  for (std::size_t p = 0; p < points.size(); ++p) {
    const core::Evaluation& exact = exact_evals[p];
    const auto& trajs = results[p].trajectories;
    const std::size_t n = opts.antithetic ? trajs.size() / 2 : trajs.size();
    std::vector<double> y_t(n), c_t(n), y_c(n), c_c(n);
    for (std::size_t k = 0; k < n; ++k) {
      const CvSample s = cv_sample(trajs, k, opts.antithetic);
      y_t[k] = s.ttsf;
      c_t[k] = s.dwell;
      y_c[k] = s.cost;
      c_c[k] = s.ecost;
    }
    const std::size_t pilot = std::min(cv.pilot, n >= 2 ? n - 2 : 0);
    CvResult& r = out[p].cv;
    out[p].has_cv = true;
    r.pilot = pilot;
    r.replications = trajs.size();
    r.ttsf = reduce_cv_metric(y_t, c_t, pilot, exact.mttsf);
    r.cost = reduce_cv_metric(y_c, c_c, pilot, exact.ctotal * exact.mttsf);
  }
}

void run_sobol_all(const SobolOptions& so, const sim::McOptions& mc,
                   std::span<const core::Params> points,
                   std::vector<VrPointResult>& out) {
  const std::uint64_t base = sim::splitmix64(mc.base_seed ^ kSobolTag);
  std::vector<std::vector<double>> ttsf_means(points.size());
  std::vector<std::vector<double>> cost_means(points.size());

  for (std::size_t group = 0; group < so.replicates; ++group) {
    sim::McOptions opts = mc;
    opts.base_seed = base;
    opts.min_replications = so.samples_per_replicate;
    opts.max_replications = so.samples_per_replicate;
    opts.block = std::min(mc.block, so.samples_per_replicate);
    opts.rel_ci_target = 0.0;  // QMC needs the full fixed point set
    opts.antithetic = false;   // spec validation enforces this
    opts.capture_trajectories = false;
    opts.survival_horizons.clear();
    // Replication rep of stream key k draws Sobol point rep under a
    // scramble key derived from (group, k): the key inherits the
    // engine's CRN/shard-offset stream semantics, and each group is an
    // independent randomisation of the same point set.
    const std::uint64_t group_key = sim::derive_seed(base, group);
    opts.stream_factory = [group_key](std::uint64_t stream_key,
                                      std::size_t rep, bool antithetic)
        -> std::unique_ptr<sim::RandomSource> {
      return std::make_unique<SobolStream>(
          sim::derive_seed2(group_key, stream_key, 0),
          static_cast<std::uint32_t>(rep), antithetic);
    };
    sim::MonteCarloEngine engine(opts);
    const auto results = engine.run_des(points);
    for (std::size_t p = 0; p < points.size(); ++p) {
      ttsf_means[p].push_back(results[p].ttsf.mean);
      cost_means[p].push_back(results[p].cost_rate.mean);
    }
  }

  for (std::size_t p = 0; p < points.size(); ++p) {
    SobolResult& s = out[p].sobol;
    out[p].has_sobol = true;
    s.replicates = so.replicates;
    s.samples_per_replicate = so.samples_per_replicate;
    s.ttsf_means = ttsf_means[p];
    s.cost_rate_means = cost_means[p];
    s.ttsf = sim::summarize(s.ttsf_means);
    s.cost_rate = sim::summarize(s.cost_rate_means);
  }
}

}  // namespace

std::vector<VrPointResult> run_vr(const VrOptions& vr,
                                  const sim::McOptions& mc,
                                  std::span<const core::Params> points,
                                  std::span<const core::Evaluation> exact) {
  if (vr.cv.enabled && exact.size() != points.size()) {
    throw std::invalid_argument("run_vr: cv needs " +
                                std::to_string(points.size()) +
                                " exact evaluations, got " +
                                std::to_string(exact.size()));
  }
  std::vector<VrPointResult> out(points.size());
  if (!vr.any() || points.empty()) return out;

  if (vr.cv.enabled) run_cv_all(vr.cv, mc, points, exact, out);
  if (vr.sobol.enabled) run_sobol_all(vr.sobol, mc, points, out);
  if (vr.splitting.enabled) {
    const std::uint64_t base = sim::splitmix64(mc.base_seed ^ kSplitTag);
    for (std::size_t p = 0; p < points.size(); ++p) {
      // Seeded by the GLOBAL point index, so shards reproduce the
      // full-grid estimates point for point.
      const std::uint64_t seed_point =
          sim::derive_seed(base, mc.point_stream_offset + p);
      out[p].has_splitting = true;
      out[p].splitting = run_splitting(vr.splitting, points[p],
                                       seed_point, mc.threads);
    }
  }
  return out;
}

}  // namespace midas::vr
