#include "core/sensitivity.h"

#include <cstdint>
#include <functional>
#include <stdexcept>

#include "core/gcs_spn_model.h"
#include "core/sweep_engine.h"

namespace midas::core {

namespace {

struct Probe {
  std::string name;
  std::function<double&(Params&)> field;
};

}  // namespace

std::vector<SensitivityEntry> sensitivity_analysis(
    const Params& base, const SensitivityOptions& opts) {
  base.validate();
  if (opts.relative_step <= 0.0 || opts.relative_step >= 1.0) {
    throw std::invalid_argument("sensitivity_analysis: bad step");
  }

  const std::vector<Probe> probes = {
      {"lambda_c (compromise rate)",
       [](Params& p) -> double& { return p.lambda_c; }},
      {"lambda_q (data rate)",
       [](Params& p) -> double& { return p.lambda_q; }},
      {"t_ids (detection interval)",
       [](Params& p) -> double& { return p.t_ids; }},
      {"p1 (host false negative)",
       [](Params& p) -> double& { return p.p1; }},
      {"p2 (host false positive)",
       [](Params& p) -> double& { return p.p2; }},
      {"lambda (join rate)",
       [](Params& p) -> double& { return p.lambda_join; }},
      {"mu (leave rate)", [](Params& p) -> double& { return p.mu_leave; }},
  };

  // Every probe scales a rate without touching the model structure, so
  // all lo/hi evaluations run as one engine batch over one exploration.
  std::vector<Params> points;
  std::vector<double> base_values(probes.size(), 0.0);
  std::vector<std::size_t> point_of(probes.size(), SIZE_MAX);
  for (std::size_t i = 0; i < probes.size(); ++i) {
    Params lo = base;
    Params hi = base;
    const double v0 = probes[i].field(lo);  // same as base value
    base_values[i] = v0;
    if (v0 == 0.0) continue;  // elasticity undefined at zero
    probes[i].field(lo) = v0 * (1.0 - opts.relative_step);
    probes[i].field(hi) = v0 * (1.0 + opts.relative_step);
    point_of[i] = points.size();
    points.push_back(std::move(lo));
    points.push_back(std::move(hi));
  }

  SweepEngine engine;
  const auto evals = engine.evaluate(points, kDefaultBatchWidth);

  std::vector<SensitivityEntry> out;
  out.reserve(probes.size());
  for (std::size_t i = 0; i < probes.size(); ++i) {
    if (point_of[i] == SIZE_MAX) {
      // Elasticity undefined at zero; report zeros rather than guessing.
      out.push_back({probes[i].name, 0.0, 0.0, 0.0});
      continue;
    }
    const auto& ev_lo = evals[point_of[i]];
    const auto& ev_hi = evals[point_of[i] + 1];

    SensitivityEntry entry;
    entry.parameter = probes[i].name;
    entry.base_value = base_values[i];
    const double dp = 2.0 * opts.relative_step;  // (hi−lo)/v0
    entry.mttsf_elasticity =
        (ev_hi.mttsf - ev_lo.mttsf) /
        (0.5 * (ev_hi.mttsf + ev_lo.mttsf)) / dp;
    entry.ctotal_elasticity =
        (ev_hi.ctotal - ev_lo.ctotal) /
        (0.5 * (ev_hi.ctotal + ev_lo.ctotal)) / dp;
    out.push_back(entry);
  }
  return out;
}

}  // namespace midas::core
