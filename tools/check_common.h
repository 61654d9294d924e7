// Equality notions shared by the tool-side CI gates: run_experiment's
// --parity-check (service vs engine-level reruns) and sweep_merge's
// --check (merged shards vs single-process run) must enforce the SAME
// definition of "equal", or a divergence could pass one gate and fail
// the other.
#pragma once

#include <algorithm>
#include <cmath>

#include "core/gcs_spn_model.h"
#include "sim/mc_engine.h"

namespace midas::tools {

inline double rel_diff(double a, double b) {
  const double scale = std::max({std::fabs(a), std::fabs(b), 1e-300});
  return std::fabs(a - b) / scale;
}

/// Largest relative difference over every metric the paper reports.
inline double eval_rel_diff(const core::Evaluation& a,
                            const core::Evaluation& b) {
  double d = std::max(rel_diff(a.mttsf, b.mttsf),
                      rel_diff(a.ctotal, b.ctotal));
  d = std::max(d, rel_diff(a.cost_rates.group_comm, b.cost_rates.group_comm));
  d = std::max(d, rel_diff(a.cost_rates.status, b.cost_rates.status));
  d = std::max(d, rel_diff(a.cost_rates.rekey, b.cost_rates.rekey));
  d = std::max(d, rel_diff(a.cost_rates.ids, b.cost_rates.ids));
  d = std::max(d, rel_diff(a.cost_rates.beacon, b.cost_rates.beacon));
  d = std::max(d, rel_diff(a.cost_rates.partition_merge,
                           b.cost_rates.partition_merge));
  d = std::max(d, rel_diff(a.eviction_cost_rate, b.eviction_cost_rate));
  d = std::max(d, rel_diff(a.p_failure_c1, b.p_failure_c1));
  d = std::max(d, rel_diff(a.p_failure_c2, b.p_failure_c2));
  return d;
}

inline bool welford_bitwise_equal(const sim::WelfordState& a,
                                  const sim::WelfordState& b) {
  return a.n == b.n && a.mean == b.mean && a.m2 == b.m2;
}

/// Bitwise equality of everything a Monte-Carlo point serialises.
inline bool mc_bitwise_equal(const sim::McPointResult& a,
                             const sim::McPointResult& b) {
  return welford_bitwise_equal(a.ttsf_state, b.ttsf_state) &&
         welford_bitwise_equal(a.cost_rate_state, b.cost_rate_state) &&
         a.replications == b.replications &&
         a.failures_c1 == b.failures_c1 && a.converged == b.converged &&
         a.survival_counts == b.survival_counts &&
         a.timeouts == b.timeouts &&
         a.keys_always_agreed == b.keys_always_agreed;
}

}  // namespace midas::tools
