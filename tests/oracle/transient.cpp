#include "oracle/transient.h"

#include <stdexcept>

#include "oracle/fox_glynn.h"

namespace midas::spn {

TransientAnalyzer::TransientAnalyzer(const ReachabilityGraph& graph)
    : graph_(graph), ctmc_(Ctmc::from_graph(graph)) {}

std::vector<double> TransientAnalyzer::distribution_at(
    double t, const TransientOptions& opts) const {
  if (t < 0.0) throw std::invalid_argument("distribution_at: t < 0");
  const std::size_t n = ctmc_.num_states();
  std::vector<double> pi0(n, 0.0);
  pi0[ctmc_.initial()] = 1.0;
  if (t == 0.0) return pi0;

  const double lambda =
      std::max(ctmc_.max_exit_rate() * opts.uniformisation_slack, 1e-12);
  const auto window = linalg::poisson_window(lambda * t, opts.epsilon);

  // P = I + Q/Λ as triplets once; πₖ₊₁ = πₖ P  via  Pᵀ πₖ.
  const auto& q = ctmc_.generator();
  std::vector<linalg::Triplet> trips;
  for (std::size_t r = 0; r < n; ++r) {
    const auto cols = q.row_cols(r);
    const auto vals = q.row_values(r);
    bool has_diag = false;
    for (std::size_t k = 0; k < cols.size(); ++k) {
      double v = vals[k] / lambda;
      if (cols[k] == r) {
        v += 1.0;
        has_diag = true;
      }
      trips.push_back({static_cast<std::uint32_t>(r), cols[k], v});
    }
    if (!has_diag) {
      trips.push_back({static_cast<std::uint32_t>(r),
                       static_cast<std::uint32_t>(r), 1.0});
    }
  }
  const auto p = linalg::CsrMatrix::from_triplets(n, n, std::move(trips));

  std::vector<double> pik = pi0;
  std::vector<double> result(n, 0.0);
  std::vector<double> next;

  for (std::size_t k = 0; k <= window.right; ++k) {
    const double w = window.weight(k);
    if (w > 0.0) {
      for (std::size_t s = 0; s < n; ++s) result[s] += w * pik[s];
    }
    if (k < window.right) {
      p.multiply_transpose(pik, next);
      pik.swap(next);
    }
  }
  return result;
}

double TransientAnalyzer::expected_reward_at(
    double t, const std::function<double(const Marking&)>& reward,
    const TransientOptions& opts) const {
  const auto pi = distribution_at(t, opts);
  double acc = 0.0;
  for (std::size_t s = 0; s < pi.size(); ++s) {
    if (pi[s] > 0.0) acc += pi[s] * reward(graph_.states[s]);
  }
  return acc;
}

double TransientAnalyzer::absorbed_probability_at(
    double t, const TransientOptions& opts) const {
  const auto pi = distribution_at(t, opts);
  const auto& absorbing = ctmc_.absorbing();
  double acc = 0.0;
  for (std::size_t s = 0; s < pi.size(); ++s) {
    if (absorbing[s]) acc += pi[s];
  }
  return acc;
}

}  // namespace midas::spn
