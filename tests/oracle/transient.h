// Transient CTMC solution by uniformisation (Jensen's method):
//   π(t) = Σ_k  Pois(Λt; k) · π₀ Pᵏ,   P = I + Q/Λ,  Λ ≥ max exit rate.
// Test oracle only: an independent numerical path to the survival
// function spn::ReliabilityOde integrates.  Its cost grows with Λ·t, so
// it serves short, non-stiff horizons.
#pragma once

#include <functional>
#include <vector>

#include "oracle/ctmc.h"
#include "spn/reachability.h"

namespace midas::spn {

struct TransientOptions {
  double epsilon = 1e-12;          // truncation error of the Poisson sum
  double uniformisation_slack = 1.02;  // Λ = slack · max exit rate
};

class TransientAnalyzer {
 public:
  explicit TransientAnalyzer(const ReachabilityGraph& graph);

  /// State probability vector at time t, starting from the graph's
  /// initial state.
  [[nodiscard]] std::vector<double> distribution_at(
      double t, const TransientOptions& opts = {}) const;

  /// Expected instantaneous rate reward at time t:  Σ_s π_s(t)·r(s).
  [[nodiscard]] double expected_reward_at(
      double t, const std::function<double(const Marking&)>& reward,
      const TransientOptions& opts = {}) const;

  /// P[chain is in an absorbing state at time t] — for an absorbing SPN
  /// with failure states this is the unreliability F(t).
  [[nodiscard]] double absorbed_probability_at(
      double t, const TransientOptions& opts = {}) const;

 private:
  const ReachabilityGraph& graph_;
  Ctmc ctmc_;
};

}  // namespace midas::spn
