// Continuous-time Markov chain extracted from a reachability graph, for
// the uniformisation test oracle (oracle/transient.h).  Self-loop edges
// are excluded from the generator (they cancel in Q).
#pragma once

#include <vector>

#include "oracle/csr_matrix.h"
#include "spn/reachability.h"

namespace midas::spn {

class Ctmc {
 public:
  static Ctmc from_graph(const ReachabilityGraph& graph);

  /// Infinitesimal generator Q (row = source state); diagonal = −exit rate.
  [[nodiscard]] const linalg::CsrMatrix& generator() const noexcept {
    return q_;
  }
  [[nodiscard]] std::size_t num_states() const noexcept { return n_; }
  [[nodiscard]] StateId initial() const noexcept { return initial_; }
  /// Total exit rate of each state (excludes self-loops).
  [[nodiscard]] const std::vector<double>& exit_rates() const noexcept {
    return exit_;
  }
  [[nodiscard]] const std::vector<char>& absorbing() const noexcept {
    return absorbing_;
  }
  [[nodiscard]] std::size_t num_absorbing() const;

  /// Max exit rate — the uniformisation constant base.
  [[nodiscard]] double max_exit_rate() const;

 private:
  std::size_t n_ = 0;
  StateId initial_ = 0;
  linalg::CsrMatrix q_;
  std::vector<double> exit_;
  std::vector<char> absorbing_;
};

}  // namespace midas::spn
