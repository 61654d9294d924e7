// Stiff-horizon transient analysis by the θ-method (Crank–Nicolson).
//
// Uniformisation costs O(Λ·t) matrix-vector products; for mission-length
// horizons with fast IDS rates Λ·t reaches 10⁸ and the method is
// unusable.  propagate() instead advances the transient state
// DISTRIBUTION through the adjoint backward-Kolmogorov system
//
//     w'(t) = Q_TTᵀ · w(t),   R(t) = Σ_i w_i(t),
//
// with steps limited only by accuracy, not by Λ.  Dividing one implicit
// step (I − θh·Q_TTᵀ)·w′ = r through by θh gives the sojourn balance of
// spn/absorbing.h with every diagonal raised by 1/(θh):
//
//     (1/(θh) + exit_j)·w′_j − Σ_{i→j} r_ij·w′_i = r_j/(θh),
//
// so each step is solved EXACTLY by TransientStructure::substitute — the
// same SCC-condensation kernel the mean-time-to-absorption solves run
// (here with one lane and its scratch from a util::Arena).
// In the GCS model the transient chain's only cycles are the group
// partition/merge flips, so the pass is a division per singleton state
// plus a small pivot-free elimination per flip block, and stays exact
// however fast the flips are.
//
// Phased missions (core::MissionAnalyzer) chain propagate() across
// piecewise-constant segments: the weights at a phase boundary seed the
// next phase.  Per-phase generators come from the constructor's
// edge-rate override (the sweep-engine re-rating idiom), so one explored
// graph serves every structure-invariant phase.
// A CN step is w_{j+1} − w_j = Q_TTᵀ·h_j/2·(w_j + w_{j+1}), so the
// trapezoid occupancy ∫w dt telescopes to Q_TTᵀ·occupancy = w_N − w_0:
// a phase's occupancy plus the exact sojourn from its end weights is the
// exact sojourn from its start weights, whatever the grid.
#pragma once

#include <span>
#include <vector>

#include "spn/absorbing.h"
#include "spn/reachability.h"

namespace midas::spn {

/// The θ-grid.  θ is fixed at 0.5 (Crank–Nicolson) and the log-spaced
/// grid spans horizon·10⁻⁸ .. horizon.
struct ReliabilityOdeOptions {
  std::size_t steps = 800;  // integration grid size (log-spaced)
  /// > 0 replaces the log-spaced grid with UNIFORM steps of this size
  /// (the last step truncated to the horizon).  Splitting a horizon at
  /// an exact multiple of the step then reproduces the unsplit step
  /// sequence exactly — the phase-boundary chaining tests rely on it.
  double uniform_step_s = 0.0;
};

/// What one propagate() call accumulated over its phase.
struct ForwardResult {
  /// Transient distribution w(duration), full-state indexing
  /// (identically 0 at absorbing states).
  std::vector<double> weights;
  /// ∫₀^duration Σ_i w_i(t) dt — the phase's survival-time integral
  /// (its MTTSF contribution).
  double survival_integral = 0.0;
  /// ∫₀^duration w(t) dt per state (full-state, 0 at absorbing states):
  /// the phase's sojourn.
  std::vector<double> occupancy;
  /// Mass absorbed per absorbing state during the phase (full-state):
  /// Σ_i occupancy_i·r(i→a), so Σw(duration) + Σabsorbed = Σw(0).
  std::vector<double> absorbed;
  /// Σ_i w_i(t_j) at each requested emit time (linear interpolation on
  /// the integration grid, clamped to [0, 1]).
  std::vector<double> survival_at;
};

class ReliabilityOde {
 public:
  /// The generator of `graph`, with per-edge rates overriding the stored
  /// ones when `edge_rates` is non-empty — `edge_rates[i]` replaces
  /// `graph.edges[i].rate` (the AbsorbingAnalyzer::solve(edge_rates)
  /// idiom: one explored structure, one rate vector per sweep point or
  /// mission phase).  `graph` must outlive the integrator.
  explicit ReliabilityOde(const ReachabilityGraph& graph,
                          std::span<const double> edge_rates = {});

  /// Advances the transient distribution `initial` (full-state
  /// indexing; entries at absorbing states must be zero — absorbed mass
  /// has left the survival problem) through `duration` seconds of this
  /// generator.  Accumulates the survival-time integral, the occupancy
  /// and absorbed mass, and Σw at each `emit_times` entry (finite,
  /// ascending, within [0, duration]; std::invalid_argument names the
  /// first bad index).  A non-empty `initial` is vetted by
  /// check_transient_mass as "propagate: initial".  Empty `initial`
  /// means the graph's initial state, so R(t_j) is
  /// propagate({}, times.back(), times).survival_at.  Any graph is
  /// accepted, including one with no absorbing state.
  [[nodiscard]] ForwardResult propagate(
      std::span<const double> initial, double duration,
      std::span<const double> emit_times,
      const ReliabilityOdeOptions& opts = {}) const;

 private:
  const ReachabilityGraph& graph_;
  const TransientStructure t_;
  std::vector<double> rates_;  // per-edge rates of this generator
};

}  // namespace midas::spn
