// Phased-mission analytic solver: MTTSF, Ĉtotal and R(t) for a
// time-varying parameterisation (core::RateSchedule / MissionProfile)
// by chaining the constant-rate machinery across the resolved timeline.
//
// Method: resolve_timeline() yields ordered constant segments.  Within
// each non-final segment the transient distribution advances by
// Crank–Nicolson steps of the adjoint backward-Kolmogorov system
// (spn::ReliabilityOde::propagate), accumulating the segment's
// survival-time integral (its MTTSF share), its occupancy ∫w dt and
// the mass it absorbed; the weights at each boundary seed the next
// segment.  The final segment (infinite horizon) closes the chain
// analytically with spn::AbsorbingAnalyzer::solve_from on the boundary
// distribution.  core::accumulate_rewards — the reward pass of every
// constant-rate evaluation — rewards each segment as a batch of one,
// the phases' occupancy and absorbed mass standing in for the tail's
// sojourn and absorption probabilities.
// Every θ-step and the tail are the same exact SCC-block substitution
// (spn::TransientStructure), so fast partition/merge cycling costs
// neither accuracy nor iterations.  A non-final segment need not
// contain an absorbing state at all.
//
// Structure reuse: segments whose core::structure_key matches the
// first segment's re-rate the first segment's reachability graph
// through its core::StructurePlan (a batch of one point — the
// sweep-engine idiom), so phase boundaries cost one rate vector, not
// one exploration; the same plan rewards those phases and the tail.
// Structurally different segments explore their own graph (with its
// own plan) and the
// boundary weights are remapped marking-by-marking; mass at a marking
// the next segment cannot represent is an error naming both segments
// (a zero-rate phase can orphan states this way).  A segment's rate
// and impulse vectors are re-rated through its plan where they are
// used, so only the segment being integrated holds them.
//
// A single-segment timeline — no schedule/mission, or a constant one —
// routes straight through GcsSpnModel::evaluate()/reliability_at(),
// making the constant case bitwise the legacy analytic path.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/gcs_spn_model.h"
#include "core/params.h"
#include "core/structure_plan.h"
#include "spn/absorbing.h"
#include "spn/reliability_ode.h"

namespace midas::core {

struct MissionOptions {
  /// Per-segment θ-grid of the forward propagation (see
  /// spn::ReliabilityOdeOptions).
  spn::ReliabilityOdeOptions ode;
};

class MissionAnalyzer {
 public:
  /// Validates `params` (which may be constant or time-varying) and
  /// builds one GcsSpnModel per resolved timeline segment — so the
  /// same detector/attacker expressibility rules apply per segment.
  explicit MissionAnalyzer(Params params, MissionOptions options = {});

  /// The resolved piecewise-constant timeline this analyzer chains
  /// over (size 1 for a constant parameterisation).
  [[nodiscard]] const std::vector<TimelineSegment>& timeline()
      const noexcept {
    return timeline_;
  }

  /// MTTSF, Ĉtotal, cost components and C1/C2 split for the phased
  /// mission.  Single-segment timelines return
  /// GcsSpnModel::evaluate() bitwise.
  [[nodiscard]] Evaluation evaluate() const;

  /// Mission reliability R(t) at ascending non-negative times, chained
  /// across phase boundaries.  Single-segment timelines return
  /// GcsSpnModel::reliability_at() bitwise.
  [[nodiscard]] std::vector<double> reliability_at(
      std::span<const double> times) const;

 private:
  struct Segment {
    std::unique_ptr<GcsSpnModel> model;
    /// The graph this segment integrates on: the first segment's (re-
    /// rated) when the structure key matches, else the model's own.
    const spn::ReachabilityGraph* graph = nullptr;
    const StructurePlan* plan = nullptr;  // of `graph`, in plans_
  };

  /// Per-edge rates and impulses of one segment on its graph.
  struct SegmentRates {
    std::vector<double> rates;
    std::vector<double> impulses;
  };

  /// Segment k's rates and impulses, re-rated through its plan.
  [[nodiscard]] SegmentRates rate_segment(std::size_t k) const;

  /// Carries boundary weights from `from`'s graph to `to`'s graph by
  /// marking identity; throws when unrepresentable mass exceeds 1e-12
  /// of the total.
  [[nodiscard]] std::vector<double> remap_weights(
      std::span<const double> weights, std::size_t from,
      std::size_t to) const;

  MissionOptions options_;
  std::vector<TimelineSegment> timeline_;
  std::vector<Segment> segments_;
  std::vector<std::unique_ptr<const StructurePlan>> plans_;  // per graph
};

}  // namespace midas::core
