// One explored GCS structure, tabulated for the batched analytic path.
//
// Every GCS edge rate is a role (T_CP, T_IDS, T_FA, T_DRQ, T_PAR,
// T_MER) applied to per-point values of a few marking features, and
// every reward reads a (members, groups) cost class and the absorbing
// kind of a state.  All of that is structural: it depends on the
// explored graph and on the structure_key fields (n_init, max_groups,
// the Byzantine fraction, the detector), never on TIDS, the shapes, m
// or the rates.  A StructurePlan records it once per structure:
//   - per state: Tm, UCm, NG, an attacker key (the (Tm, UCm) pair mc
//     reads in either progress mode) and a voting key (the per-group
//     pools, or (Tm, UCm, NG) for state-dependent detectors), with
//     members = Tm+UCm and the class (members, max(NG,1)) derived;
//   - per state: its absorbing kind (C1, C2 or neither);
//   - per edge: its role.
// rate() then fills each batch point's tables once (D over members,
// A over attacker keys, the voting rates, p1·λq, the eviction impulse
// per class, the partition/merge rates) and writes the [edge][point]
// matrices with gather loops over P contiguous lanes.
// accumulate_rewards reads the classes and absorbing kinds.
//
// Bitwise contract: rate() writes exactly what
// spn::ReachabilityGraph::compute_rates_batch computes from the
// models' nets — the same GcsSpnModel helpers, the same expression
// order, the same clamp of non-positive rate values to 0, and the same
// re-rate error (spn::rerate_error) naming the edge, the transition,
// the marking and the batch point.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/gcs_spn_model.h"
#include "spn/absorbing.h"
#include "spn/reachability.h"
#include "util/arena.h"

namespace midas::core {

class StructurePlan {
 public:
  /// Tabulates `graph`, explored from `model`'s net.  Every model a
  /// later call passes must share the structure (as points with equal
  /// structure_key do).  `graph` must outlive the plan.
  StructurePlan(const GcsSpnModel& model, const spn::ReachabilityGraph& graph);

  [[nodiscard]] const spn::ReachabilityGraph& graph() const noexcept {
    return graph_;
  }

  /// Fills the point-major [edge][point] rate and impulse matrices for
  /// `models` (P = models.size(); both spans hold edge count × P
  /// doubles), bitwise ReachabilityGraph::compute_rates_batch over the
  /// models' nets.  Throws std::invalid_argument
  /// on an empty batch, a span of the wrong size or a model whose
  /// detector or Byzantine fraction differs from the plan's, and
  /// spn::rerate_error's std::runtime_error when an edge re-rates to a
  /// non-positive value.
  void rate(std::span<const GcsSpnModel* const> models,
            std::span<double> rates, std::span<double> impulses) const;

 private:
  friend std::vector<RewardSums> accumulate_rewards(
      std::span<const GcsSpnModel* const> models, const StructurePlan& plan,
      std::span<const double> sojourn,
      std::span<const double> absorb_probability,
      std::span<const double> edge_rates,
      std::span<const double> edge_impulses);

  enum class Role : std::uint8_t { CP, IDS, FA, DRQ, PAR, MER };
  enum class Absorbing : std::uint8_t { No, C1, C2 };

  /// The marking features a state's rates and rewards read.
  struct StateFeatures {
    std::int32_t tm = 0;
    std::int32_t ucm = 0;
    std::int32_t ng = 0;
    std::uint32_t attacker = 0;  // into mc_ratio_/mc_campaign_
    std::uint32_t voting = 0;    // into voting_keys_
  };

  /// Inputs of one voting-table entry: the per-group pools, plus the
  /// system-wide (Tm, UCm, NG) for state-dependent detectors.
  struct VotingKey {
    std::int32_t tm, ucm, groups, g_tm, g_ucm;
  };

  /// Throws std::invalid_argument unless every model can use the plan.
  void check_models(std::span<const GcsSpnModel* const> models) const;

  /// cost_rates() per class of the transient states and per point,
  /// [class][point] (class_of indexes the rows): cost_rates reads a
  /// marking only through Tm+UCm and max(NG,1), so one CostBreakdown
  /// per class is bitwise each of its states' values.
  [[nodiscard]] std::vector<gcs::CostBreakdown> class_costs(
      std::span<const GcsSpnModel* const> models) const;

  /// The (members, groups) cost class of state s.
  [[nodiscard]] std::size_t class_of(const StateFeatures& f) const noexcept {
    return static_cast<std::size_t>(f.tm + f.ucm) * max_groups_ +
           static_cast<std::size_t>(std::max(f.ng, 1) - 1);
  }

  const spn::ReachabilityGraph& graph_;
  bool state_dependent_ = false;  // the detector's effective (p1,p2) move
  double byzantine_fraction_ = 0.0;
  std::size_t max_groups_ = 1;    // class stride: the largest max(NG,1)
  std::size_t member_slots_ = 1;  // largest Tm+UCm + 1
  std::size_t ng_slots_ = 1;      // partition/merge tables: largest NG + 1

  std::vector<StateFeatures> features_;  // per state
  std::vector<Absorbing> absorbing_;     // per state
  std::vector<Role> roles_;              // per edge
  // Per attacker key: its (Tm, UCm), and mc under each progress mode
  // (each point picks its own).
  std::vector<std::pair<std::int32_t, std::int32_t>> attacker_counts_;
  std::vector<double> mc_ratio_;
  std::vector<double> mc_campaign_;
  // Tm+UCm of the transient states, ascending, with md at each.
  std::vector<std::int32_t> members_;
  std::vector<double> md_;
  // Class indices (class_of) of the transient states, ascending.
  std::vector<std::uint32_t> classes_;
  std::vector<VotingKey> voting_keys_;
};

/// The reward pass behind every constant-rate Evaluation, over P points
/// solved on the plan's graph (P = models.size()).  All spans are
/// point-major as AbsorbingAnalyzer::solve_batch returns them — sojourn
/// and absorb_probability [state][point], edge_rates and edge_impulses
/// [edge][point] — so a scalar AbsorbingResult with its rate/impulse
/// vectors is the P = 1 case.  Per point and in state order: the six
/// cost components over transient mass (one CostBreakdown per
/// (members, groups) class, bitwise the per-state value), the C1/C2
/// classification of absorbed mass (the plan's absorbing kinds), then
/// the eviction impulses in edge order.  models[p] must share the
/// plan's structure.
[[nodiscard]] std::vector<RewardSums> accumulate_rewards(
    std::span<const GcsSpnModel* const> models, const StructurePlan& plan,
    std::span<const double> sojourn,
    std::span<const double> absorb_probability,
    std::span<const double> edge_rates,
    std::span<const double> edge_impulses);

/// evaluate_with_batch on a structure whose plan is at hand: the
/// analyzer and the plan must share one graph.
[[nodiscard]] std::vector<Evaluation> evaluate_with_batch(
    std::span<const GcsSpnModel* const> models,
    const spn::AbsorbingAnalyzer& analyzer, const StructurePlan& plan,
    std::span<const double> edge_rates, std::span<const double> edge_impulses,
    bool factor_reuse, util::Arena& arena);

}  // namespace midas::core
