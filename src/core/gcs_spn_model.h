// The paper's Fig. 1 SPN: a mobile group under inside attack with
// voting-based intrusion detection, solved for MTTSF (mean time to
// security failure) and Ĉtotal (communication cost per second).
//
// Places:   Tm (trusted), UCm (compromised undetected), DCm (detected/
//           evicted), GF (data-leak flag), NG (group count).
// Rates:    T_CP   A(mc)                         attacker
//           T_IDS  mark(UCm)·D(md)·(1−Pfn)       true detection
//           T_FA   mark(Tm)·D(md)·Pfp            false accusation
//           T_DRQ  p1·λq·mark(UCm)               data leak (→ C1)
//           T_PAR/T_MER                          group birth–death
// Guards:   every transition carries ¬C1 ∧ ¬C2, making failure states
//           absorbing; C1 = mark(GF) > 0, C2 = UCm/(Tm+UCm) > 1/3.
// Rewards:  reward 1 in transient states (MTTSF = accumulated reward);
//           per-state cost rates + per-eviction rekey impulses (Ĉtotal).
//
// Group-count scaling (paper: marks "adjusted based on mark(NG)"): the
// model tracks system-wide token counts; per-group quantities — the
// voting pools and the cost model's group size — divide by mark(NG).
// mc, md and the C2 ratio are scale-invariant, so they need no
// adjustment.  Rekeying (the figure's T_RK) enters through the reward
// structure: join/leave rekeys as a rate cost, eviction rekeys as
// impulses on T_IDS/T_FA.
#pragma once

#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/params.h"
#include "gcs/cost_model.h"
#include "ids/voting.h"
#include "spn/absorbing.h"
#include "spn/petri_net.h"
#include "spn/reachability.h"

namespace midas::core {

/// Everything the paper reports for one parameter point.
struct Evaluation {
  double mttsf = 0.0;             // mean time to security failure (s)
  double ctotal = 0.0;            // Ĉtotal (hop-bits/s)
  gcs::CostBreakdown cost_rates;  // time-averaged component rates
  double eviction_cost_rate = 0.0;  // Ĉeviction (impulse rekeys) /MTTSF
  double p_failure_c1 = 0.0;      // P[absorbed via data leak]
  double p_failure_c2 = 0.0;      // P[absorbed via Byzantine fraction]
  std::size_t num_states = 0;     // reachable tangible markings
  /// SCC condensation blocks the direct solver factored (NOT an
  /// iteration count — the legacy name solver_iterations mislabeled
  /// downstream tables).
  std::size_t solver_blocks = 0;
};

class GcsSpnModel {
 public:
  /// Throws std::invalid_argument if `params` carries a detector or
  /// attacker model the time-homogeneous CTMC cannot express (cusum/
  /// logistic detectors, bursty/coordinated attackers), naming the
  /// model and pointing at the des/protocol_sim backends.  The entropy
  /// detector IS expressible — its effective (p1,p2) depends only on
  /// marking token counts — and enters through the per-marking voting
  /// path below.
  explicit GcsSpnModel(Params params);

  /// Solves the model: reachability → CTMC → absorbing analysis →
  /// reward accumulation, as evaluate_with_batch over a batch of one
  /// with the rates stored on the lazily cached reachability graph (see
  /// graph()).  Deterministic; throws on solver failure.
  [[nodiscard]] Evaluation evaluate() const;

  /// The independent per-point oracle: fresh exploration, the scalar
  /// AbsorbingAnalyzer::solve() and one full-state reward pass per cost
  /// component through the generic reward API.  Shares no reward code
  /// with evaluate(); the two agree bitwise.  Gates the batched path in
  /// tests, bench_sweep and run_experiment --parity-check.
  [[nodiscard]] Evaluation evaluate_reference() const;

  /// The explored reachability graph, cached on first use and shared by
  /// evaluate() and reliability_at().  Thread-safe lazy initialisation.
  [[nodiscard]] const spn::ReachabilityGraph& graph() const;

  /// Mission reliability R(t) = P[no security failure by time t] — the
  /// paper's survivability requirement ("survive security threats past
  /// the minimum mission time") as a transient measure, computed by the
  /// θ-method integrator (spn::ReliabilityOde::propagate).  `times` must
  /// be finite, non-negative and ascending (std::invalid_argument names
  /// the first bad index).
  [[nodiscard]] std::vector<double> reliability_at(
      std::span<const double> times) const;

  /// The underlying net (exposed for inspection/tests).
  [[nodiscard]] const spn::PetriNet& net() const noexcept { return net_; }
  [[nodiscard]] const Params& params() const noexcept { return params_; }

  /// Place handles (valid for markings of `net()`).
  [[nodiscard]] spn::PlaceId place_tm() const noexcept { return tm_; }
  [[nodiscard]] spn::PlaceId place_ucm() const noexcept { return ucm_; }
  [[nodiscard]] spn::PlaceId place_dcm() const noexcept { return dcm_; }
  [[nodiscard]] spn::PlaceId place_gf() const noexcept { return gf_; }
  [[nodiscard]] spn::PlaceId place_ng() const noexcept { return ng_; }

  /// Model predicates/quantities for a marking (shared with tests).
  [[nodiscard]] bool failed_c1(const spn::Marking& m) const;
  [[nodiscard]] bool failed_c2(const spn::Marking& m) const;
  [[nodiscard]] bool alive(const spn::Marking& m) const;
  /// Degree of compromise  mc = (Tm+UCm)/Tm.
  [[nodiscard]] double mc(const spn::Marking& m) const;
  /// Eviction progress  md = N_init/(Tm+UCm).
  [[nodiscard]] double md(const spn::Marking& m) const;
  /// Voting-IDS error rates in marking `m` (per-group pools).
  [[nodiscard]] ids::VotingErrorRates voting_rates(
      const spn::Marking& m) const;
  /// Per-state cost rate breakdown (hop-bits/s).
  [[nodiscard]] gcs::CostBreakdown cost_rates(const spn::Marking& m) const;

  /// Opt-in memoisation of the marking-dependent transcendental rate
  /// factors (the shape-function log/pow calls dominate the re-rating
  /// pass).  The detection rate depends on the marking only through
  /// Tm+UCm, the attacker rate only through (Tm, UCm) (or UCm+DCm under
  /// CampaignProgress), so small dense tables capture them; memoised
  /// values are computed by exactly the un-memoised expression, so
  /// rates stay bitwise identical.  NOT enabled by default — the memo
  /// tables make rate evaluation non-thread-safe, so only the sweep
  /// engine (one private model per point per worker) turns it on.
  void enable_factor_memo();

  /// D(md(m)) — the T_IDS/T_FA/cost detection factor, memoised when
  /// enable_factor_memo() was called.
  [[nodiscard]] double detection_rate_at(const spn::Marking& m) const;
  /// A(mc(m)) — the T_CP attacker rate, memoised likewise.
  [[nodiscard]] double attacker_rate_at(const spn::Marking& m) const;
  /// The T_IDS/T_FA eviction rekey impulse, memoised likewise (it
  /// depends on the marking only through (Tm+UCm, NG)).
  [[nodiscard]] double eviction_impulse_at(const spn::Marking& m) const;

  /// Fast path for ReachabilityGraph::compute_rates_batch: one call
  /// answers a (transition, marking) pair for EVERY model in the batch,
  /// hoisting the marking-derived quantities all points share (token
  /// counts, per-group voting-pool indices) out of the per-point loop
  /// and serving the per-point factors from the memo tables — this is
  /// where the batched sweep's re-rating pass earns its speedup, since
  /// the generic path pays two std::function dispatches plus a full
  /// lambda body per point per pair.  All models must share
  /// models[0]'s net structure (the sweep engine batches within one
  /// structure key); enable_factor_memo() should be on.  The values
  /// produced are bitwise the per-model net().rate()/impulse() answers:
  /// the same helper functions evaluate the same expressions in the
  /// same order.  Returns an empty function for an empty batch.
  [[nodiscard]] static spn::BatchRateFn batch_rate_fn(
      std::vector<const GcsSpnModel*> models);

 private:
  void build();

  // Keyed memo bodies behind detection_rate_at / eviction_impulse_at:
  // batch_rate_fn computes the marking-derived keys once per
  // (transition, marking) pair and shares them across the point loop.
  [[nodiscard]] double detection_rate_memo(std::int64_t members,
                                           const spn::Marking& m) const;
  [[nodiscard]] double eviction_impulse_memo(std::int64_t members,
                                             std::int64_t groups) const;

  // Detector plumbing.  The detector observes the marking through token
  // counts only (evicted = n_init − Tm − UCm by conservation — the SPN
  // has no join/leave transitions), so every helper is keyed on
  // (Tm, UCm[, NG]) and memoisable under enable_factor_memo().
  [[nodiscard]] ids::DetectorState detector_state(std::int64_t tm,
                                                  std::int64_t ucm) const;
  /// Effective host-IDS false-negative probability in marking (tm,ucm)
  /// — feeds T_DRQ.  Static detector: returns params_.p1 itself, so
  /// the rate expression stays bitwise the legacy one.
  [[nodiscard]] double effective_p1(std::int64_t tm, std::int64_t ucm) const;
  /// Voting error rates with detector-adjusted (p1,p2) — feeds
  /// T_IDS/T_FA.  Static detector: exactly the shared precomputed
  /// table lookup.  State-dependent detectors recompute Equation 1 per
  /// (Tm, UCm, NG) key, memoised when the factor memo is on (this is
  /// the batched path's "memo keyed on detector state").
  [[nodiscard]] ids::VotingErrorRates voting_rates_keyed(
      std::int64_t tm, std::int64_t ucm, std::int64_t groups,
      std::int64_t g_tm, std::int64_t g_ucm) const;

  Params params_;
  std::shared_ptr<const ids::VotingTable> voting_;
  std::shared_ptr<const gcs::CostModel> cost_;
  spn::PetriNet net_;
  spn::PlaceId tm_ = 0, ucm_ = 0, dcm_ = 0, gf_ = 0, ng_ = 0;

  // Factor memo (enable_factor_memo): NaN = slot not yet computed.
  bool memo_enabled_ = false;
  mutable std::vector<double> det_memo_;  // keyed by Tm+UCm
  mutable std::vector<double> atk_memo_;  // keyed by (Tm,UCm) or UCm+DCm
  mutable std::vector<double> evict_memo_;  // keyed by (Tm+UCm, NG)
  // Detector-state memos, allocated only for state-dependent detectors
  // (NaN pfn / NaN value = slot not yet computed).
  mutable std::vector<ids::VotingErrorRates> dyn_vote_memo_;  // (Tm,UCm,NG)
  mutable std::vector<double> dyn_p1_memo_;                   // (Tm,UCm)

  // Lazily explored graph (evaluate() + reliability_at() share it).
  mutable std::once_flag graph_once_;
  mutable std::unique_ptr<const spn::ReachabilityGraph> graph_;
};

/// Expected rewards accumulated until absorption: the numerators an
/// Evaluation divides by MTTSF.
struct RewardSums {
  gcs::CostBreakdown cost;  // Σ τ_s·cost_rates(s), per component
  double eviction = 0.0;    // Σ_e τ_src·rate_e·impulse_e (rekey impulses)
  double p_c1 = 0.0;        // absorption mass in data-leak (C1) states
  double p_c2 = 0.0;        // ... in Byzantine (C2, not C1) states

  RewardSums& operator+=(const RewardSums& o);

  /// Sets ev's C1/C2 split and, when ev.mttsf > 0, its cost rates,
  /// eviction cost rate and Ĉtotal (the sums over ev.mttsf).
  void normalise(Evaluation& ev) const;
};

/// The reward pass behind every constant-rate Evaluation, over P points
/// solved on `graph` (P = models.size()).  All spans are point-major as
/// AbsorbingAnalyzer::solve_batch returns them — sojourn and
/// absorb_probability [state][point], edge_rates and edge_impulses
/// [edge][point] — so a scalar AbsorbingResult with its rate/impulse
/// vectors is the P = 1 case.  Per point and in state order: the six
/// cost components over transient mass (one CostBreakdown per
/// (members, groups) class, bitwise the per-state value), the C1/C2
/// classification of absorbed mass, then the eviction impulses in edge
/// order.  models[p] must share the graph's structure.
[[nodiscard]] std::vector<RewardSums> accumulate_rewards(
    std::span<const GcsSpnModel* const> models,
    const spn::ReachabilityGraph& graph, std::span<const double> sojourn,
    std::span<const double> absorb_probability,
    std::span<const double> edge_rates,
    std::span<const double> edge_impulses);

/// The one constant-rate evaluation path: one AbsorbingAnalyzer::
/// solve_batch over the point-major [edge][point] rate/impulse matrices
/// (ReachabilityGraph::compute_rates_batch), then accumulate_rewards.
/// models[p] supplies point p's parameters; all models must share the
/// analyzer's structure (same places, same edge existence — the sweep
/// engine batches within one structure_key), and both spans must hold
/// edge count × P doubles.  With `factor_reuse` off, every metric of
/// point p is bitwise GcsSpnModel::evaluate_reference(); with it on,
/// ≤1e-12 relative (bitwise in practice) and independent of batch
/// grouping.  Scratch comes from `arena` (caller resets between
/// batches).
[[nodiscard]] std::vector<Evaluation> evaluate_with_batch(
    std::span<const GcsSpnModel* const> models,
    const spn::AbsorbingAnalyzer& analyzer,
    std::span<const double> edge_rates, std::span<const double> edge_impulses,
    bool factor_reuse, util::Arena& arena);

}  // namespace midas::core
