// Batched sweep engine — the evaluation path behind every figure and
// ablation in the paper, built on one observation: a TIDS / detection-
// shape / voter-count sweep never changes the reachable state set or the
// edge structure of the SPN, only the rate values.  The engine therefore
//   1. explores the reachability graph ONCE per structural configuration
//      (initial marking + guards + edge-existence pattern),
//   2. re-rates the cached structure for a batch of points at a time
//      through the structure's StructurePlan (per-point tables, then
//      gather loops) instead of re-running spn::explore + marking
//      hashing,
//   3. solves the batch and accumulates every reward component in one
//      point-major pass (evaluate_with_batch), and
//   4. drives the batches through sim::parallel_for.
// Structure caching persists across calls, so a bench that sweeps four
// m-values over the TIDS grid pays for one exploration in total, and
// every mission segment (core::MissionAnalyzer) shares the cache too.
//
// Grids, shards and Monte-Carlo validation are not this engine's job:
// describe the experiment as a core::ExperimentSpec and run it through
// core::ExperimentService::run (src/core/experiment.h), whose analytic
// backend is one evaluate() call on the slice's points.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/gcs_spn_model.h"
#include "core/params.h"
#include "core/structure_plan.h"

namespace midas::core {

struct SweepPoint {
  double t_ids = 0.0;
  Evaluation eval;
};

struct SweepResult {
  std::vector<SweepPoint> points;

  /// Index of the point with maximal MTTSF / minimal Ĉtotal.
  [[nodiscard]] std::size_t argmax_mttsf() const;
  [[nodiscard]] std::size_t argmin_ctotal() const;
  [[nodiscard]] const SweepPoint& best_mttsf() const {
    return points[argmax_mttsf()];
  }
  [[nodiscard]] const SweepPoint& best_ctotal() const {
    return points[argmin_ctotal()];
  }
};

/// Grid points per batched solve for callers that have no spec to take
/// the width from; AnalyticOptions::batch defaults to it as well.
inline constexpr std::size_t kDefaultBatchWidth = 8;

/// The key under which parameter points share one explored structure:
/// everything that can change the reachable set or the existence of an
/// edge — initial marking, failure guards, group birth–death tables, and
/// the zero-pattern of each timed rate factor.  Exposed for tests.
[[nodiscard]] std::string structure_key(const Params& p);

/// One cached structure: the graph every point with its structure_key
/// shares, the StructurePlan that re-rates and rewards it, and its
/// AbsorbingAnalyzer.
class ExploredStructure {
 public:
  [[nodiscard]] const spn::ReachabilityGraph& graph() const { return *graph_; }
  [[nodiscard]] const StructurePlan& plan() const { return *plan_; }
  /// Built on first use (thread-safe), not at exploration: a mission
  /// phase's structure need not contain an absorbing state.
  [[nodiscard]] const spn::AbsorbingAnalyzer& analyzer() const;

 private:
  friend class SweepEngine;
  std::once_flag explored_;
  std::unique_ptr<const spn::ReachabilityGraph> graph_;
  std::unique_ptr<const StructurePlan> plan_;
  mutable std::once_flag analyzed_;
  mutable std::unique_ptr<const spn::AbsorbingAnalyzer> analyzer_;
};

class SweepEngine {
 public:
  /// `threads` workers for the point loop (0 = hardware concurrency).
  explicit SweepEngine(std::size_t threads = 0);

  /// Evaluates every parameter point; points whose structure_key()
  /// matches share one exploration (cached across calls, never
  /// evicted).  `batch_width` is the spec-level analytic.batch knob:
  /// consecutive points sharing a structure are solved `batch_width`
  /// at a time (a width <= 1 means batches of one) through
  /// evaluate_with_batch, with factor reuse at
  /// spn::BatchSolveOptions' default.  A phased point (a timeline of
  /// more than one segment) is one task: a MissionAnalyzer on this
  /// engine's cache.  Per-point results do not depend on the width
  /// (bitwise: the batch path is grouping-independent by construction)
  /// nor on the thread count, and equal GcsSpnModel::evaluate() — a
  /// phased point's, MissionAnalyzer(point).evaluate() — bitwise.
  [[nodiscard]] std::vector<Evaluation> evaluate(
      std::span<const Params> points, std::size_t batch_width);

  /// The cached structure of `model`'s net under its structure_key
  /// `key`, explored and planned on the key's first lookup.  Thread-
  /// safe: one exploration per key, other keys meanwhile.
  [[nodiscard]] const ExploredStructure& structure(const std::string& key,
                                                   const GcsSpnModel& model);

  struct Stats {
    std::size_t points = 0;            // points evaluated
    std::size_t explorations = 0;      // structural configs explored
    std::size_t states_evaluated = 0;  // Σ states over all points
    double seconds = 0.0;              // wall clock inside evaluate()
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  std::size_t threads_;
  std::mutex mutex_;  // guards cache_ and stats_
  std::unordered_map<std::string, std::unique_ptr<ExploredStructure>> cache_;
  Stats stats_;
};

}  // namespace midas::core
