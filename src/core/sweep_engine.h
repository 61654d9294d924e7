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
// m-values over the TIDS grid pays for one exploration in total.
//
// Grids, shards and Monte-Carlo validation are not this engine's job:
// describe the experiment as a core::ExperimentSpec and run it through
// core::ExperimentService::run (src/core/experiment.h), whose analytic
// backend calls evaluate() on the slice's points.
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

class SweepEngine {
 public:
  /// `threads` workers for the point loop (0 = hardware concurrency).
  explicit SweepEngine(std::size_t threads = 0);

  /// Evaluates every parameter point; points whose structure_key()
  /// matches share one exploration (cached across calls, never
  /// evicted).  `batch_width` is the spec-level analytic.batch knob:
  /// consecutive points sharing a structure are solved `batch_width`
  /// at a time (a width <= 1 means batches of one) through
  /// evaluate_with_batch, with LU factor reuse at
  /// spn::BatchSolveOptions' default.  Per-point results do not depend
  /// on the width (bitwise: the batch path is grouping-independent by
  /// construction) nor on the thread count, and equal
  /// GcsSpnModel::evaluate() bitwise.
  [[nodiscard]] std::vector<Evaluation> evaluate(
      std::span<const Params> points, std::size_t batch_width);

  struct Stats {
    std::size_t points = 0;            // points evaluated
    std::size_t explorations = 0;      // structural configs explored
    std::size_t states_explored = 0;   // Σ states over fresh explorations
    std::size_t states_evaluated = 0;  // Σ states over all points
    double seconds = 0.0;              // wall clock inside evaluate()
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  struct CacheEntry {
    std::once_flag once;
    std::shared_ptr<const spn::ReachabilityGraph> graph;
    // Structure shared by every point: absorbing mask, transient
    // compaction, SCC condensation (solve_batch is const).
    std::unique_ptr<const spn::AbsorbingAnalyzer> analyzer;
    // Rate roles, marking features and reward classes per state/edge.
    std::unique_ptr<const StructurePlan> plan;
  };

  /// Explores `model`'s net into `entry`, with its analyzer and plan,
  /// unless another point already did (thread-safe; counts the
  /// exploration in stats_).
  void explore_once(CacheEntry& entry, const GcsSpnModel& model);

  std::size_t threads_;
  std::unordered_map<std::string, std::unique_ptr<CacheEntry>> cache_;
  std::mutex stats_mutex_;
  Stats stats_;
};

}  // namespace midas::core
