// Sharded multi-config sweep service: slicing a core::GridSpec across
// processes/hosts and recombining the pieces deterministically.
//
// Row-major grid indexing means a shard is just a contiguous point
// range [begin, end): every shard evaluates its slice with the same
// ExperimentService code path the single-process run uses, so the merged
// result is the single-process result — exactly.  Two invariants make
// that true:
//   * the analytic path depends only on the point itself (one structure
//     exploration per structure_key inside each shard, numeric solves
//     per point), and
//   * the Monte-Carlo path schedules each point independently with
//     substreams keyed by replication only under CRN (and by GLOBAL
//     point index otherwise, via McOptions::point_stream_offset), so a
//     point's Welford state is invariant to which shard ran it.
// The merge therefore checks an exact tiling and places slices — no
// floating-point reconciliation is ever needed (Welford merge stays
// available for replication-sharded extensions; it is associative).
//
// ShardPlan chooses the split: contiguous() balances point counts;
// by_structure() additionally aligns shard boundaries with runs of
// equal structure_key, so no structural configuration is explored by
// two shards just because the cut landed inside its run.
//
// The service's ExperimentResult is the one persisted form of a shard:
// core::merge_experiment_results validates a shard set with
// validate_shard_tiling and places the slices (src/core/experiment.h).
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "core/grid_spec.h"
#include "core/params.h"
#include "sim/mc_engine.h"

namespace midas::core {

/// A contiguous row-major slice [begin, end) of a grid's points.
struct ShardRange {
  std::size_t begin = 0;
  std::size_t end = 0;

  [[nodiscard]] std::size_t size() const noexcept { return end - begin; }
  [[nodiscard]] bool empty() const noexcept { return begin == end; }
  bool operator==(const ShardRange&) const = default;
};

/// A deterministic partition of a grid's [0, num_points) into
/// num_shards contiguous ranges (some possibly empty when shards
/// outnumber points).  Every worker process recomputes the same plan
/// from the same (spec, shards) inputs — no coordination needed.
class ShardPlan {
 public:
  /// Balanced contiguous split: the first (num_points % num_shards)
  /// shards take one extra point.
  [[nodiscard]] static ShardPlan contiguous(std::size_t num_points,
                                            std::size_t num_shards);

  /// Contiguous split whose boundaries only fall between runs of equal
  /// structure_key(spec.point(base, i)), so each shard pays exactly one
  /// exploration per structure it touches and no run is split across
  /// shards.  (A structure whose points recur in non-adjacent runs —
  /// possible when a structural axis is not the slowest — is explored
  /// once per shard that owns one of its runs.)  Greedy point-balanced;
  /// trailing shards are empty when runs are fewer than shards.
  [[nodiscard]] static ShardPlan by_structure(const GridSpec& spec,
                                              const Params& base,
                                              std::size_t num_shards);

  /// Replication-balanced contiguous split for Monte-Carlo shards:
  /// CI-adaptive stopping makes per-point cost vary severalfold across
  /// a grid (slow-detection points need long trajectories AND more
  /// replications), so the point-balanced splits above leave some
  /// workers idle while the unlucky one finishes.  This plan runs a
  /// small deterministic pilot block (`pilot_replications` fixed-budget
  /// replications per point, same substream keying as the real run, so
  /// every worker derives the IDENTICAL plan with no coordination) and
  /// weights the split by each point's predicted cost:
  ///
  ///   weight = predicted replications × mean TTSF,
  ///
  /// where the replication prediction inverts the CI-stopping rule from
  /// the pilot variance (clamped to [min, max]_replications; uniform
  /// when `mc.rel_ci_target` disables adaptive stopping) and the mean
  /// TTSF proxies per-trajectory cost (event count scales with
  /// simulated time).  Falls back to contiguous() when the pilot finds
  /// no usable weights.  The split itself is greedy: each shard takes
  /// whole points toward an even share of the remaining weight.
  [[nodiscard]] static ShardPlan by_pilot_cost(
      const GridSpec& spec, const Params& base, std::size_t num_shards,
      const sim::McOptions& mc, std::size_t pilot_replications = 16);

  /// Lease-oriented replanning: splits the UNCOMPLETED remainder of a
  /// run — a set of disjoint point ranges whose results never arrived
  /// (dead worker, expired lease) — into up to `num_pieces` balanced
  /// sub-ranges so several surviving workers can absorb it in parallel.
  /// Every output range is a sub-range of exactly one input (a piece
  /// never bridges a completed gap), outputs preserve input order, and
  /// the union is exactly the input union, so re-dispatched pieces
  /// still tile with the already-completed shards at merge time.  When
  /// `num_pieces` <= the input count the inputs are returned as-is;
  /// otherwise the extra splits go to the largest inputs first.  The
  /// result is deterministic in (inputs, num_pieces).  Throws
  /// std::invalid_argument on overlapping inputs or num_pieces == 0.
  [[nodiscard]] static std::vector<ShardRange> replan(
      std::span<const ShardRange> uncompleted, std::size_t num_pieces);

  [[nodiscard]] std::size_t num_shards() const noexcept {
    return ranges_.size();
  }
  [[nodiscard]] std::size_t num_points() const noexcept {
    return num_points_;
  }
  [[nodiscard]] const ShardRange& range(std::size_t shard) const;
  [[nodiscard]] const std::vector<ShardRange>& ranges() const noexcept {
    return ranges_;
  }

  /// Per-shard predicted cost weights (same order as ranges()) — filled
  /// by by_pilot_cost(), empty for the other planners and for its
  /// contiguous fallback.  The fleet coordinator scales per-lease
  /// deadlines by these, so an expensive shard is not declared a
  /// straggler on the schedule of a cheap one.
  [[nodiscard]] const std::vector<double>& weights() const noexcept {
    return weights_;
  }

 private:
  std::vector<ShardRange> ranges_;
  std::vector<double> weights_;
  std::size_t num_points_ = 0;
};

/// Throws std::invalid_argument unless the non-empty ranges tile
/// [0, num_points) exactly (no gap, no overlap); merge_experiment_results
/// calls it before placing any slice.  The error names the offending slices — which shards overlap,
/// or which points are covered by no shard and which shards border the
/// hole — because reassignment debugging starts from that message.
/// `shard_labels`, when non-empty, gives the producer-facing shard
/// index of each range (same order); otherwise ranges are named by
/// position.
void validate_shard_tiling(std::size_t num_points,
                           std::span<const ShardRange> ranges);
void validate_shard_tiling(std::size_t num_points,
                           std::span<const ShardRange> ranges,
                           std::span<const std::size_t> shard_labels);

}  // namespace midas::core
