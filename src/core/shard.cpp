#include "core/shard.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/sweep_engine.h"

namespace midas::core {

ShardPlan ShardPlan::contiguous(std::size_t num_points,
                                std::size_t num_shards) {
  if (num_shards == 0) {
    throw std::invalid_argument("ShardPlan: num_shards must be positive");
  }
  ShardPlan plan;
  plan.num_points_ = num_points;
  plan.ranges_.reserve(num_shards);
  const std::size_t base = num_points / num_shards;
  const std::size_t extra = num_points % num_shards;
  std::size_t cursor = 0;
  for (std::size_t s = 0; s < num_shards; ++s) {
    const std::size_t take = base + (s < extra ? 1 : 0);
    plan.ranges_.push_back({cursor, cursor + take});
    cursor += take;
  }
  return plan;
}

ShardPlan ShardPlan::by_structure(const GridSpec& spec, const Params& base,
                                  std::size_t num_shards) {
  if (num_shards == 0) {
    throw std::invalid_argument("ShardPlan: num_shards must be positive");
  }
  const std::size_t n = spec.num_points();

  // Row-major runs of equal structure_key: run r covers points
  // [run_begin[r], run_begin[r+1]).
  std::vector<std::size_t> run_begin;
  std::string prev_key;
  for (std::size_t i = 0; i < n; ++i) {
    std::string key = structure_key(spec.point(base, i));
    if (i == 0 || key != prev_key) run_begin.push_back(i);
    prev_key = std::move(key);
  }
  run_begin.push_back(n);
  const std::size_t runs = run_begin.size() - 1;

  ShardPlan plan;
  plan.num_points_ = n;
  plan.ranges_.reserve(num_shards);
  std::size_t run = 0;
  for (std::size_t s = 0; s < num_shards; ++s) {
    if (run >= runs) {
      plan.ranges_.push_back({n, n});
      continue;
    }
    const std::size_t begin = run_begin[run];
    std::size_t end = begin;
    if (s + 1 == num_shards) {
      // Last shard absorbs every remaining run.
      run = runs;
      end = n;
    } else {
      // Greedy balance: grow toward an even share of the remaining
      // points, whole runs at a time (the run that crosses the target
      // is included, so progress is guaranteed).
      const std::size_t target =
          (n - begin + (num_shards - s) - 1) / (num_shards - s);
      while (run < runs && end - begin < target) {
        ++run;
        end = run_begin[run];
      }
    }
    plan.ranges_.push_back({begin, end});
  }
  return plan;
}

ShardPlan ShardPlan::by_pilot_cost(const GridSpec& spec, const Params& base,
                                   std::size_t num_shards,
                                   const sim::McOptions& mc,
                                   std::size_t pilot_replications) {
  if (num_shards == 0) {
    throw std::invalid_argument("ShardPlan: num_shards must be positive");
  }
  const std::size_t n = spec.num_points();
  if (n == 0 || num_shards == 1) {
    return contiguous(n, num_shards);
  }

  // Deterministic pilot: a fixed replication budget per point with the
  // SAME substream keying the real run will use (bitwise reproducible
  // across processes and thread counts), adaptive stopping off.
  sim::McOptions pilot = mc;
  pilot.rel_ci_target = 0.0;
  pilot.min_replications = std::max<std::size_t>(2, pilot_replications);
  pilot.max_replications = pilot.min_replications;
  pilot.block = pilot.min_replications;
  pilot.capture_trajectories = false;
  pilot.survival_horizons.clear();
  sim::MonteCarloEngine engine(pilot);
  const auto points = spec.expand(base);
  const auto estimates = engine.run_des(points);

  // Predicted replications: invert the 95% CI-stopping rule from the
  // pilot variance.  With adaptive stopping disabled every point runs
  // the same count and only trajectory length differentiates cost.
  std::vector<double> weight(n, 0.0);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto& s = estimates[i].ttsf;
    double reps = static_cast<double>(mc.min_replications);
    if (mc.rel_ci_target > 0.0 && s.n >= 2 && s.mean > 0.0) {
      const double z = 1.96 * std::sqrt(s.variance) /
                       (mc.rel_ci_target * s.mean);
      reps = std::clamp(std::ceil(z * z),
                        static_cast<double>(mc.min_replications),
                        static_cast<double>(mc.max_replications));
    }
    const double per_rep = std::max(s.mean, 0.0);
    weight[i] = reps * per_rep;
    total += weight[i];
  }
  if (!(total > 0.0) || !std::isfinite(total)) {
    return contiguous(n, num_shards);
  }

  // Greedy weighted split: each shard grows toward an even share of the
  // remaining weight, whole points at a time, taking the boundary point
  // when that lands closer to the target than stopping short.
  ShardPlan plan;
  plan.num_points_ = n;
  plan.ranges_.reserve(num_shards);
  std::size_t cursor = 0;
  double remaining = total;
  for (std::size_t s = 0; s < num_shards; ++s) {
    if (s + 1 == num_shards) {
      plan.ranges_.push_back({cursor, n});
      break;
    }
    const std::size_t begin = cursor;
    const double target =
        remaining / static_cast<double>(num_shards - s);
    double acc = 0.0;
    while (cursor < n) {
      const double w = weight[cursor];
      if (acc > 0.0 && acc + w > target &&
          (acc + w) - target > target - acc) {
        break;
      }
      acc += w;
      ++cursor;
      if (acc >= target) break;
    }
    remaining -= acc;
    plan.ranges_.push_back({begin, cursor});
  }
  plan.weights_.reserve(plan.ranges_.size());
  for (const auto& r : plan.ranges_) {
    double sum = 0.0;
    for (std::size_t i = r.begin; i < r.end; ++i) sum += weight[i];
    plan.weights_.push_back(sum);
  }
  return plan;
}

std::vector<ShardRange> ShardPlan::replan(
    std::span<const ShardRange> uncompleted, std::size_t num_pieces) {
  if (num_pieces == 0) {
    throw std::invalid_argument("ShardPlan::replan: num_pieces must be "
                                "positive");
  }
  std::vector<ShardRange> inputs;
  for (const auto& r : uncompleted) {
    if (r.begin > r.end) {
      throw std::invalid_argument("ShardPlan::replan: range [" +
                                  std::to_string(r.begin) + ", " +
                                  std::to_string(r.end) + ") is invalid");
    }
    if (!r.empty()) inputs.push_back(r);
  }
  std::sort(inputs.begin(), inputs.end(),
            [](const ShardRange& a, const ShardRange& b) {
              return a.begin < b.begin;
            });
  for (std::size_t i = 1; i < inputs.size(); ++i) {
    if (inputs[i].begin < inputs[i - 1].end) {
      throw std::invalid_argument(
          "ShardPlan::replan: ranges [" +
          std::to_string(inputs[i - 1].begin) + ", " +
          std::to_string(inputs[i - 1].end) + ") and [" +
          std::to_string(inputs[i].begin) + ", " +
          std::to_string(inputs[i].end) + ") overlap");
    }
  }
  if (inputs.size() >= num_pieces) return inputs;

  // Distribute the extra cuts one at a time to the input currently
  // split coarsest (largest points-per-piece); ties go to the earliest
  // range, so the outcome is deterministic.
  std::vector<std::size_t> pieces(inputs.size(), 1);
  for (std::size_t extra = num_pieces - inputs.size(); extra > 0; --extra) {
    std::size_t best = inputs.size();
    double best_ratio = 0.0;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      if (pieces[i] >= inputs[i].size()) continue;  // already per-point
      const double ratio = static_cast<double>(inputs[i].size()) /
                           static_cast<double>(pieces[i]);
      if (best == inputs.size() || ratio > best_ratio) {
        best = i;
        best_ratio = ratio;
      }
    }
    if (best == inputs.size()) break;  // every range already per-point
    ++pieces[best];
  }

  std::vector<ShardRange> out;
  out.reserve(num_pieces);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const ShardPlan split = contiguous(inputs[i].size(), pieces[i]);
    for (const auto& r : split.ranges()) {
      if (r.empty()) continue;
      out.push_back({inputs[i].begin + r.begin, inputs[i].begin + r.end});
    }
  }
  return out;
}

const ShardRange& ShardPlan::range(std::size_t shard) const {
  if (shard >= ranges_.size()) {
    throw std::out_of_range("ShardPlan: shard index " +
                            std::to_string(shard) + " out of range (" +
                            std::to_string(ranges_.size()) + " shards)");
  }
  return ranges_[shard];
}

void validate_shard_tiling(std::size_t num_points,
                           std::span<const ShardRange> ranges) {
  validate_shard_tiling(num_points, ranges, {});
}

void validate_shard_tiling(std::size_t num_points,
                           std::span<const ShardRange> ranges,
                           std::span<const std::size_t> shard_labels) {
  if (!shard_labels.empty() && shard_labels.size() != ranges.size()) {
    throw std::invalid_argument(
        "validate_shard_tiling: " + std::to_string(shard_labels.size()) +
        " labels for " + std::to_string(ranges.size()) + " ranges");
  }
  const auto describe = [&](std::size_t pos) {
    const std::size_t label =
        shard_labels.empty() ? pos : shard_labels[pos];
    return "shard " + std::to_string(label) + " [" +
           std::to_string(ranges[pos].begin) + ", " +
           std::to_string(ranges[pos].end) + ")";
  };
  std::vector<std::size_t> order;  // positions of non-empty ranges
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    const ShardRange& r = ranges[i];
    if (r.begin > r.end || r.end > num_points) {
      throw std::invalid_argument("validate_shard_tiling: " + describe(i) +
                                  " is invalid for a " +
                                  std::to_string(num_points) +
                                  "-point grid");
    }
    if (!r.empty()) order.push_back(i);
  }
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) {
              return ranges[a].begin < ranges[b].begin;
            });
  std::size_t cursor = 0;
  std::size_t prev = ranges.size();  // position covering [?, cursor)
  for (const std::size_t pos : order) {
    const ShardRange& r = ranges[pos];
    if (r.begin > cursor) {
      throw std::invalid_argument(
          "validate_shard_tiling: points [" + std::to_string(cursor) +
          ", " + std::to_string(r.begin) + ") are covered by no shard (" +
          (prev < ranges.size() ? describe(prev) + " ends at " +
                                      std::to_string(cursor)
                                : "no shard starts at 0") +
          ", next is " + describe(pos) + ")");
    }
    if (r.begin < cursor) {
      throw std::invalid_argument(
          "validate_shard_tiling: " + describe(prev) + " and " +
          describe(pos) + " overlap on points [" +
          std::to_string(r.begin) + ", " +
          std::to_string(std::min(cursor, r.end)) + ")");
    }
    cursor = r.end;
    prev = pos;
  }
  if (cursor != num_points) {
    throw std::invalid_argument(
        "validate_shard_tiling: points [" + std::to_string(cursor) + ", " +
        std::to_string(num_points) + ") are covered by no shard (" +
        (prev < ranges.size() ? "last is " + describe(prev)
                              : "no non-empty shards") +
        ")");
  }
}

}  // namespace midas::core
