#include "core/optimizer.h"

#include <array>

#include "core/grid_spec.h"

namespace midas::core {

std::vector<double> paper_t_ids_grid() {
  return {5, 15, 30, 60, 120, 240, 480, 600, 1200};
}

SweepResult sweep_t_ids(const Params& base, std::span<const double> grid) {
  GridSpec spec;
  spec.t_ids(std::vector<double>(grid.begin(), grid.end()));
  SweepEngine engine;
  const auto evals = engine.evaluate(spec.expand(base), kDefaultBatchWidth);

  SweepResult result;
  result.points.reserve(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    result.points.push_back({grid[i], evals[i]});
  }
  return result;
}

PolicyChoice optimize_policy(const Params& base,
                             std::span<const double> grid,
                             std::optional<double> cost_budget) {
  // One batch over shapes × grid: every point shares the structure, so
  // the engine explores once and re-rates it for 3·|grid| points.
  constexpr std::array kShapes{ids::Shape::Logarithmic, ids::Shape::Linear,
                               ids::Shape::Polynomial};
  std::vector<Params> points;
  points.reserve(kShapes.size() * grid.size());
  for (const auto shape : kShapes) {
    for (const double t : grid) {
      Params p = base;
      p.detection_shape = shape;
      p.t_ids = t;
      points.push_back(std::move(p));
    }
  }

  SweepEngine engine;
  const auto evals = engine.evaluate(points, kDefaultBatchWidth);

  PolicyChoice best;
  bool have_feasible = false;
  PolicyChoice cheapest;
  bool have_any = false;
  for (std::size_t i = 0; i < evals.size(); ++i) {
    const auto shape = points[i].detection_shape;
    const double t = points[i].t_ids;
    const auto& ev = evals[i];
    if (!have_any || ev.ctotal < cheapest.eval.ctotal) {
      cheapest = {shape, t, ev, false};
      have_any = true;
    }
    if (cost_budget && ev.ctotal > *cost_budget) continue;
    if (!have_feasible || ev.mttsf > best.eval.mttsf) {
      best = {shape, t, ev, true};
      have_feasible = true;
    }
  }
  if (!have_feasible) return cheapest;  // feasible == false signals this
  return best;
}

}  // namespace midas::core
