// TIDS sweep and design-point optimisation — the paper's central
// exercise: locate the detection interval that maximises MTTSF, the one
// that minimises Ĉtotal, and the best trade-off under a performance
// constraint (maximise MTTSF subject to Ĉtotal ≤ budget).
//
// Both entry points run on core::SweepEngine: the reachability graph is
// explored once per structural configuration and the sweep points only
// re-rate it, a batch at a time (see sweep_engine.h).
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "core/gcs_spn_model.h"
#include "core/params.h"
#include "core/sweep_engine.h"

namespace midas::core {

/// The paper's Fig. 2–5 TIDS grid (seconds).
[[nodiscard]] std::vector<double> paper_t_ids_grid();

/// Evaluates `base` at every TIDS in `grid` (base.t_ids is ignored).
[[nodiscard]] SweepResult sweep_t_ids(const Params& base,
                                      std::span<const double> grid);

/// A chosen operating point for the adaptive IDS.
struct PolicyChoice {
  ids::Shape detection_shape = ids::Shape::Linear;
  double t_ids = 0.0;
  Evaluation eval;
  bool feasible = true;  // false when no point met the cost budget
};

/// Selects the detection function and TIDS that maximise MTTSF, over
/// all three shapes × grid, optionally subject to Ĉtotal ≤ cost_budget.
/// When the budget excludes every point, returns the minimum-cost point
/// with feasible = false.  The shapes only change rate values, so all
/// 3·|grid| evaluations share one exploration.
[[nodiscard]] PolicyChoice optimize_policy(
    const Params& base, std::span<const double> grid,
    std::optional<double> cost_budget = std::nullopt);

}  // namespace midas::core
