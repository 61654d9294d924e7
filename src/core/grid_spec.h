// Named-axis cartesian experiment grids.  The paper's figures are all
// slices of one multi-dimensional design space — TIDS × vote-
// participants m × detection-function shape × attacker profile — but
// until this abstraction every bench hand-rolled its own nested loops
// and only the innermost TIDS slice went through the batched engine.
// GridSpec names the axes once and expands to the full cartesian set of
// core::Params points (row-major, LAST axis fastest, exactly the order
// handwritten nested loops produce), so one core::ExperimentService
// request can answer a whole figure — or the whole space — as one
// batched, CRN-correlated run: one structure exploration per structural
// configuration, and Monte-Carlo substreams keyed by replication index
// only, making contrasts along EVERY axis variance-reduced.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/params.h"
#include "ids/functions.h"

namespace midas::core {

/// One named axis: `labels[k]` names level k, `apply(p, k)` writes
/// level k into a parameter point, and `values[k]` carries the numeric
/// level when one exists (NaN on categorical axes) for CSV emission.
struct GridAxis {
  std::string name;
  std::vector<std::string> labels;
  std::vector<double> values;
  std::function<void(Params&, std::size_t)> apply;

  [[nodiscard]] std::size_t size() const noexcept { return labels.size(); }
};

class GridSpec {
 public:
  /// Typed axes for the paper's four design dimensions.  Each returns
  /// *this so grids read as one chained declaration.
  GridSpec& t_ids(std::vector<double> values);
  GridSpec& num_voters(std::vector<std::int64_t> m);
  GridSpec& detection_shape(std::vector<ids::Shape> shapes);
  GridSpec& attacker_shape(std::vector<ids::Shape> shapes);

  /// Arbitrary numeric axis: `set(p, values[k])` writes level k.
  GridSpec& axis(std::string name, std::vector<double> values,
                 std::function<void(Params&, double)> set);
  /// Arbitrary categorical axis with explicit labels and level setter.
  GridSpec& axis(std::string name, std::vector<std::string> labels,
                 std::function<void(Params&, std::size_t)> apply);

  [[nodiscard]] std::size_t num_axes() const noexcept {
    return axes_.size();
  }
  [[nodiscard]] const GridAxis& axis_at(std::size_t i) const;
  [[nodiscard]] const std::vector<GridAxis>& axes() const noexcept {
    return axes_;
  }

  /// Product of the axis extents.  An axis-free spec has exactly one
  /// point (the base parameters unchanged) — the nullary product.
  [[nodiscard]] std::size_t num_points() const noexcept;

  /// Row-major index ↔ per-axis coordinates (last axis fastest).
  [[nodiscard]] std::vector<std::size_t> coords(std::size_t index) const;
  [[nodiscard]] std::size_t index(std::span<const std::size_t> c) const;

  /// The parameter point at `index`: a copy of `base` with every axis
  /// level applied in declaration order.
  [[nodiscard]] Params point(const Params& base, std::size_t index) const;

  /// All points in row-major order — what ExperimentService::run
  /// evaluates for an unsharded spec.
  [[nodiscard]] std::vector<Params> expand(const Params& base) const;

  /// Human/CSV label, e.g. "m=5, detection=linear, t_ids=120".
  [[nodiscard]] std::string label(std::size_t index) const;

 private:
  GridSpec& push_axis(GridAxis axis);

  std::vector<GridAxis> axes_;
};

}  // namespace midas::core
