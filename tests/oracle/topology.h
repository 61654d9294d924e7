// Unit-disc connectivity with adjacency lists and deque BFS: one
// hypot test per pair, components labelled in index order, and one BFS
// per source for the hop statistics.
// Test oracle only: the straightforward reference manet::ConnectivityGraph
// (the bit-row kernel in src/manet/topology.h) must match bit for bit.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "manet/topology.h"
#include "manet/vec2.h"

namespace midas::manet::oracle {

class ConnectivityGraph {
 public:
  /// Builds the unit-disc graph: an edge between nodes within `range_m`.
  ConnectivityGraph(std::span<const Vec2> positions, double range_m);

  /// Component label per node (labels are 0..num_components-1).
  [[nodiscard]] const std::vector<std::uint32_t>& component_labels() const {
    return component_;
  }
  [[nodiscard]] std::size_t num_components() const noexcept {
    return num_components_;
  }
  /// Sizes indexed by component label.
  [[nodiscard]] std::vector<std::size_t> component_sizes() const;

  /// BFS hop distances from `src` (UINT32_MAX where unreachable).
  [[nodiscard]] std::vector<std::uint32_t> hop_distances(
      std::uint32_t src) const;

  /// Exact all-pairs statistics.
  [[nodiscard]] TopologyStats stats() const;

 private:
  void label_components();

  std::vector<std::vector<std::uint32_t>> adj_;
  std::vector<std::uint32_t> component_;
  std::size_t num_components_ = 0;
};

}  // namespace midas::manet::oracle
