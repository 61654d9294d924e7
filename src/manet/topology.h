// Wireless connectivity analysis over node positions: unit-disc
// adjacency, connected components (= mobile groups, the paper's
// connectivity-based group definition), and multi-hop path statistics
// feeding the communication cost model.
//
// Layout.  Node i's neighbour set is one bit row of ⌈N/64⌉ 64-bit words
// (node j is bit j % 64 of word j / 64); the N rows sit back to back in
// one vector.
//
// Edges.  i ~ j iff positions[i].distance_to(positions[j]) <= range_m
// (distance_to is std::hypot).  The constructor compares dx² + dy²
// with r² instead and calls distance_to only for pairs inside a ±1e-9
// relative band around r².  Outside the band, the few ulps by which the
// squares, their sum and hypot can be off cannot flip the comparison, so
// the adjacency is bitwise the one a hypot test on every pair gives.  The
// argument needs r > 0 and r² a normal double (a subnormal r² loses the
// relative precision the band relies on); for any other range
// (negative, zero, NaN, r² underflowing or overflowing) every pair takes
// the distance_to test.
//
// One BFS.  Hop distances, component labels and stats() all run the same
// frontier BFS: next = (OR of the rows of the frontier's nodes) & ~seen,
// one word-parallel step per hop level.  stats() adds each reached
// node's depth to an integer hop sum, so mean_hops is that sum over the
// integer pair count — the same double an adjacency-list BFS gives.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "manet/vec2.h"

namespace midas::manet {

struct TopologyStats {
  std::size_t num_components = 0;
  std::size_t largest_component = 0;
  double mean_degree = 0.0;
  /// Average hop count over connected ordered pairs (BFS shortest path).
  double mean_hops = 0.0;
  /// Fraction of ordered node pairs that are connected at all.
  double connectivity = 0.0;
};

class ConnectivityGraph {
 public:
  /// Builds the unit-disc graph: an edge between nodes within `range_m`.
  ConnectivityGraph(std::span<const Vec2> positions, double range_m);

  [[nodiscard]] std::size_t size() const noexcept { return component_.size(); }

  /// Component label per node (labels are 0..num_components-1, in order
  /// of each component's lowest node index).
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
  std::size_t words_ = 0;           ///< 64-bit words per adjacency row
  std::vector<std::uint64_t> adj_;  ///< N rows of words_ words
  std::vector<std::uint32_t> component_;
  std::size_t num_components_ = 0;
};

}  // namespace midas::manet
