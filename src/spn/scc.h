// Strongly-connected components (iterative Tarjan) over a compact
// directed graph.  Every linear solve on the transient chain (the
// expected-sojourn system and each θ-step, spn::TransientStructure) uses
// the condensation: each SCC becomes a small dense block solved in
// topological order, which is immune to the stiffness that defeats
// global iterative solvers on nearly-decomposable chains (e.g. fast
// group merge/partition cycles riding on slow security dynamics).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace midas::spn {

struct SccResult {
  /// Component id per node; ids are assigned so that iterating
  /// components in DECREASING id order visits the condensation in
  /// topological order (sources first).
  std::vector<std::uint32_t> component;
  std::size_t num_components = 0;

  /// Nodes grouped by component id.
  [[nodiscard]] std::vector<std::vector<std::uint32_t>> members() const;
};

/// Adjacency in CSR-like form: edges of node `u` are
/// `targets[offsets[u] .. offsets[u+1])`.
[[nodiscard]] SccResult strongly_connected_components(
    std::span<const std::uint32_t> offsets,
    std::span<const std::uint32_t> targets);

}  // namespace midas::spn
