// The scalar SCC-block substitution: one system at a time over
// std::vector scratch, a local accumulator per singleton component and
// a linalg::LuFactorView per dense block, on a production
// spn::TransientStructure's compaction and condensation.  Plus the
// scalar sojourn solve built on it.
// Test oracle only: TransientStructure's lane-generic exit_rates,
// substitute and absorption_flow — behind AbsorbingAnalyzer::solve_batch,
// solve_from and every ReliabilityOde θ-step — must match it bit for
// bit in every lane, at shift 0 and at a θ-step shift.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "spn/absorbing.h"
#include "spn/reachability.h"

namespace midas::spn::oracle {

/// substitute()'s working storage, sized once to the largest SCC.
struct Scratch {
  std::vector<std::uint32_t> local;  ///< block-local index, else UINT32_MAX
  std::vector<double> lu;            ///< one dense block, row-major
  std::vector<std::uint32_t> ipiv;
  std::vector<double> rhs;
};

/// Total exit rate of each transient state (self-loops cancel in Q),
/// summed in graph CSR order into `out`.
void exit_rates(const TransientStructure& t,
                std::span<const double> edge_rates, std::span<double> out);

[[nodiscard]] Scratch make_scratch(const TransientStructure& t);

/// Solves (shift + exit_j)·x_j − Σ_{i→j} r_ij·x_i = b_j in place: `x`
/// (compact) holds b on entry and the solution on return.
void substitute(const TransientStructure& t,
                std::span<const double> edge_rates,
                std::span<const double> exit_rate, double shift,
                std::span<double> x, Scratch& scratch);

/// absorbed[a] += Σ_i x_i·r(i→a) for compact `x`, full-state `absorbed`.
void absorption_flow(const TransientStructure& t,
                     std::span<const double> edge_rates,
                     std::span<const double> x, std::span<double> absorbed);

/// The scalar AbsorbingAnalyzer::solve_from on these kernels: sojourn,
/// mean time to absorption and absorption probabilities from
/// `initial_mass` (full-state; empty = the graph's initial state).  No
/// input checks.
[[nodiscard]] AbsorbingResult solve_from(const ReachabilityGraph& graph,
                                         std::span<const double> initial_mass,
                                         std::span<const double> edge_rates);

}  // namespace midas::spn::oracle
