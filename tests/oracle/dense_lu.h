// Partial-pivoting dense LU over caller storage, one system at a time.
// Test oracle only: spn::TransientStructure::substitute eliminates its
// dense SCC blocks without pivoting, and must match this pivoting LU
// bit for bit on every block partial pivoting leaves unswapped (every
// column-diagonally-dominant block, as every CTMC block is); it also
// serves the dense backward θ-recurrence the transient integrator is
// checked against.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace midas::linalg {

/// Non-owning LU factorisation: factor() runs partial-pivoting Gaussian
/// elimination IN PLACE on `lu` (row-major n×n) and records the
/// pivot-row swap sequence in `ipiv`.
struct LuFactorView {
  std::span<double> lu;           ///< n·n row-major; factored in place
  std::span<std::uint32_t> ipiv;  ///< n; ipiv[k] = row swapped at step k
  std::size_t n = 0;

  /// Factors lu in place; throws std::runtime_error on a numerically
  /// singular pivot (|pivot| below n·ε·‖A‖∞).
  void factor();

  /// Solves A x = b into `x` (b and x may alias).
  void solve_to(std::span<const double> b, std::span<double> x) const;
};

}  // namespace midas::linalg
