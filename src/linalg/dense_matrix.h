// Dense LU kernels over caller storage: the point-major
// lu_solve_point_major, which factors and solves every lane's dense
// block in spn::TransientStructure::substitute (every absorbing solve,
// batched or not, and every θ-step), and LuFactorView, which serves the
// substitution's shared-factor blocks under factor reuse.  One
// elimination routine serves both, so every lane count shares pivots
// and arithmetic bit for bit; one lane runs as a compile-time 1.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace midas::linalg {

/// Non-owning LU factorisation over caller storage (stack buffers, a
/// util::Arena, a std::vector): factor() runs partial-pivoting
/// Gaussian elimination IN PLACE on `lu` (row-major n×n) and records
/// the pivot-row swap sequence in `ipiv`, so repeated solves perform
/// zero allocations.
struct LuFactorView {
  std::span<double> lu;           ///< n·n row-major; factored in place
  std::span<std::uint32_t> ipiv;  ///< n; ipiv[k] = row swapped at step k
  std::size_t n = 0;

  /// Factors lu in place; throws std::runtime_error on a numerically
  /// singular pivot (|pivot| below n·ε·‖A‖∞).
  void factor();

  /// Solves A x = b into `x` (b and x may alias).  No allocations.
  void solve_to(std::span<const double> b, std::span<double> x) const;

  /// Multi-RHS solve, IN PLACE on B.  Layout is component-major
  /// ("point-major" in the sweep engine's terms): B[r*n_rhs + j] is
  /// component r of right-hand side j, so every substitution step
  /// updates n_rhs contiguous doubles — the auto-vectorisable inner
  /// loop the batch path is built around.  Column j of the result is
  /// bitwise what solve_to would produce for column j alone.
  void solve_many(std::span<double> B, std::size_t n_rhs) const;
};

/// Factors and solves `P` independent n×n systems together, in place.
/// Layout is point-major: entry (r, c) of system p is a[(r·n + c)·P + p]
/// and component r of its right-hand side b[r·P + p], so every step
/// updates P contiguous doubles.  Per system, the pivot choices,
/// singularity test and arithmetic are LuFactorView::factor followed by
/// solve_to, bit for bit (both are this routine's P = 1 case, and P = 1
/// compiles to their scalar loops).  On return `a` holds the factors and
/// `b` the solutions; `lane` (3·P doubles) and `lane_piv` (n·P pivot
/// rows) are scratch.
void lu_solve_point_major(std::span<double> a, std::span<double> b,
                          std::size_t n, std::size_t P,
                          std::span<double> lane,
                          std::span<std::uint32_t> lane_piv);

}  // namespace midas::linalg
