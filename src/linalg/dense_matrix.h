// Small dense matrices with LU factorisation.  DenseMatrix and LuSolver
// are the reference solver in tests; LuFactorView and the substitution
// kernels below are the allocation-free block kernels behind
// spn::TransientStructure::substitute (every absorbing solve and
// θ-step) and spn::AbsorbingAnalyzer::solve_batch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace midas::linalg {

class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }

  [[nodiscard]] double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  [[nodiscard]] std::vector<double> multiply(
      const std::vector<double>& x) const;

  /// Identity matrix.
  [[nodiscard]] static DenseMatrix identity(std::size_t n);

  /// Row-major storage (n·n doubles) — the layout LuFactorView factors
  /// in place.
  [[nodiscard]] std::span<double> data() noexcept { return data_; }
  [[nodiscard]] std::span<const double> data() const noexcept {
    return data_;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Non-owning LU factorisation over caller storage (stack buffers, a
/// util::Arena, a DenseMatrix's data()): factor() runs partial-pivoting
/// Gaussian elimination IN PLACE on `lu` (row-major n×n) and records
/// the pivot-row swap sequence in `ipiv`, so repeated solves perform
/// zero allocations.  The arithmetic is bit-for-bit the LuSolver
/// constructor's — the batched solver relies on that to stay bitwise
/// identical to the scalar path.
struct LuFactorView {
  std::span<double> lu;           ///< n·n row-major; factored in place
  std::span<std::uint32_t> ipiv;  ///< n; ipiv[k] = row swapped at step k
  std::size_t n = 0;

  /// Factors lu in place; throws std::runtime_error on a numerically
  /// singular pivot (same norm-scaled floor as LuSolver).
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

/// Substitution kernels over an already-factored LU (read-only): the
/// implementations behind LuFactorView / LuSolver solves.
void lu_solve_to(std::span<const double> lu,
                 std::span<const std::uint32_t> ipiv, std::size_t n,
                 std::span<const double> b, std::span<double> x);
void lu_solve_many(std::span<const double> lu,
                   std::span<const std::uint32_t> ipiv, std::size_t n,
                   std::span<double> B, std::size_t n_rhs);

/// Factors and solves `P` independent n×n systems together, in place.
/// Layout is point-major: entry (r, c) of system p is a[(r·n + c)·P + p]
/// and component r of its right-hand side b[r·P + p], so every step
/// updates P contiguous doubles.  Per system, the pivot choices,
/// singularity test and arithmetic are LuFactorView::factor followed by
/// solve_to, bit for bit (both are this routine's P = 1 case).  On
/// return `a` holds the factors and `b` the solutions; `lane` (3·P
/// doubles) and `lane_piv` (n·P pivot rows) are scratch.
void lu_solve_point_major(std::span<double> a, std::span<double> b,
                          std::size_t n, std::size_t P,
                          std::span<double> lane,
                          std::span<std::uint32_t> lane_piv);

/// LU factorisation with partial pivoting; throws std::runtime_error on a
/// numerically singular pivot.
class LuSolver {
 public:
  explicit LuSolver(DenseMatrix a);

  /// Solves A x = b.
  [[nodiscard]] std::vector<double> solve(std::vector<double> b) const;

  /// Allocation-free variant: solves into caller storage (b and x may
  /// alias).  Bitwise identical to solve().
  void solve_to(std::span<const double> b, std::span<double> x) const;

  /// Multi-RHS solve, in place on B (component-major layout
  /// B[r*n_rhs + j]; see LuFactorView::solve_many).  No per-call
  /// copies or allocations.
  void solve_many(std::span<double> B, std::size_t n_rhs) const;

 private:
  DenseMatrix lu_;
  std::vector<std::uint32_t> ipiv_;  // pivot-swap sequence (LAPACK-style)
  std::vector<std::size_t> perm_;    // composed permutation (solve())
};

}  // namespace midas::linalg
