// Compressed-sparse-row matrix: the generator storage of the
// uniformisation test oracle (oracle/ctmc.h, oracle/transient.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace midas::linalg {

/// Triplet used while assembling a sparse matrix.
struct Triplet {
  std::uint32_t row;
  std::uint32_t col;
  double value;
};

class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Builds from triplets; duplicate (row, col) entries are summed.
  static CsrMatrix from_triplets(std::size_t rows, std::size_t cols,
                                 std::vector<Triplet> triplets);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t nnz() const noexcept { return values_.size(); }

  /// y = A x  (y resized to rows()).
  void multiply(std::span<const double> x, std::vector<double>& y) const;

  /// y = Aᵀ x  (y resized to cols()).
  void multiply_transpose(std::span<const double> x,
                          std::vector<double>& y) const;

  /// Returns the transposed matrix (explicit, used by the absorbing-state
  /// solver which iterates on columns of the generator).
  [[nodiscard]] CsrMatrix transposed() const;

  /// Diagonal entries (0 where the diagonal is structurally absent).
  [[nodiscard]] std::vector<double> diagonal() const;

  /// Row access for solver kernels.
  [[nodiscard]] std::span<const std::uint32_t> row_cols(std::size_t r) const;
  [[nodiscard]] std::span<const double> row_values(std::size_t r) const;

  /// Entry lookup (O(row nnz)); 0.0 if absent.
  [[nodiscard]] double at(std::size_t r, std::size_t c) const;

  /// Infinity norm of the matrix (max absolute row sum).
  [[nodiscard]] double inf_norm() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::uint32_t> row_ptr_;  // size rows_ + 1
  std::vector<std::uint32_t> col_;
  std::vector<double> values_;
};

}  // namespace midas::linalg
