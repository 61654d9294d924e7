#include "oracle/csr_matrix.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace midas::linalg {

CsrMatrix CsrMatrix::from_triplets(std::size_t rows, std::size_t cols,
                                   std::vector<Triplet> triplets) {
  for (const auto& t : triplets) {
    if (t.row >= rows || t.col >= cols) {
      throw std::out_of_range("CsrMatrix: triplet outside matrix bounds");
    }
  }
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });

  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_.assign(rows + 1, 0);
  m.col_.reserve(triplets.size());
  m.values_.reserve(triplets.size());

  for (std::size_t i = 0; i < triplets.size();) {
    const auto row = triplets[i].row;
    const auto col = triplets[i].col;
    double sum = 0.0;
    while (i < triplets.size() && triplets[i].row == row &&
           triplets[i].col == col) {
      sum += triplets[i].value;
      ++i;
    }
    m.col_.push_back(col);
    m.values_.push_back(sum);
    m.row_ptr_[row + 1] = static_cast<std::uint32_t>(m.col_.size());
  }
  // row_ptr entries for empty rows: carry forward.
  for (std::size_t r = 1; r <= rows; ++r) {
    m.row_ptr_[r] = std::max(m.row_ptr_[r], m.row_ptr_[r - 1]);
  }
  return m;
}

void CsrMatrix::multiply(std::span<const double> x,
                         std::vector<double>& y) const {
  assert(x.size() == cols_);
  y.assign(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    for (std::uint32_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      acc += values_[k] * x[col_[k]];
    }
    y[r] = acc;
  }
}

void CsrMatrix::multiply_transpose(std::span<const double> x,
                                   std::vector<double>& y) const {
  assert(x.size() == rows_);
  y.assign(cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double xr = x[r];
    if (xr == 0.0) continue;
    for (std::uint32_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      y[col_[k]] += values_[k] * xr;
    }
  }
}

CsrMatrix CsrMatrix::transposed() const {
  std::vector<Triplet> trips;
  trips.reserve(nnz());
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::uint32_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      trips.push_back({col_[k], static_cast<std::uint32_t>(r), values_[k]});
    }
  }
  return from_triplets(cols_, rows_, std::move(trips));
}

std::vector<double> CsrMatrix::diagonal() const {
  std::vector<double> d(std::min(rows_, cols_), 0.0);
  for (std::size_t r = 0; r < d.size(); ++r) {
    d[r] = at(r, r);
  }
  return d;
}

std::span<const std::uint32_t> CsrMatrix::row_cols(std::size_t r) const {
  return {col_.data() + row_ptr_[r],
          static_cast<std::size_t>(row_ptr_[r + 1] - row_ptr_[r])};
}

std::span<const double> CsrMatrix::row_values(std::size_t r) const {
  return {values_.data() + row_ptr_[r],
          static_cast<std::size_t>(row_ptr_[r + 1] - row_ptr_[r])};
}

double CsrMatrix::at(std::size_t r, std::size_t c) const {
  for (std::uint32_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
    if (col_[k] == c) return values_[k];
  }
  return 0.0;
}

double CsrMatrix::inf_norm() const {
  double best = 0.0;
  for (std::size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    for (std::uint32_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      acc += std::abs(values_[k]);
    }
    best = std::max(best, acc);
  }
  return best;
}

}  // namespace midas::linalg
