#include "oracle/dense_lu.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

namespace midas::linalg {

void LuFactorView::factor() {
  assert(lu.size() == n * n && ipiv.size() == n);
  const auto at = [&](std::size_t r, std::size_t c) -> double& {
    return lu[r * n + c];
  };
  // Singularity threshold scaled to the matrix: n·ε·‖A‖∞ is the
  // magnitude roundoff alone leaves in a singular-to-rounding pivot.
  double norm = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    double row = 0.0;
    for (std::size_t c = 0; c < n; ++c) row += std::abs(at(r, c));
    norm = std::max(norm, row);
  }
  const double floor = std::max(static_cast<double>(n) *
                                    std::numeric_limits<double>::epsilon() *
                                    norm,
                                1e-300);

  for (std::size_t k = 0; k < n; ++k) {
    double best = std::abs(at(k, k));
    std::size_t piv = k;
    for (std::size_t r = k + 1; r < n; ++r) {
      if (std::abs(at(r, k)) > best) {
        best = std::abs(at(r, k));
        piv = r;
      }
    }
    if (best < floor) {
      throw std::runtime_error("LU factorisation: singular matrix");
    }
    ipiv[k] = static_cast<std::uint32_t>(piv);
    if (piv != k) {
      for (std::size_t c = 0; c < n; ++c) std::swap(at(piv, c), at(k, c));
    }
    for (std::size_t r = k + 1; r < n; ++r) {
      const double f = at(r, k) / at(k, k);
      at(r, k) = f;
      for (std::size_t c = k + 1; c < n; ++c) at(r, c) -= f * at(k, c);
    }
  }
}

void LuFactorView::solve_to(std::span<const double> b,
                            std::span<double> x) const {
  assert(b.size() == n && x.size() == n);
  if (x.data() != b.data()) std::copy(b.begin(), b.end(), x.begin());
  // P b: replay the pivot-swap sequence.
  for (std::size_t k = 0; k < n; ++k) {
    if (ipiv[k] != k) std::swap(x[k], x[ipiv[k]]);
  }
  // Forward substitution (unit lower), then back substitution.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) x[i] -= lu[i * n + j] * x[j];
  }
  for (std::size_t i = n; i-- > 0;) {
    for (std::size_t j = i + 1; j < n; ++j) x[i] -= lu[i * n + j] * x[j];
    x[i] /= lu[i * n + i];
  }
}

}  // namespace midas::linalg
