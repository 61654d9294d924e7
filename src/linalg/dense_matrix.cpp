#include "linalg/dense_matrix.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace midas::linalg {

namespace {

// The one LU implementation: partial-pivoting Gaussian elimination of P
// independent n×n systems stored point-major — entry (r, c) of system p
// at a[(r·n + c)·P + p] — so every step updates P contiguous doubles.
// P = 1 is the row-major layout LuFactorView factors.  A system's pivot
// choices and arithmetic do not depend on P or on the other systems.
// `ipiv` receives the pivot-row swap sequence (ipiv[k·P + p]); `lane`
// is 3·P doubles of scratch.  Always inlined, so the P = 1 callers
// compile to straight scalar code.
[[gnu::always_inline]] inline void factor_lanes(double* a, std::size_t n,
                                                std::size_t P,
                                                std::uint32_t* ipiv,
                                                double* lane) {
  const auto at = [&](std::size_t r, std::size_t c) {
    return a + (r * n + c) * P;
  };
  double* floor = lane;  // per system: ‖A‖∞, then the pivot floor
  double* best = lane + P;
  double* f = lane + 2 * P;

  // Singularity threshold scaled to the matrix: a pivot only means
  // anything relative to ‖A‖∞.  An absolute cutoff (the former 1e-300)
  // accepts the tiny-but-nonzero pivots that cancellation leaves in a
  // singular-to-rounding block and returns garbage; n·ε·‖A‖∞ is the
  // magnitude roundoff alone can produce there.
  for (std::size_t p = 0; p < P; ++p) floor[p] = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t p = 0; p < P; ++p) best[p] = 0.0;  // row sum
    for (std::size_t c = 0; c < n; ++c) {
      const double* x = at(r, c);
      for (std::size_t p = 0; p < P; ++p) best[p] += std::abs(x[p]);
    }
    for (std::size_t p = 0; p < P; ++p) floor[p] = std::max(floor[p], best[p]);
  }
  for (std::size_t p = 0; p < P; ++p) {
    floor[p] = std::max(static_cast<double>(n) *
                            std::numeric_limits<double>::epsilon() * floor[p],
                        1e-300);
  }

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivot, chosen per system.
    std::uint32_t* piv = ipiv + k * P;
    for (std::size_t p = 0; p < P; ++p) {
      best[p] = std::abs(at(k, k)[p]);
      piv[p] = static_cast<std::uint32_t>(k);
    }
    for (std::size_t r = k + 1; r < n; ++r) {
      const double* x = at(r, k);
      for (std::size_t p = 0; p < P; ++p) {
        if (std::abs(x[p]) > best[p]) {
          best[p] = std::abs(x[p]);
          piv[p] = static_cast<std::uint32_t>(r);
        }
      }
    }
    for (std::size_t p = 0; p < P; ++p) {
      if (best[p] < floor[p]) {
        throw std::runtime_error("LU factorisation: singular matrix");
      }
      if (piv[p] != k) {
        for (std::size_t c = 0; c < n; ++c) {
          std::swap(at(piv[p], c)[p], at(k, c)[p]);
        }
      }
    }
    for (std::size_t r = k + 1; r < n; ++r) {
      double* xk = at(r, k);
      const double* dk = at(k, k);
      for (std::size_t p = 0; p < P; ++p) {
        f[p] = xk[p] / dk[p];
        xk[p] = f[p];
      }
      for (std::size_t c = k + 1; c < n; ++c) {
        double* xc = at(r, c);
        const double* kc = at(k, c);
        for (std::size_t p = 0; p < P; ++p) xc[p] -= f[p] * kc[p];
      }
    }
  }
}

// Solves factored systems in place on the point-major right-hand sides
// x[r·P + p].  System p uses its own factor as factor_lanes leaves it,
// or, with `shared`, all P right-hand sides use one factor in the P = 1
// layout (the multi-RHS solve).
[[gnu::always_inline]] inline void solve_lanes(const double* a,
                                               const std::uint32_t* ipiv,
                                               std::size_t n, std::size_t P,
                                               bool shared, double* x) {
  const std::size_t fp = shared ? 1 : P;  // factor doubles per (r, c)
  const std::size_t fs = shared ? 0 : 1;  // factor stride between systems
  const auto at = [&](std::size_t r, std::size_t c) {
    return a + (r * n + c) * fp;
  };
  // P b: replay the pivot-swap sequence (equivalent to gathering by the
  // composed permutation — same values, no scratch).
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t p = 0; p < P; ++p) {
      const std::size_t q = ipiv[k * fp + p * fs];
      if (q != k) std::swap(x[k * P + p], x[q * P + p]);
    }
  }
  // Forward substitution (unit lower).
  for (std::size_t i = 0; i < n; ++i) {
    double* xi = x + i * P;
    for (std::size_t j = 0; j < i; ++j) {
      const double* lij = at(i, j);
      const double* xj = x + j * P;
      for (std::size_t p = 0; p < P; ++p) xi[p] -= lij[p * fs] * xj[p];
    }
  }
  // Back substitution.
  for (std::size_t ii = n; ii-- > 0;) {
    double* xi = x + ii * P;
    for (std::size_t j = ii + 1; j < n; ++j) {
      const double* uij = at(ii, j);
      const double* xj = x + j * P;
      for (std::size_t p = 0; p < P; ++p) xi[p] -= uij[p * fs] * xj[p];
    }
    const double* d = at(ii, ii);
    for (std::size_t p = 0; p < P; ++p) xi[p] /= d[p * fs];
  }
}

}  // namespace

void LuFactorView::factor() {
  assert(lu.size() == n * n && ipiv.size() == n);
  double lane[3];
  factor_lanes(lu.data(), n, 1, ipiv.data(), lane);
}

void LuFactorView::solve_to(std::span<const double> b,
                            std::span<double> x) const {
  assert(b.size() == n && x.size() == n);
  if (x.data() != b.data()) std::copy(b.begin(), b.end(), x.begin());
  solve_lanes(lu.data(), ipiv.data(), n, 1, false, x.data());
}

void LuFactorView::solve_many(std::span<double> B, std::size_t n_rhs) const {
  assert(B.size() == n * n_rhs);
  solve_lanes(lu.data(), ipiv.data(), n, n_rhs, true, B.data());
}

void lu_solve_point_major(std::span<double> a, std::span<double> b,
                          std::size_t n, std::size_t P,
                          std::span<double> lane,
                          std::span<std::uint32_t> lane_piv) {
  assert(a.size() == n * n * P && b.size() == n * P &&
         lane.size() >= 3 * P && lane_piv.size() >= n * P);
  if (P == 1) {
    // A compile-time 1 with stack lanes (no alias with `a`): the straight
    // scalar loops of LuFactorView::factor and solve_to.
    double one[3] = {};
    factor_lanes(a.data(), n, 1, lane_piv.data(), one);
    solve_lanes(a.data(), lane_piv.data(), n, 1, false, b.data());
    return;
  }
  factor_lanes(a.data(), n, P, lane_piv.data(), lane.data());
  solve_lanes(a.data(), lane_piv.data(), n, P, false, b.data());
}

}  // namespace midas::linalg
