#include "oracle/fox_glynn.h"

#include <cmath>
#include <stdexcept>

namespace midas::linalg {

PoissonWindow poisson_window(double q, double epsilon) {
  if (q < 0.0) throw std::invalid_argument("poisson_window: q < 0");
  PoissonWindow w;
  if (q == 0.0) {
    w.left = w.right = 0;
    w.weights = {1.0};
    return w;
  }

  // Work outward from the mode in the log domain; this is the robust
  // part of Fox–Glynn without the original paper's integer gymnastics.
  const auto mode = static_cast<std::size_t>(q);
  // lgamma_r: std::lgamma writes the global signgam (a data race).
  auto log_pmf = [q](std::size_t k) {
    int sign = 0;
    return -q + static_cast<double>(k) * std::log(q) -
           ::lgamma_r(static_cast<double>(k) + 1.0, &sign);
  };

  const double log_eps = std::log(epsilon) - std::log(4.0);
  const double log_mode = log_pmf(mode);

  std::size_t left = mode;
  while (left > 0 && log_pmf(left - 1) > log_eps + log_mode - 30.0) {
    // Walk left until pmf is negligible relative to the mode; the -30
    // margin (≈ e⁻³⁰) keeps the window generous for small q.
    if (log_pmf(left - 1) < log_mode - 45.0) break;
    --left;
  }
  std::size_t right = mode;
  while (log_pmf(right + 1) > log_mode - 45.0) {
    ++right;
    if (right > mode + 10 * static_cast<std::size_t>(std::sqrt(q) + 10.0)) {
      break;  // hard cap; tail mass beyond this is far below epsilon
    }
  }

  w.left = left;
  w.right = right;
  w.weights.resize(right - left + 1);
  double sum = 0.0;
  for (std::size_t k = left; k <= right; ++k) {
    const double p = std::exp(log_pmf(k));
    w.weights[k - left] = p;
    sum += p;
  }
  if (sum <= 0.0) throw std::runtime_error("poisson_window: underflow");
  for (double& p : w.weights) p /= sum;
  return w;
}

}  // namespace midas::linalg
