#include "linalg/log_math.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace midas::linalg {

namespace {
constexpr double kNegInf = -std::numeric_limits<double>::infinity();
}

double log_factorial(std::int64_t n) {
  if (n < 0) return kNegInf;
  // lgamma_r, not std::lgamma: std::lgamma writes glibc's global
  // signgam, a data race when voting tables are built on several
  // threads.  Both return the same double.
  int sign = 0;
  return ::lgamma_r(static_cast<double>(n) + 1.0, &sign);
}

double log_binomial(std::int64_t n, std::int64_t k) {
  return log_binomial_from(log_factorial, n, k);
}

double binomial(std::int64_t n, std::int64_t k) {
  const double lb = log_binomial(n, k);
  return std::isinf(lb) ? 0.0 : std::exp(lb);
}

double binomial_pmf(std::int64_t n, std::int64_t k, double p) {
  if (k < 0 || k > n) return 0.0;
  if (p <= 0.0) return k == 0 ? 1.0 : 0.0;
  if (p >= 1.0) return k == n ? 1.0 : 0.0;
  const double lp = log_binomial(n, k) + static_cast<double>(k) * std::log(p) +
                    static_cast<double>(n - k) * std::log1p(-p);
  return std::exp(lp);
}

double binomial_tail_geq(std::int64_t n, std::int64_t k, double p) {
  if (k <= 0) return 1.0;
  if (k > n) return 0.0;
  // Sum the smaller tail for accuracy.
  if (static_cast<double>(k) > static_cast<double>(n) * p) {
    double acc = 0.0;
    for (std::int64_t j = k; j <= n; ++j) acc += binomial_pmf(n, j, p);
    return std::min(acc, 1.0);
  }
  double acc = 0.0;
  for (std::int64_t j = 0; j < k; ++j) acc += binomial_pmf(n, j, p);
  return std::max(0.0, 1.0 - acc);
}

double hypergeometric_pmf(std::int64_t succ, std::int64_t fail,
                          std::int64_t draws, std::int64_t k) {
  return hypergeometric_pmf_from(log_factorial, succ, fail, draws, k);
}

double log_sum_exp(double a, double b) {
  if (a == kNegInf) return b;
  if (b == kNegInf) return a;
  const double hi = std::max(a, b);
  const double lo = std::min(a, b);
  return hi + std::log1p(std::exp(lo - hi));
}

}  // namespace midas::linalg
