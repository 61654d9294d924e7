#include "ids/voting.h"

#include <algorithm>
#include <map>
#include <mutex>
#include <stdexcept>
#include <tuple>

#include "linalg/log_math.h"

namespace midas::ids {

namespace {

/// Strict majority threshold for `m` voters.
std::int64_t majority_of(std::int64_t m) { return m / 2 + 1; }

void check_params(const VotingParams& params) {
  if (params.num_voters <= 0) {
    throw std::invalid_argument("voting_error_rates: m must be positive");
  }
  if (params.p1 < 0.0 || params.p1 > 1.0 || params.p2 < 0.0 ||
      params.p2 > 1.0) {
    throw std::invalid_argument("voting_error_rates: p1/p2 out of [0,1]");
  }
}

/// Equation 1 over a source of its two kinds of terms — the
/// hypergeometric selection pmf and the binomial vote tails at p2 and
/// 1 − p1.  The one body behind voting_error_rates (DirectTerms) and
/// VotingTable (MemoTerms).
template <class Terms>
VotingErrorRates equation1(std::int64_t num_voters, std::int64_t n_good,
                           std::int64_t n_bad, const Terms& terms) {
  VotingErrorRates rates;

  // ---- Pfp: target is GOOD.  Pool excludes the target itself.
  {
    const std::int64_t pool_good = std::max<std::int64_t>(n_good - 1, 0);
    const std::int64_t pool = pool_good + n_bad;
    if (pool == 0) {
      rates.pfp = 0.0;  // nobody can vote; no eviction possible
    } else {
      const std::int64_t m = std::min(num_voters, pool);
      const std::int64_t need = majority_of(m);
      double pfp = 0.0;
      for (std::int64_t k = 0; k <= std::min(m, n_bad); ++k) {
        const double sel = terms.hypergeometric(n_bad, pool_good, m, k);
        if (sel == 0.0) continue;
        // k colluding voters all vote to evict; of the m−k trusted
        // voters, each mistakenly votes to evict w.p. p2.  Eviction when
        // total negative votes reach the majority.
        const std::int64_t still_needed = need - k;
        pfp += sel * terms.tail_p2(m - k, still_needed);
      }
      rates.pfp = std::clamp(pfp, 0.0, 1.0);
    }
  }

  // ---- Pfn: target is BAD.  Pool excludes the (bad) target.
  {
    const std::int64_t pool_bad = std::max<std::int64_t>(n_bad - 1, 0);
    const std::int64_t pool = n_good + pool_bad;
    if (pool == 0) {
      rates.pfn = 1.0;  // nobody can vote; the bad node survives
    } else {
      const std::int64_t m = std::min(num_voters, pool);
      const std::int64_t need = majority_of(m);
      double evicted = 0.0;
      for (std::int64_t k = 0; k <= std::min(m, pool_bad); ++k) {
        const double sel = terms.hypergeometric(pool_bad, n_good, m, k);
        if (sel == 0.0) continue;
        // Colluders vote to retain; only the m−k trusted voters can vote
        // to evict, each detecting the bad target w.p. 1−p1.
        evicted += sel * terms.tail_q1(m - k, need);
      }
      rates.pfn = std::clamp(1.0 - evicted, 0.0, 1.0);
    }
  }
  return rates;
}

/// Every term straight from linalg.
struct DirectTerms {
  double p2;
  double q1;  // 1 − p1

  double hypergeometric(std::int64_t succ, std::int64_t fail,
                        std::int64_t draws, std::int64_t k) const {
    return linalg::hypergeometric_pmf(succ, fail, draws, k);
  }
  double tail_p2(std::int64_t n, std::int64_t k) const {
    return linalg::binomial_tail_geq(n, k, p2);
  }
  double tail_q1(std::int64_t n, std::int64_t k) const {
    return linalg::binomial_tail_geq(n, k, q1);
  }
};

/// The same linalg values, computed once per table.  A table's pools
/// hold at most max_good + max_bad nodes, so ln(n!) is needed only up
/// to there; a quorum has at most `votes` = min(m, pool) members, so
/// the tails see n <= votes and thresholds <= votes/2 + 1.  Thresholds
/// <= 0 read column 0: binomial_tail_geq returns exactly 1.0 for all
/// of them.
class MemoTerms {
 public:
  MemoTerms(const VotingParams& params, std::int64_t max_pool)
      : width_(std::min(params.num_voters, max_pool) + 2) {
    log_fact_.resize(static_cast<std::size_t>(max_pool + 1));
    for (std::int64_t n = 0; n <= max_pool; ++n) {
      log_fact_[static_cast<std::size_t>(n)] = linalg::log_factorial(n);
    }
    const double q1 = 1.0 - params.p1;
    const std::int64_t votes = width_ - 2;
    tail_p2_.resize(static_cast<std::size_t>((votes + 1) * width_));
    tail_q1_.resize(tail_p2_.size());
    for (std::int64_t n = 0; n <= votes; ++n) {
      for (std::int64_t k = 0; k < width_; ++k) {
        tail_p2_[index(n, k)] = linalg::binomial_tail_geq(n, k, params.p2);
        tail_q1_[index(n, k)] = linalg::binomial_tail_geq(n, k, q1);
      }
    }
  }

  double hypergeometric(std::int64_t succ, std::int64_t fail,
                        std::int64_t draws, std::int64_t k) const {
    return linalg::hypergeometric_pmf_from(
        [this](std::int64_t n) {
          return log_fact_[static_cast<std::size_t>(n)];
        },
        succ, fail, draws, k);
  }
  double tail_p2(std::int64_t n, std::int64_t k) const {
    return tail_p2_[index(n, std::max<std::int64_t>(k, 0))];
  }
  double tail_q1(std::int64_t n, std::int64_t k) const {
    return tail_q1_[index(n, std::max<std::int64_t>(k, 0))];
  }

 private:
  [[nodiscard]] std::size_t index(std::int64_t n, std::int64_t k) const {
    return static_cast<std::size_t>(n * width_ + k);
  }

  std::int64_t width_;  // thresholds 0..votes + 1
  std::vector<double> log_fact_;
  std::vector<double> tail_p2_;  // [n * width_ + k]
  std::vector<double> tail_q1_;
};

}  // namespace

VotingErrorRates voting_error_rates(const VotingParams& params,
                                    std::int64_t n_good, std::int64_t n_bad) {
  check_params(params);
  if (n_good < 0 || n_bad < 0) {
    throw std::invalid_argument("voting_error_rates: negative populations");
  }
  return equation1(params.num_voters, n_good, n_bad,
                   DirectTerms{params.p2, 1.0 - params.p1});
}

VotingErrorRates voting_error_rates_bruteforce(const VotingParams& params,
                                               std::int64_t n_good,
                                               std::int64_t n_bad) {
  // Enumerates every participant subset of size m (over a labelled pool)
  // and, within it, every error pattern of the trusted voters.  Only
  // viable for small pools; used as the test oracle.
  auto evaluate = [&](bool target_good) {
    const std::int64_t pool_good =
        std::max<std::int64_t>(target_good ? n_good - 1 : n_good, 0);
    const std::int64_t pool_bad =
        std::max<std::int64_t>(target_good ? n_bad : n_bad - 1, 0);
    const std::int64_t pool = pool_good + pool_bad;
    if (pool == 0) return target_good ? 0.0 : 1.0;
    const std::int64_t m = std::min(params.num_voters, pool);
    const std::int64_t need = m / 2 + 1;

    // P[k bad among m] × P[negative votes ≥ need], built by explicit
    // enumeration of the trusted-voter error count j.
    double p_evict = 0.0;
    for (std::int64_t k = 0; k <= std::min(m, pool_bad); ++k) {
      const double sel = linalg::hypergeometric_pmf(pool_bad, pool_good, m, k);
      if (sel == 0.0) continue;
      const std::int64_t trusted = m - k;
      double evict_given_k = 0.0;
      for (std::int64_t j = 0; j <= trusted; ++j) {
        // For a good target: negatives = k (colluders) + j (errors, p2).
        // For a bad target: negatives = j (correct detections, 1−p1).
        const double pj = target_good
                              ? linalg::binomial_pmf(trusted, j, params.p2)
                              : linalg::binomial_pmf(trusted, j,
                                                     1.0 - params.p1);
        const std::int64_t negatives = target_good ? k + j : j;
        if (negatives >= need) evict_given_k += pj;
      }
      p_evict += sel * evict_given_k;
    }
    return target_good ? p_evict : 1.0 - p_evict;
  };

  VotingErrorRates rates;
  rates.pfp = evaluate(true);
  rates.pfn = evaluate(false);
  return rates;
}

VotingTable::VotingTable(VotingParams params, std::int64_t max_good,
                         std::int64_t max_bad)
    : params_(params), max_good_(max_good), max_bad_(max_bad) {
  if (max_good < 0 || max_bad < 0) {
    throw std::invalid_argument("VotingTable: negative bounds");
  }
  check_params(params_);
  const MemoTerms terms(params_, max_good + max_bad);
  table_.resize(static_cast<std::size_t>((max_good + 1) * (max_bad + 1)));
  for (std::int64_t g = 0; g <= max_good; ++g) {
    for (std::int64_t b = 0; b <= max_bad; ++b) {
      table_[static_cast<std::size_t>(g * (max_bad + 1) + b)] =
          equation1(params_.num_voters, g, b, terms);
    }
  }
}

const VotingErrorRates& VotingTable::at(std::int64_t n_good,
                                        std::int64_t n_bad) const {
  n_good = std::clamp<std::int64_t>(n_good, 0, max_good_);
  n_bad = std::clamp<std::int64_t>(n_bad, 0, max_bad_);
  return table_[static_cast<std::size_t>(n_good * (max_bad_ + 1) + n_bad)];
}

std::shared_ptr<const VotingTable> shared_voting_table(
    const VotingParams& params, std::int64_t max_good,
    std::int64_t max_bad) {
  struct Key {
    std::int64_t m, max_good, max_bad;
    double p1, p2;
    bool operator<(const Key& o) const {
      return std::tie(m, max_good, max_bad, p1, p2) <
             std::tie(o.m, o.max_good, o.max_bad, o.p1, o.p2);
    }
  };
  static std::mutex mutex;
  static std::map<Key, std::shared_ptr<const VotingTable>> memo;

  const Key key{params.num_voters, max_good, max_bad, params.p1, params.p2};
  {
    std::lock_guard lock(mutex);
    if (const auto it = memo.find(key); it != memo.end()) return it->second;
  }
  // Build outside the lock: a table is O(N²) closed-form evaluations and
  // concurrent sweep workers must not serialise on it.  A racing builder
  // of the same key wastes one build; first insert wins.
  auto table = std::make_shared<const VotingTable>(params, max_good, max_bad);
  std::lock_guard lock(mutex);
  return memo.try_emplace(key, std::move(table)).first->second;
}

}  // namespace midas::ids
