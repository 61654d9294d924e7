// Voting-based IDS error probabilities — paper Equation 1.
//
// A target node is judged by `m` vote-participants drawn uniformly
// without replacement from the rest of the group (Ngood trusted nodes,
// Nbad compromised-undetected nodes).  Eviction requires a strict
// majority of negative (evict) votes.  Voter behaviour:
//   * compromised voters collude deterministically: they vote to EVICT a
//     good target and to RETAIN a bad target;
//   * trusted voters apply their host IDS and err independently — with
//     probability p2 they vote against a good target (false positive),
//     with probability p1 they vote for a bad target (false negative).
//
//   Pfp = P[ majority votes against a GOOD target ]
//   Pfn = P[ majority fails against a BAD target ]
//
// Evaluated exactly: hypergeometric mixture over the number of
// compromised participants × binomial error counts among the trusted
// ones.  A brute-force enumerator over all voter subsets validates the
// closed form in the tests.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

namespace midas::ids {

struct VotingParams {
  std::int64_t num_voters = 5;  // m, the paper's vote-participant count
  double p1 = 0.01;             // per-node host-IDS false negative
  double p2 = 0.01;             // per-node host-IDS false positive
};

struct VotingErrorRates {
  double pfp = 0.0;  // P[good target evicted]
  double pfn = 0.0;  // P[bad target retained]
};

/// Exact Pfp/Pfn for a group with `n_good` trusted and `n_bad`
/// compromised-undetected members.  The effective number of voters is
/// min(m, pool size); groups too small to vote (pool = 0) yield
/// pfp = 0, pfn = 1 (no eviction possible).
[[nodiscard]] VotingErrorRates voting_error_rates(const VotingParams& params,
                                                  std::int64_t n_good,
                                                  std::int64_t n_bad);

/// O(2^pool · pool²) reference evaluator for tests (pool ≤ ~12).
[[nodiscard]] VotingErrorRates voting_error_rates_bruteforce(
    const VotingParams& params, std::int64_t n_good, std::int64_t n_bad);

/// Memoised wrapper keyed on (n_good, n_bad); the SPN evaluates the
/// error rates in every marking, so this removes ~all recomputation.
/// The build runs voting_error_rates' own Equation 1 body over
/// log_factorial and binomial_tail_geq values computed once per table
/// (the entries only ever ask for a few hundred distinct ones), so
/// every entry is bitwise the direct call at a small fraction of the
/// lgamma/exp/log work.
class VotingTable {
 public:
  VotingTable(VotingParams params, std::int64_t max_good,
              std::int64_t max_bad);

  [[nodiscard]] const VotingErrorRates& at(std::int64_t n_good,
                                           std::int64_t n_bad) const;
  [[nodiscard]] const VotingParams& params() const noexcept {
    return params_;
  }

 private:
  VotingParams params_;
  std::int64_t max_good_;
  std::int64_t max_bad_;
  std::vector<VotingErrorRates> table_;  // (good, bad) row-major
};

/// Process-wide memo of voting tables keyed on (m, p1, p2, bounds).
/// A parameter sweep builds one GcsSpnModel per point, and for a
/// TIDS/shape sweep every point needs the identical O(N²) table — this
/// makes all of them share one precomputation.  Thread-safe; the memo
/// holds one entry per distinct configuration seen in the process.
[[nodiscard]] std::shared_ptr<const VotingTable> shared_voting_table(
    const VotingParams& params, std::int64_t max_good, std::int64_t max_bad);

}  // namespace midas::ids
