// Discrete-event Monte-Carlo simulator of the mobile-group process —
// the validation path.  It simulates the same stochastic process as the
// SPN (exponential races via Gillespie's direct method) but is coded
// independently of the SPN engine, so agreement between the two is a
// genuine cross-check of both the model construction and the numerical
// solvers (the paper validates its analytical model by simulation only;
// we reproduce that methodology and make it a regression test).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/params.h"
#include "ids/voting.h"
#include "sim/rng.h"
#include "sim/stats.h"

namespace midas::sim {

/// Outcome of a single replication.
struct Trajectory {
  double ttsf = 0.0;            // time to security failure (s)
  double accumulated_cost = 0.0;  // hop-bits until failure
  bool failed_by_c1 = false;    // data leak (else Byzantine/C2)
  std::size_t compromises = 0;
  std::size_t true_evictions = 0;
  std::size_t false_evictions = 0;
  /// Conditional-expectation controls, accumulated for free alongside
  /// the trajectory: expected_dwell = Σ 1/total_rate over the visited
  /// states (= E[TTSF | jump path], whose mean is EXACTLY the analytic
  /// MTTSF in the time-homogeneous model) and expected_cost = the same
  /// sum weighted by the state cost rates plus the deterministic
  /// eviction impulses (mean = analytic ctotal × MTTSF).  The vr
  /// control-variate estimator regresses TTSF/cost on these: they
  /// carry the entire jump-path variance, leaving only the exponential
  /// holding-time noise behind.
  double expected_dwell = 0.0;
  double expected_cost = 0.0;

  [[nodiscard]] double mean_cost_rate() const {
    return ttsf > 0.0 ? accumulated_cost / ttsf : 0.0;
  }
};

/// Immutable per-parameter-point rate table shared by every replication
/// of that point (every Monte-Carlo worker reads it at once; nothing in
/// it changes after construction).  It resolves the timeline once —
/// segment start times, the segment's p1/p2/λq and its voting table
/// (through the ids::shared_voting_table memo, so a TIDS sweep shares
/// one table across the grid) — and tabulates, per segment, everything
/// in a state's rates that no detector changes:
///
///   rows         [ng·(N+1) + members], ng in 0..ng_bound: the detection
///                rate D(md), the cost rate CostModel::breakdown(...)
///                .total(), the eviction impulse and r_par / r_mer;
///   attack_base  [members·(members+1)/2 + ucm] over the
///                Tm + UCm <= N triangle: the attacker's base rate
///                A(mc) (0 when Tm = 0);
///
/// plus, for the whole timeline, per_group(x, NG) at
/// [ng·(N+1) + x].  N is n_init and ng_bound = min(max_groups, N).
/// The NG = 0 rows exist because a rounding-level overshoot of the
/// Gillespie selection past the last positive rate takes the merge
/// fallback, which can move NG from 1 to 0.
///
/// Every entry is the DES's own expression (not the SPN's, so the DES
/// stays an independent check of the SPN rate code), evaluated on the
/// same operands in the same order as the per-event code it replaces,
/// so GroupSimulator reads bitwise the doubles it used to compute;
/// tests/oracle/des.h keeps that per-event simulator and the tests hold
/// the two equal bit for bit.  The rows are factored by what each rate
/// depends on instead of keyed per full (Tm, UCm, NG, phase) state:
/// at N = 100 full rows would cost ~1.2 MB per point against ~60 KB
/// per segment here, and peak RSS is a gated benchmark metric.
class DesContext {
 public:
  /// Validates `params` (throws like GroupSimulator) and fills the
  /// tables.
  explicit DesContext(const core::Params& params);

  /// Seed-era behaviour: private voting tables built from scratch (no
  /// memo).  Kept for the benchmark baseline.
  [[nodiscard]] static DesContext fresh(const core::Params& params);

 private:
  friend class GroupSimulator;

  /// The rates of one (NG, members) pair in one segment.
  struct Row {
    double det = 0.0;           // D(md), per-node detection rate
    double cost_rate = 0.0;     // Ĉtotal, hop-bits/s
    double impulse_bits = 0.0;  // one eviction's rekey cost
    double r_par = 0.0;
    double r_mer = 0.0;
  };
  struct Segment {
    double start_s = 0.0;
    double p1 = 0.0;
    double p2 = 0.0;
    double lambda_q = 0.0;
    std::shared_ptr<const ids::VotingTable> voting;
    std::vector<Row> rows;
    std::vector<double> attack_base;
  };
  using VotingSource = std::shared_ptr<const ids::VotingTable> (*)(
      const ids::VotingParams&, std::int64_t, std::int64_t);

  DesContext(const core::Params& params, VotingSource voting);

  // What a GroupSimulator's params and a restored snapshot must fit.
  std::int64_t n_init_;
  std::int64_t ng_bound_;
  std::vector<std::int64_t> per_group_;
  std::vector<Segment> segments_;
};

/// Step-wise form of the group DES — the same Gillespie loop as
/// simulate_group (which is now a thin wrapper over this class),
/// exposed one event at a time so estimation layers can interleave:
/// the vr multilevel-splitting runner watches the compromise count
/// between steps, snapshots the full simulation state at level
/// upcrossings and restarts clones from those entrance states.
/// Draws come from the RandomSource seam, so a clone continues under
/// a fresh independent stream while the state is an exact copy.
class GroupSimulator {
 public:
  enum class Status { Running, FailedC1, FailedC2 };

  /// Reads its rates from `context`, which must be built from the
  /// same params.  Throws like simulate_group on invalid params, and
  /// std::invalid_argument naming the field (n_init, max_groups,
  /// timeline) when `context` was built for a different table shape.
  GroupSimulator(const core::Params& params, const DesContext& context);

  /// Advances by one Gillespie iteration (one event, or one
  /// schedule-boundary hop which consumes one dwell draw and no event
  /// draw).  Consumes draws in EXACTLY the simulate_group order.
  /// Calling step() after absorption throws std::logic_error.
  Status step(RandomSource& draw);

  /// Runs step() to absorption and returns the terminal status.
  Status run(RandomSource& draw);

  [[nodiscard]] Status status() const noexcept { return status_; }
  /// Undetected-compromised count UCm — the importance function the
  /// splitting levels threshold on.
  [[nodiscard]] std::int64_t compromised() const noexcept;
  [[nodiscard]] double now() const noexcept { return now_; }
  /// Counters so far; ttsf/failed_by_c1 are final once absorbed.
  [[nodiscard]] const Trajectory& trajectory() const noexcept {
    return traj_;
  }

  /// Full copyable mid-trajectory state (places, clock, attacker
  /// phase, schedule segment, counters).  restore() on the simulator
  /// that produced it — or any simulator built from the same params —
  /// reproduces the exact continuation distribution.  restore() throws
  /// std::invalid_argument for a seg_idx past the last segment or
  /// counts outside the context's tables.
  struct Snapshot {
    std::int64_t tm = 0;
    std::int64_t ucm = 0;
    std::int64_t ng = 1;
    double now = 0.0;
    bool atk_on = true;
    std::size_t seg_idx = 0;
    Trajectory traj;
    Status status = Status::Running;
  };
  [[nodiscard]] Snapshot snapshot() const;
  void restore(const Snapshot& snap);

 private:
  struct State {
    std::int64_t tm = 0;
    std::int64_t ucm = 0;
    std::int64_t ng = 1;
    [[nodiscard]] std::int64_t members() const { return tm + ucm; }
  };

  [[nodiscard]] bool c2_failed() const;
  /// Makes segment `idx` current and sets the next boundary.
  void enter(std::size_t idx);

  const core::Params* params_;
  const DesContext* ctx_ = nullptr;
  bool static_detector_ = true;
  std::size_t seg_idx_ = 0;
  const DesContext::Segment* seg_ = nullptr;
  double next_boundary_ = 0.0;

  State s_;
  Trajectory traj_;
  double now_ = 0.0;
  bool atk_on_ = true;
  Status status_ = Status::Running;
};

/// Simulates one replication drawing from the given uniform stream —
/// the antithetic-capable entry point: a (plain, flipped) pair of
/// streams over one seed yields an antithetic trajectory pair.
/// Deterministic in (params, stream state); `context` must be built
/// from the same params.
[[nodiscard]] Trajectory simulate_group(const core::Params& params,
                                        RandomSource& draw,
                                        const DesContext& context);

/// Simulates one replication with the given seed and shared context
/// (a plain stream over `seed`; bitwise-identical to the pre-stream
/// code path).  Deterministic in (params, seed).
[[nodiscard]] Trajectory simulate_group(const core::Params& params,
                                        std::uint64_t seed,
                                        const DesContext& context);

/// Convenience single-shot form (builds the context via the memo).
[[nodiscard]] Trajectory simulate_group(const core::Params& params,
                                        std::uint64_t seed);

struct ReplicationResult {
  Summary ttsf;        // over replications
  Summary cost_rate;   // hop-bits/s
  double p_failure_c1 = 0.0;
  /// Raw trajectories — captured only when explicitly requested
  /// (`capture_trajectories`); empty otherwise, so replication runs are
  /// O(1) memory in the replication count.
  std::vector<Trajectory> trajectories;
};

/// Runs `replications` independent trajectories in parallel through the
/// Monte-Carlo engine and summarises with 95% CIs.  Streaming: raw
/// trajectories are only stored when `capture_trajectories` is set.
[[nodiscard]] ReplicationResult run_replications(
    const core::Params& params, std::size_t replications,
    std::uint64_t base_seed, std::size_t threads = 0,
    bool capture_trajectories = false);

/// The seed-era per-point replication loop, kept verbatim as the
/// benchmark/equivalence baseline (bench_mc): a fresh voting table per
/// trajectory, every trajectory stored, two-pass summaries, one
/// parallel_for per call.
[[nodiscard]] ReplicationResult run_replications_reference(
    const core::Params& params, std::size_t replications,
    std::uint64_t base_seed, std::size_t threads = 0);

}  // namespace midas::sim
