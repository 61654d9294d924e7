// Unified Monte-Carlo experiment engine — the simulation-side
// counterpart of core::SweepEngine.  One engine batches DES
// (simulate_group) and protocol-level (run_protocol_sim) replications
// across whole parameter grids:
//
//   1. Common random numbers (CRN): replication r of every sweep point
//      draws from the same SplitMix64 substream (seeds keyed by
//      (point, replication) via derive_seed2; CRN drops the point key),
//      so curve differences between points are positively correlated
//      and their contrasts have variance-reduced estimates.  Antithetic
//      pairs (McOptions::antithetic) layer under this: each replication
//      becomes a plain/flipped trajectory pair over one seed, and the
//      statistics run on pair averages.
//   2. Streaming Welford accumulation (sim::Welford): no stored
//      trajectory vectors — O(1) memory per point regardless of the
//      replication count.  Raw trajectories are opt-in for tests.
//   3. Sequential CI-targeted stopping: replications run in blocks
//      until the 95% half-width of every tracked metric reaches a
//      relative target, so easy points stop early instead of paying the
//      worst point's conservative fixed count.
//   4. One schedule: all (point × block) work items of a round flow
//      through a single sim::parallel_for instead of a pool per point,
//      and per-point contexts (the O(N²) voting table, cost model) are
//      built once per point — not once per trajectory as the seed did.
//
// Results are bitwise deterministic in (options, grid): seeds depend
// only on (point, replication) indices and block partials merge in
// schedule order, so thread count never changes a digit.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/params.h"
#include "sim/des.h"
#include "sim/protocol_sim.h"
#include "sim/rng.h"
#include "sim/stats.h"

namespace midas::sim {

struct McOptions {
  std::uint64_t base_seed = 0x5EED;

  /// Replication schedule: every point starts with `min_replications`,
  /// then grows in multiples of `block` until converged or capped at
  /// `max_replications`.
  std::size_t min_replications = 64;
  std::size_t max_replications = std::size_t{1} << 20;
  std::size_t block = 64;

  /// Sequential stopping target: converged when the 95% CI half-width
  /// of TTSF and of the cost rate are both <= rel_ci_target * mean.
  /// <= 0 disables adaptive stopping (exactly min_replications run).
  double rel_ci_target = 0.05;

  /// Common random numbers: replication r uses the same substream at
  /// every sweep point.  When false each point gets an independent
  /// substream (keyed by its index).
  bool crn = true;

  /// Global index of the first grid point this engine run covers.  A
  /// shard evaluating points [b, e) of a larger grid passes b so the
  /// independent (non-CRN) substream keys match the full-grid run —
  /// under CRN the key drops the point index and this is irrelevant.
  /// core::ExperimentService adds its shard range's begin automatically.
  std::size_t point_stream_offset = 0;

  /// Antithetic pairs: each scheduled replication becomes a PAIR of
  /// trajectories sharing one substream seed — a plain draw stream and
  /// its 1−u flip (sim::UniformStream) — and the engine's sample
  /// statistics (means, CIs, the CI-targeted stopping) run on pair
  /// averages, whose negative within-pair correlation pushes the
  /// estimator variance below the 1/n Monte-Carlo baseline.  Layered
  /// under CRN: pair seeds stay keyed by replication index only, so
  /// contrasts along every grid axis remain variance-reduced as well.
  /// Accepted by every backend — DES grids flip the Gillespie draw
  /// stream, protocol grids the protocol decision stream
  /// (run_protocol_sim's antithetic argument).  With this set,
  /// min/max_replications and block count PAIRS;
  /// McPointResult::replications still reports trajectories (2×).
  bool antithetic = false;

  /// Worker threads for the (point × block) schedule (0 = hardware
  /// concurrency).
  std::size_t threads = 0;

  /// Opt-in raw trajectory capture (tests / variance studies).  Off by
  /// default: summaries stream and nothing is stored per replication.
  bool capture_trajectories = false;

  /// When non-empty, each point also estimates mission reliability
  /// R(t) = P[TTSF > t] at these times (survival indicator means with
  /// CIs) — the simulation cross-check of GcsSpnModel::reliability_at.
  std::vector<double> survival_horizons;

  /// Draw-stream seam for DES grids: when set, run_des builds each
  /// replication's U(0,1) stream through this factory instead of
  /// UniformStream(seed, antithetic).  The factory is keyed exactly
  /// like replication_seed — `stream_key` is the engine's substream id
  /// (0 under CRN, point_stream_offset + point + 1 otherwise) and
  /// `rep` the replication (pair) index — so a factory that derives
  /// its randomisation from (stream_key, rep) inherits CRN semantics
  /// and shard invariance by construction.  The vr subsystem injects
  /// Owen-scrambled Sobol substreams here.  Must be thread-safe
  /// (called concurrently from the engine's workers).  Ignored by
  /// run_protocol.
  std::function<std::unique_ptr<RandomSource>(
      std::uint64_t stream_key, std::size_t rep, bool antithetic)>
      stream_factory;
};

/// Per-point outcome of a grid run.
struct McPointResult {
  /// Sample summaries — over replications, or over pair averages in
  /// antithetic mode (`ttsf.n` then counts pairs).
  Summary ttsf;
  Summary cost_rate;
  /// Raw Welford accumulator states behind `ttsf` / `cost_rate` — the
  /// sharded sweep service serialises THESE (not the derived Summary),
  /// so a shard re-imported elsewhere reproduces its summaries bitwise
  /// and merges associatively with sibling shards.
  WelfordState ttsf_state;
  WelfordState cost_rate_state;
  double p_failure_c1 = 0.0;
  /// Raw trajectory count behind p_failure_c1 (= failures_c1 /
  /// replications).
  std::size_t failures_c1 = 0;
  /// Rare-event-honest interval for the C1-failure proportion: a 95%
  /// Wilson Summary over (failures_c1, replications), flagged
  /// one_sided at 0 or all failures (see sim::binomial_summary).
  /// Derived — recomputed from the raw counts wherever they travel,
  /// never serialised.
  Summary p_failure;
  /// Trajectories simulated for this point (2× `ttsf.n` when
  /// antithetic).
  std::size_t replications = 0;
  /// CI target met before max_replications (vacuously true when
  /// adaptive stopping is disabled).
  bool converged = true;
  /// One Summary per McOptions::survival_horizons entry — a Bernoulli
  /// proportion with a 95% Wilson interval (never zero-width, even
  /// when every replication survives a horizon).
  std::vector<Summary> survival;
  /// Raw survivor counts behind `survival` (per horizon, out of
  /// `replications` trajectories) — serialised in ExperimentResult JSON.
  std::vector<std::size_t> survival_counts;
  /// Filled only when capture_trajectories is set, in replication order.
  std::vector<Trajectory> trajectories;

  // Protocol-sim extras (defaults for DES grids).
  bool keys_always_agreed = true;
  std::size_t timeouts = 0;
};

class MonteCarloEngine {
 public:
  explicit MonteCarloEngine(McOptions opts = {});

  /// DES grid: one result per parameter point.  Per-point contexts
  /// share the process-wide voting-table memo, so a TIDS sweep builds
  /// its table once for the whole grid.
  [[nodiscard]] std::vector<McPointResult> run_des(
      std::span<const core::Params> points);

  /// Single-point convenience.
  [[nodiscard]] McPointResult run_des(const core::Params& point);

  /// Protocol-level grid (packet-level simulator).
  [[nodiscard]] std::vector<McPointResult> run_protocol(
      std::span<const ProtocolSimParams> points);

  /// The seed sample `rep` of sweep point `point` uses — exposed so any
  /// replication is reproducible in isolation with simulate_group /
  /// run_protocol_sim.  In antithetic mode `rep` indexes PAIRS: both
  /// trajectories of pair `rep` share this seed and differ only in the
  /// UniformStream antithetic flag (captured trajectory 2·rep is the
  /// plain member, 2·rep+1 the flipped one).
  [[nodiscard]] std::uint64_t replication_seed(std::size_t point,
                                               std::size_t rep) const;

  struct Stats {
    std::size_t points = 0;        // grid points processed
    std::size_t replications = 0;  // total trajectories simulated
    std::size_t blocks = 0;        // (point × block) work items
    std::size_t rounds = 0;        // parallel_for rounds
    double seconds = 0.0;          // wall clock inside run_*()
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] const McOptions& options() const noexcept { return opts_; }

 private:
  /// One replication outcome, normalised across simulators.
  struct Sample {
    Trajectory traj;
    bool keys_ok = true;
    bool timed_out = false;
  };

  /// `sample(point, rep, seed, antithetic)` runs one trajectory;
  /// run_grid calls it once per sample, or twice per pair (plain +
  /// flipped) in antithetic mode.  `seed` is replication_seed(point,
  /// rep); `rep` rides along so stream factories can re-key.
  template <typename SampleFn>
  std::vector<McPointResult> run_grid(std::size_t num_points,
                                      const SampleFn& sample);

  McOptions opts_;
  Stats stats_;
};

}  // namespace midas::sim
