// Declarative experiment API — ONE spec, pluggable backends, ONE wire
// format.  The paper's evaluation is a single design space answered
// three ways (analytic SPN solution, discrete-event simulation,
// packet-level protocol simulation); this module makes that the shape
// of the code:
//
//   * core::ExperimentSpec is a self-contained, JSON-serialisable
//     description of one experiment: base Params, named grid axes, the
//     backends to answer with, the Monte-Carlo schedule, protocol-sim
//     environment knobs, and an optional shard selection.  A spec file
//     fully determines a worker's job — it is the wire format the
//     sweep_shard / sweep_merge / run_experiment tools speak, and the
//     API a network-facing service would accept.
//   * core::Backend is the small interface every solver implements;
//     AnalyticBackend (batched SweepEngine solve), DesBackend
//     (MonteCarloEngine over simulate_group) and ProtocolSimBackend
//     (MonteCarloEngine over run_protocol_sim) are interchangeable
//     per request — any subset, one pass each.
//   * core::ExperimentService::run(spec) validates, expands the grid,
//     resolves the shard slice, runs every requested backend and
//     returns an ExperimentResult whose JSON form (raw Welford states,
//     round-trip doubles) merges bitwise across shards.
//
// Every struct that crosses the wire has ONE field list (a describe()
// template in JSON key order — core/fields.h): the JSON encoder, the
// decoder and the per-field range checks all walk it, so a field's key,
// position and range are declared once.  Errors name the offending JSON
// path, for specs and results alike, whether the document came from a
// file or was built in code: "ExperimentSpec: spec.base.mu_leave: -1
// must be non-negative", "... result.backends[1].mc[2].ttsf.m2: ...".
// This service is the only code that runs, shards and recombines a
// grid; SweepEngine::evaluate is the analytic primitive underneath it.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/gcs_spn_model.h"
#include "core/grid_spec.h"
#include "core/params.h"
#include "core/shard.h"
#include "core/sweep_engine.h"
#include "manet/mobility.h"
#include "sim/mc_engine.h"
#include "util/json.h"
#include "vr/engine.h"
#include "vr/options.h"

namespace midas::core {

/// The three ways the paper answers a design question.
enum class BackendKind { Analytic, Des, ProtocolSim };

[[nodiscard]] std::string to_string(BackendKind kind);

/// One declarative grid axis.  `param` names either a typed axis
/// ("t_ids", "num_voters", "detection_shape", "attacker_shape") or a
/// registered numeric parameter (see numeric_axis_params()).  Numeric
/// axes carry `values`, categorical axes carry `levels` (shape names).
struct AxisSpec {
  std::string param;
  std::vector<double> values;
  std::vector<std::string> levels;

  bool operator==(const AxisSpec&) const = default;
};

/// Numeric parameters usable as generic grid axes, e.g. "lambda_c",
/// "p1", "host_ids_error" (which sets p1 = p2 jointly).
[[nodiscard]] std::vector<std::string> numeric_axis_params();

/// Which slice of the grid a request covers.  Default: the whole grid.
struct ShardSpec {
  enum class Policy {
    All,          ///< the whole grid (num_shards/shard_index ignored)
    Contiguous,   ///< ShardPlan::contiguous point-balanced split
    ByStructure,  ///< ShardPlan::by_structure exploration-aligned split
    ByPilotCost,  ///< ShardPlan::by_pilot_cost replication-balanced split
    Explicit,     ///< an explicit [begin, end) point range
  };
  Policy policy = Policy::All;
  std::size_t num_shards = 1;
  std::size_t shard_index = 0;
  /// Pilot block size for Policy::ByPilotCost.
  std::size_t pilot_replications = 16;
  /// Policy::Explicit only.
  ShardRange range;

  bool operator==(const ShardSpec&) const = default;
};

[[nodiscard]] std::string to_string(ShardSpec::Policy policy);

/// Environment knobs of the protocol-level simulator — everything in
/// sim::ProtocolSimParams except the per-point model parameters, which
/// the backend fills from the grid point.
struct ProtocolOptions {
  manet::MobilityParams mobility;
  double radio_range_m = 150.0;
  double tick_s = 2.0;
  double topology_refresh_s = 10.0;
  double max_time_s = 3.0e6;
};

/// Knobs of the analytic (SPN) backend.
struct AnalyticOptions {
  /// Grid points per batched solve (SweepEngine::evaluate's width): the
  /// analytic backend chunks same-structure points into batches of this
  /// width and drives the point-major batch kernels.  1 = the scalar
  /// per-point path.  Results do not depend on the width.
  std::size_t batch = kDefaultBatchWidth;
};

/// The declarative experiment request.  JSON schema "midas-experiment-v1":
/// to_json() / from_json() round-trip bitwise (17-significant-digit
/// doubles, non-finite values as flag strings via util::Json::number).
struct ExperimentSpec {
  std::string name;  ///< experiment identifier, e.g. "fig2"
  std::string mode;  ///< free-form config tag, e.g. "smoke"
  Params base;
  std::vector<AxisSpec> axes;
  std::vector<BackendKind> backends{BackendKind::Analytic};
  AnalyticOptions analytic;
  /// Replication schedule for the simulation backends (Des +
  /// ProtocolSim share it — that is the point of one spec).
  sim::McOptions mc;
  /// Variance-reduction layer over the DES backend (Sobol substreams,
  /// analytic control variates, multilevel splitting).  Default-off;
  /// serialised as "vr" INSIDE the "mc" object, and only when enabled,
  /// so pre-existing spec files and their bytes are untouched.  When
  /// enabled, the plain DES replication pass still runs unchanged (its
  /// mc payload stays bitwise identical to a vr-less run) and the vr
  /// estimates ride alongside in BackendRun::vr.
  vr::VrOptions vr;
  ProtocolOptions protocol;
  ShardSpec shard;
  /// Requested metric names (subset of {"mttsf", "ctotal",
  /// "cost_breakdown", "p_failure", "survival"}); empty = all.  The
  /// payload always carries every metric (shard merges need raw
  /// states); consumers use this to choose what to report.
  std::vector<std::string> metrics;

  [[nodiscard]] bool wants(BackendKind kind) const;

  /// The executable grid: every axis resolved against the registry.
  /// Throws std::invalid_argument with the axis path on unknown params.
  [[nodiscard]] GridSpec grid() const;

  /// The point range this spec's shard selection covers on `grid`.
  [[nodiscard]] ShardRange resolve_range(const GridSpec& grid) const;

  /// Full semantic validation; throws std::invalid_argument whose
  /// message names the offending JSON path (e.g. "spec.mc.block").
  void validate() const;

  [[nodiscard]] util::Json to_json() const;
  [[nodiscard]] static ExperimentSpec from_json(const util::Json& j);
};

/// One Monte-Carlo point in its result-payload JSON form (raw Welford
/// states and counts, exactly as ExperimentResult::to_json embeds it).
[[nodiscard]] util::Json mc_point_to_json(const sim::McPointResult& r);

/// One backend's answer for the spec's point slice: `evals` for
/// Analytic, `mc` for Des/ProtocolSim — both indexed relative to the
/// slice (entry i answers grid point range.begin + i).
struct BackendRun {
  BackendKind kind = BackendKind::Analytic;
  std::vector<Evaluation> evals;
  std::vector<sim::McPointResult> mc;
  /// Variance-reduction estimates (Des backend with spec.mc.vr
  /// enabled): entry i answers grid point range.begin + i, exactly
  /// like `mc`.  Empty otherwise; the "vr" JSON key is emitted only
  /// when non-empty, keeping pre-vr result bytes stable.  Carries no
  /// timing fields — it participates in the canonical payload
  /// identity as-is.
  std::vector<vr::VrPointResult> vr;
  sim::MonteCarloEngine::Stats mc_stats;
  double seconds = 0.0;  ///< wall clock inside this backend
};

/// The unified answer: per-point results keyed by backend.  Its JSON
/// form ("midas-experiment-result-v1") embeds the spec (shard selection
/// normalised to the whole grid, so sibling shards compare equal) plus
/// this slice's range — the wire format sweep_shard emits and
/// sweep_merge recombines bitwise.
struct ExperimentResult {
  ExperimentSpec spec;
  ShardRange range;
  std::size_t num_shards = 1;
  std::size_t shard_index = 0;
  std::string shard_policy = "all";
  std::vector<BackendRun> backends;

  /// nullptr when the backend was not requested.
  [[nodiscard]] const BackendRun* find(BackendKind kind) const;
  /// Throws std::invalid_argument naming the backend when absent.
  [[nodiscard]] const BackendRun& at(BackendKind kind) const;

  [[nodiscard]] util::Json to_json() const;
  [[nodiscard]] static ExperimentResult from_json(const util::Json& j);

  /// to_json() with every execution-topology field zeroed (backend
  /// seconds, mc_stats.seconds, mc_stats.rounds — scheduling batches
  /// depend on how many points one engine run held) — the
  /// payload-identity form.  Those are the ONLY legitimately
  /// run-dependent contents of a result, so two runs of the same spec
  /// are byte-identical here iff their payloads are: the fleet
  /// coordinator dedupes duplicate shard completions by this form, and
  /// the soak gate byte-compares fleet merges against single-process
  /// runs with it.
  [[nodiscard]] util::Json canonical_json() const;
};

/// Recombines a complete shard set into the whole-grid result: specs
/// must be identical (bitwise JSON), backend sets equal, shard indices
/// distinct, and the ranges must tile the grid exactly.  Per-point
/// payloads are placed, never re-accumulated, so the merged result is
/// bitwise the single-process run.  Throws std::invalid_argument
/// naming the first violation.
[[nodiscard]] ExperimentResult merge_experiment_results(
    std::span<const ExperimentResult> parts);

/// One solver behind the service.  Implementations must answer the
/// point slice independently of which shard runs it (the merge
/// invariant): MC substream keys are global (point_stream_offset),
/// analytic solves are per-point.
class Backend {
 public:
  virtual ~Backend() = default;
  [[nodiscard]] virtual BackendKind kind() const = 0;
  [[nodiscard]] virtual BackendRun run(const ExperimentSpec& spec,
                                       const GridSpec& grid,
                                       std::span<const Params> points,
                                       ShardRange range) = 0;
};

struct ExperimentServiceOptions {
  /// Worker threads for every backend (0 = hardware concurrency).
  /// A non-zero spec.mc.threads takes precedence for the simulation
  /// backends of that request.
  std::size_t threads = 0;
};

/// The one entry point: run(spec) → ExperimentResult.  Holds the
/// analytic SweepEngine (structure cache shared across requests — a
/// figure grid and its validation grid explore once) and the three
/// built-in backends.
class ExperimentService {
 public:
  explicit ExperimentService(ExperimentServiceOptions opts = {});
  ~ExperimentService();
  ExperimentService(const ExperimentService&) = delete;
  ExperimentService& operator=(const ExperimentService&) = delete;

  [[nodiscard]] ExperimentResult run(const ExperimentSpec& spec);

  /// The analytic engine behind BackendKind::Analytic (stats, and
  /// structure warm-up before timed requests).
  [[nodiscard]] SweepEngine& sweep_engine() noexcept { return engine_; }

 private:
  SweepEngine engine_;
  std::vector<std::unique_ptr<Backend>> backends_;
};

}  // namespace midas::core
