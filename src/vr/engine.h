// The variance-reduction estimation layer: sits between the experiment
// API (the Des backend) and sim::MonteCarloEngine, running whichever
// estimators the `spec.mc.vr` block enables ALONGSIDE the plain
// replication pass — the plain pass's results stay bitwise identical
// whether or not this layer runs, because every estimator here draws
// from its own tagged seed domain (splitmix64(base_seed ^ tag)) and
// never touches the plain streams.
//
// Determinism contract (matching the engine's): results depend only on
// (options, grid, base seed, point_stream_offset) — never on thread
// count — and a shard evaluating a sub-range with the offset set
// reproduces the full-grid numbers for its points.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/gcs_spn_model.h"
#include "core/params.h"
#include "sim/mc_engine.h"
#include "sim/stats.h"
#include "vr/control_variate.h"
#include "vr/options.h"
#include "vr/splitting.h"

namespace midas::vr {

/// Randomised-QMC result for one point: the mean/CI over R
/// independently scrambled replicate groups.
struct SobolResult {
  std::size_t replicates = 0;
  std::size_t samples_per_replicate = 0;
  /// Student-t summaries OVER REPLICATE MEANS (n = replicates); the
  /// QMC point sets within a group are not i.i.d., so only the
  /// randomisation level carries a valid variance estimate.
  sim::Summary ttsf;
  sim::Summary cost_rate;
  /// Raw replicate means (serialised so the summaries rebuild bitwise
  /// after a round-trip).
  std::vector<double> ttsf_means;
  std::vector<double> cost_rate_means;
};

/// Per-point outcome of the vr layer; `has_*` mirrors which estimators
/// the options enabled (all false = the layer did not run).
struct VrPointResult {
  bool has_sobol = false;
  bool has_cv = false;
  bool has_splitting = false;
  SobolResult sobol;
  CvResult cv;
  SplittingResult splitting;
};

/// Runs the enabled estimators over a DES parameter grid.  `mc` must be
/// the SAME engine options the plain replication pass used (including
/// the shard-effective point_stream_offset), so the vr seed domains and
/// stream keys line up with the full-grid run.  `exact` holds each
/// point's analytic Evaluation (cv's exact control means); with cv on,
/// a size other than points.size() throws std::invalid_argument.
/// Throws what the underlying engines throw (invalid params).
[[nodiscard]] std::vector<VrPointResult> run_vr(
    const VrOptions& vr, const sim::McOptions& mc,
    std::span<const core::Params> points,
    std::span<const core::Evaluation> exact);

}  // namespace midas::vr
