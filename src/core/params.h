// Model parameters — one struct holding every knob of the paper's
// Section 5 evaluation, with paper_defaults() reproducing that setup.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/fields.h"
#include "core/schedule.h"
#include "gcs/cost_model.h"
#include "ids/detector_model.h"
#include "ids/functions.h"
#include "manet/partition_estimator.h"
#include "sim/attacker_model.h"

namespace midas::core {

/// How the attacker-strength argument mc is measured (see DESIGN.md).
/// The paper's formula and prose disagree subtly:
///   * CompromiseRatio — the printed formula mc = (Tm+UCm)/Tm.  Because
///     condition C2 absorbs the chain once UCm/(Tm+UCm) > 1/3, this
///     ratio is confined to [1, 1.5]: attacker shapes barely
///     differentiate.
///   * CampaignProgress — the prose reading ("rate linear to the number
///     of compromised nodes in the system"): mc = 1 + UCm + DCm, the
///     attacker's cumulative campaign, which escalates over the mission
///     and separates the three attacker shapes sharply.
enum class AttackerProgress { CompromiseRatio, CampaignProgress };

/// "compromise_ratio" | "campaign_progress".
[[nodiscard]] std::string to_string(AttackerProgress p);
/// Inverse of to_string; throws std::invalid_argument on unknown names.
[[nodiscard]] AttackerProgress attacker_progress_from_string(
    const std::string& name);

struct Params {
  // --- Group population and workload (paper Section 5 defaults).
  std::int32_t n_init = 100;           // N: initial trusted members
  double lambda_join = 1.0 / 3600.0;   // λ: per-node join rate (1/hr)
  double mu_leave = 1.0 / 14400.0;     // μ: per-node leave rate (1/4hr)
  double lambda_q = 1.0 / 60.0;        // λq: per-node data rate (1/min)

  // --- Inside attacker.
  ids::Shape attacker_shape = ids::Shape::Linear;
  double lambda_c = 1.0 / 43200.0;     // λc: base compromise rate (1/12hr)
  double p_index = 3.0;                // p: base index for log/poly shapes
  AttackerProgress attacker_progress = AttackerProgress::CompromiseRatio;
  /// Inter-compromise arrival structure around the base rate A(mc).
  /// Default poisson == the paper's process; see sim/attacker_model.h.
  sim::AttackerModel attacker;

  // --- Intrusion detection.
  ids::Shape detection_shape = ids::Shape::Linear;
  double t_ids = 120.0;                // TIDS: base detection interval (s)
  std::int64_t num_voters = 5;         // m: vote-participants
  double p1 = 0.01;                    // host-IDS false negative
  double p2 = 0.01;                    // host-IDS false positive
  /// Host-IDS error model turning (p1,p2) into state-dependent
  /// effective rates.  Default static == the paper's constants; see
  /// ids/detector_model.h.
  ids::DetectorModel detector;

  // --- Security failure definition.
  // C2 trips when UCm/(Tm+UCm) > byzantine_fraction (paper: 1/3).
  double byzantine_fraction = 1.0 / 3.0;

  // --- Group partition/merge (birth–death on the group count).
  // partition_rates[g] is the g → g+1 rate; merge_rates[g] is g → g−1.
  // Defaults are measured from the MANET random-waypoint simulator (see
  // Params::paper_defaults and bench/abl_partition).
  std::int32_t max_groups = 3;
  std::vector<double> partition_rates;
  std::vector<double> merge_rates;

  // --- Communication cost model.
  gcs::CostParams cost;

  // --- Time-inhomogeneous dynamics (see core/schedule.h).  Both empty
  // by default: the legacy constant model.  At any instant the
  // effective point is base + mission-phase overrides, then schedule
  // multipliers; resolve_timeline() materialises the piecewise-constant
  // segments every backend chains over.
  RateSchedule schedule;
  MissionProfile mission;

  /// True when the params carry ANY schedule/mission structure (even a
  /// constant one) and must be resolved through resolve_timeline()
  /// before reaching a constant-rate consumer such as GcsSpnModel.
  [[nodiscard]] bool time_varying() const noexcept {
    return !schedule.empty() || !mission.empty();
  }

  /// Paper Section 5 defaults: N=100, radius 500 m, λ=1/hr, μ=1/4hr,
  /// λq=1/min, λc=1/12hr, p1=p2=1 %, BW=1 Mb/s, m=5, p=3, linear
  /// attacker and detection.
  [[nodiscard]] static Params paper_defaults();

  /// Imports mobility-derived quantities (partition/merge rates, hop
  /// counts, degree) from a MANET simulation estimate.
  void apply_mobility_estimate(const manet::PartitionEstimate& est);

  /// Sanity checks; throws std::invalid_argument naming the field
  /// ("Params: mu_leave: -1 must be non-negative").  Single-field ranges
  /// come from the field list below; for time-varying params every
  /// resolved timeline segment must itself be a valid constant
  /// parameterisation.
  void validate() const;
};

// --- Field lists (core/fields.h): JSON key order, one line per field.

template <class Io, Of<sim::AttackerModel> A>
void describe(Io& io, A& a) {
  io.field("kind", a.kind, sim::attacker_kind_from_string);
  io.field("burst_on_s", a.burst_on_s);
  io.field("burst_off_s", a.burst_off_s);
  io.field("batch", a.batch);
}

template <class Io, Of<ids::DetectorModel> D>
void describe(Io& io, D& d) {
  io.field("kind", d.kind, ids::detector_kind_from_string);
  io.field("entropy_weight", d.entropy_weight);
  io.field("cusum_gain", d.cusum_gain);
  io.field("cusum_drift", d.cusum_drift);
  io.field("cusum_threshold", d.cusum_threshold);
  io.field("cusum_alarm_factor", d.cusum_alarm_factor);
  io.field("logistic_bias", d.logistic_bias);
  io.field("logistic_compromise_weight", d.logistic_compromise_weight);
  io.field("logistic_time_weight", d.logistic_time_weight);
}

template <class Io, Of<crypto::RekeyCostParams> R>
void describe(Io& io, R& r) {
  io.field("key_element_bits", r.key_element_bits);
  io.field("mean_hops", r.mean_hops);
  io.field("bandwidth_bps", r.bandwidth_bps);
}

template <class Io, Of<gcs::CostParams> C>
void describe(Io& io, C& c) {
  io.field("data_packet_bits", c.data_packet_bits);
  io.field("status_packet_bits", c.status_packet_bits);
  io.field("vote_packet_bits", c.vote_packet_bits);
  io.field("beacon_bits", c.beacon_bits);
  io.field("status_exchange_rate", c.status_exchange_rate);
  io.field("beacon_rate", c.beacon_rate);
  io.field("mean_hops", c.mean_hops);
  io.field("mean_degree", c.mean_degree);
  io.field("bandwidth_bps", c.bandwidth_bps);
  io.field("rekey", c.rekey);
}

template <class Io, Of<ScheduleSegment> S>
void describe(Io& io, S& s) {
  io.field("name", s.name);
  io.field("duration_s", s.duration_s);
  io.field("lambda_c", s.mult.lambda_c);
  io.field("t_ids", s.mult.t_ids);
  io.field("lambda_q", s.mult.lambda_q);
  io.field("partition", s.mult.partition);
  io.field("merge", s.mult.merge);
}

template <class Io, Of<RateSchedule> S>
void describe(Io& io, S& s) {
  io.field("segments", s.segments);
}

template <class Io, Of<MissionPhase> P>
void describe(Io& io, P& p) {
  io.field("name", p.name);
  io.field("duration_s", p.duration_s);
  io.field("t_ids", p.t_ids);
  io.field("lambda_c", p.lambda_c);
  io.field("lambda_q", p.lambda_q);
  io.field("p1", p.p1);
  io.field("p2", p.p2);
  io.field("detection_shape", p.detection_shape);
  io.field("attacker_shape", p.attacker_shape);
}

template <class Io, Of<MissionProfile> M>
void describe(Io& io, M& m) {
  io.field("phases", m.phases);
}

template <class Io, Of<Params> P>
void describe(Io& io, P& p) {
  io.field("n_init", p.n_init, at_least_two);
  io.field("lambda_join", p.lambda_join, nonnegative);
  io.field("mu_leave", p.mu_leave, nonnegative);
  io.field("lambda_q", p.lambda_q, nonnegative);
  io.field("attacker_shape", p.attacker_shape, ids::shape_from_string);
  io.field("lambda_c", p.lambda_c, nonnegative);
  io.field("p_index", p.p_index, above_one);
  io.field("attacker_progress", p.attacker_progress,
           attacker_progress_from_string);
  // The model descriptors carry every knob whatever the kind, so
  // canonical round-trips stay byte-stable across kind changes.
  io.field("attacker", p.attacker);
  io.field("detection_shape", p.detection_shape, ids::shape_from_string);
  io.field("t_ids", p.t_ids, positive);
  io.field("num_voters", p.num_voters, positive);
  io.field("p1", p.p1, unit_interval);
  io.field("p2", p.p2, unit_interval);
  io.field("detector", p.detector);
  io.field("byzantine_fraction", p.byzantine_fraction, open_unit_interval);
  io.field("max_groups", p.max_groups, positive);
  io.field("partition_rates", p.partition_rates);
  io.field("merge_rates", p.merge_rates);
  io.field("cost", p.cost);
  // Always written (empty for the constant model), yet optional on
  // read: documents that predate them carry neither.
  bool always = true;
  io.optional("schedule", always, p.schedule);
  io.optional("mission", always, p.mission);
}

/// One constant piece of a time-varying parameterisation: from start_s
/// until the next segment's start (the last extends forever), the
/// process runs the time-homogeneous chain of `params` — whose own
/// schedule/mission fields are cleared, so a segment is always safe to
/// hand to a constant-rate consumer.
struct TimelineSegment {
  double start_s = 0.0;
  std::string label;  ///< "phase/segment" names for error messages
  Params params;
};

/// Start times of the resolved segments: 0 plus every mission and
/// schedule breakpoint, ascending and without duplicates.  One entry
/// for constant params.
[[nodiscard]] std::vector<double> timeline_starts(const Params& base);

/// Resolves base + mission + schedule into ordered constant segments:
/// boundaries are the union of mission-phase and schedule breakpoints,
/// and each segment's params apply the active phase's overrides then
/// the active segment's multipliers.  Exactly one segment (bitwise the
/// base rates) when the variation is constant — including the empty
/// and the single-identity-segment cases, since ×1.0 is IEEE-exact.
[[nodiscard]] std::vector<TimelineSegment> resolve_timeline(
    const Params& base);

}  // namespace midas::core
