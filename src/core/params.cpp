#include "core/params.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace midas::core {

namespace {

/// The constant effective Params of one timeline segment: mission-phase
/// overrides (absolute, NaN/empty = inherit), then schedule multipliers
/// (×1.0 is IEEE-exact, so identity segments keep every rate bitwise).
/// The result's own schedule/mission are cleared — it describes ONE
/// homogeneous piece.
Params effective_params(const Params& base, const MissionPhase* phase,
                        const RateMultipliers& mult) {
  Params p = base;
  p.schedule = RateSchedule{};
  p.mission = MissionProfile{};
  if (phase != nullptr) {
    if (!std::isnan(phase->t_ids)) p.t_ids = phase->t_ids;
    if (!std::isnan(phase->lambda_c)) p.lambda_c = phase->lambda_c;
    if (!std::isnan(phase->lambda_q)) p.lambda_q = phase->lambda_q;
    if (!std::isnan(phase->p1)) p.p1 = phase->p1;
    if (!std::isnan(phase->p2)) p.p2 = phase->p2;
    if (!phase->detection_shape.empty()) {
      p.detection_shape = ids::shape_from_string(phase->detection_shape);
    }
    if (!phase->attacker_shape.empty()) {
      p.attacker_shape = ids::shape_from_string(phase->attacker_shape);
    }
  }
  p.lambda_c *= mult.lambda_c;
  p.t_ids *= mult.t_ids;
  p.lambda_q *= mult.lambda_q;
  for (double& r : p.partition_rates) r *= mult.partition;
  for (double& r : p.merge_rates) r *= mult.merge;
  return p;
}

}  // namespace

std::string to_string(AttackerProgress p) {
  return p == AttackerProgress::CampaignProgress ? "campaign_progress"
                                                 : "compromise_ratio";
}

AttackerProgress attacker_progress_from_string(const std::string& name) {
  if (name == "compromise_ratio") return AttackerProgress::CompromiseRatio;
  if (name == "campaign_progress") return AttackerProgress::CampaignProgress;
  throw std::invalid_argument(
      "unknown attacker progress '" + name +
      "' (expected compromise_ratio | campaign_progress)");
}

Params Params::paper_defaults() {
  Params p;
  // Population/workload/attacker/IDS members already carry the paper's
  // Section 5 defaults as in-class initialisers.  What remains is the
  // network shape: hop/degree values match MANET measurements for the
  // paper's operational area (disc of radius 500 m, 100 nodes, 150 m
  // radio range — run examples/manet_simulation to regenerate), and the
  // partition/merge rates are representative of slow (pedestrian)
  // mobility, where regrouping is an occasional event.  For
  // vehicle-speed mobility the measured rates are ~20x higher — see
  // bench/abl_partition, which feeds fully measured dynamics through
  // Params::apply_mobility_estimate and shows the security metrics move
  // by <10%.
  p.cost.mean_hops = 3.2;
  p.cost.mean_degree = 8.5;
  p.cost.bandwidth_bps = 1e6;
  p.cost.sync_rekey_params();

  p.max_groups = 3;
  p.partition_rates = {0.0, 2.5e-3, 1.2e-3, 0.0};
  p.merge_rates = {0.0, 0.0, 1.4e-2, 2.0e-2};
  return p;
}

void Params::apply_mobility_estimate(const manet::PartitionEstimate& est) {
  cost.mean_hops = std::max(est.mean_hops, 1.0);
  cost.mean_degree = std::max(est.mean_degree, 1.0);
  cost.sync_rekey_params();

  max_groups = static_cast<std::int32_t>(
      std::max<std::size_t>(est.max_groups_seen, 1));
  partition_rates.assign(static_cast<std::size_t>(max_groups) + 1, 0.0);
  merge_rates.assign(static_cast<std::size_t>(max_groups) + 1, 0.0);
  for (std::int32_t g = 1; g <= max_groups; ++g) {
    partition_rates[static_cast<std::size_t>(g)] =
        est.partition_rate_at(static_cast<std::size_t>(g));
    merge_rates[static_cast<std::size_t>(g)] =
        est.merge_rate_at(static_cast<std::size_t>(g));
  }
}

void Params::validate() const {
  Checker checker("Params: ", FieldPath());
  describe(checker, *this);  // every single-field range, by name
  detector.validate();  // throws "detector.<field>: ..."
  attacker.validate();  // throws "attacker.<field>: ..."
  if (max_groups > 1) {
    if (partition_rates.size() <
            static_cast<std::size_t>(max_groups) + 1 ||
        merge_rates.size() < static_cast<std::size_t>(max_groups) + 1) {
      throw std::invalid_argument(
          "Params: partition/merge rate tables must cover 0..max_groups");
    }
  }
  schedule.validate("Params: schedule");  // "Params: schedule.segments[i]..."
  mission.validate("Params: mission");
  if (time_varying()) {
    // Every resolved segment must itself be a valid constant
    // parameterisation (segment params carry no schedule/mission, so
    // this cannot recurse).
    for (const auto& seg : resolve_timeline(*this)) {
      try {
        seg.params.validate();
      } catch (const std::exception& e) {
        throw std::invalid_argument("Params: timeline segment '" +
                                    seg.label + "': " + e.what());
      }
    }
  }
}

std::vector<double> timeline_starts(const Params& base) {
  // t = 0 plus the union of mission and schedule breakpoints (sorted,
  // exact-duplicate boundaries collapse).
  std::vector<double> bounds{0.0};
  for (const double t : base.mission.breakpoints()) bounds.push_back(t);
  for (const double t : base.schedule.breakpoints()) bounds.push_back(t);
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
  return bounds;
}

std::vector<TimelineSegment> resolve_timeline(const Params& base) {
  const std::vector<double> bounds = timeline_starts(base);
  std::vector<TimelineSegment> out;
  out.reserve(bounds.size());
  for (const double start : bounds) {
    const MissionPhase* phase =
        base.mission.empty() ? nullptr : &base.mission.at(start);
    static const RateMultipliers kIdentity{};
    const RateMultipliers& mult =
        base.schedule.empty() ? kIdentity : base.schedule.at(start).mult;
    TimelineSegment seg;
    seg.start_s = start;
    if (phase != nullptr && !phase->name.empty()) seg.label = phase->name;
    if (!base.schedule.empty() && !base.schedule.at(start).name.empty()) {
      if (!seg.label.empty()) seg.label += "/";
      seg.label += base.schedule.at(start).name;
    }
    if (seg.label.empty()) seg.label = "t>=" + std::to_string(start);
    seg.params = effective_params(base, phase, mult);
    out.push_back(std::move(seg));
  }
  return out;
}

}  // namespace midas::core
