#include "core/experiment.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/mission.h"
#include "ids/functions.h"
#include "sim/protocol_sim.h"
#include "sim/thread_pool.h"
#include "util/stopwatch.h"

namespace midas::core {

namespace {

constexpr const char* kSpecFormat = "midas-experiment-v1";
constexpr const char* kResultFormat = "midas-experiment-result-v1";

/// Validation / parse failure carrying the JSON path of the offender.
[[noreturn]] void fail(const std::string& path, const std::string& msg) {
  throw std::invalid_argument("ExperimentSpec: " + path + ": " + msg);
}

/// Integral sizes travel as JSON numbers; doubles above 2^53 would stop
/// round-tripping exactly, so they are rejected at serialisation time.
util::Json json_size(std::uint64_t v, const std::string& path) {
  if (v > (std::uint64_t{1} << 53)) {
    fail(path, "integer " + std::to_string(v) +
                   " exceeds the 2^53 JSON-exact range");
  }
  return util::Json(static_cast<double>(v));
}

/// Path-carrying cursor over a JSON object: every accessor failure
/// names the full path of the offending field.
struct Reader {
  const util::Json& j;
  std::string path;

  [[nodiscard]] const util::Json& at(const std::string& key) const {
    if (j.type() != util::Json::Type::Object) {
      fail(path, "expected an object");
    }
    const util::Json* f = j.find(key);
    if (f == nullptr) fail(path + "." + key, "missing required field");
    return *f;
  }
  [[nodiscard]] Reader child(const std::string& key) const {
    return {at(key), path + "." + key};
  }
  [[nodiscard]] double number(const std::string& key) const {
    try {
      return at(key).to_double();
    } catch (const std::exception& e) {
      fail(path + "." + key, e.what());
    }
  }
  [[nodiscard]] std::size_t size(const std::string& key) const {
    try {
      return at(key).as_size();
    } catch (const std::exception& e) {
      fail(path + "." + key, e.what());
    }
  }
  [[nodiscard]] bool boolean(const std::string& key) const {
    try {
      return at(key).as_bool();
    } catch (const std::exception& e) {
      fail(path + "." + key, e.what());
    }
  }
  [[nodiscard]] const std::string& str(const std::string& key) const {
    try {
      return at(key).as_string();
    } catch (const std::exception& e) {
      fail(path + "." + key, e.what());
    }
  }
  [[nodiscard]] std::vector<double> numbers(const std::string& key) const {
    const auto& arr = at(key);
    if (arr.type() != util::Json::Type::Array) {
      fail(path + "." + key, "expected an array");
    }
    std::vector<double> out;
    out.reserve(arr.size());
    for (std::size_t i = 0; i < arr.size(); ++i) {
      try {
        out.push_back(arr.at(i).to_double());
      } catch (const std::exception& e) {
        fail(path + "." + key + "[" + std::to_string(i) + "]", e.what());
      }
    }
    return out;
  }
  [[nodiscard]] std::vector<std::string> strings(
      const std::string& key) const {
    const auto& arr = at(key);
    if (arr.type() != util::Json::Type::Array) {
      fail(path + "." + key, "expected an array");
    }
    std::vector<std::string> out;
    out.reserve(arr.size());
    for (std::size_t i = 0; i < arr.size(); ++i) {
      try {
        out.push_back(arr.at(i).as_string());
      } catch (const std::exception& e) {
        fail(path + "." + key + "[" + std::to_string(i) + "]", e.what());
      }
    }
    return out;
  }
};

util::Json numbers_to_json(std::span<const double> values) {
  auto arr = util::Json::array();
  for (const double v : values) arr.push_back(util::Json::number(v));
  return arr;
}

// --- spec.mc.vr codec. ------------------------------------------------
// Canonical key order; emitted only when vr.any() (so pre-vr spec bytes
// never change) and OPTIONAL on read (pre-vr spec files and embedded
// golden specs keep parsing).  Disabled sub-blocks are omitted for the
// same byte-stability reason.

util::Json vr_options_to_json(const vr::VrOptions& v) {
  auto j = util::Json::object();
  if (v.sobol.enabled) {
    auto s = util::Json::object();
    s.set("replicates", json_size(v.sobol.replicates,
                                  "spec.mc.vr.sobol.replicates"));
    s.set("samples_per_replicate",
          json_size(v.sobol.samples_per_replicate,
                    "spec.mc.vr.sobol.samples_per_replicate"));
    j.set("sobol", std::move(s));
  }
  if (v.cv.enabled) {
    auto c = util::Json::object();
    c.set("pilot", json_size(v.cv.pilot, "spec.mc.vr.cv.pilot"));
    c.set("replications",
          json_size(v.cv.replications, "spec.mc.vr.cv.replications"));
    j.set("cv", std::move(c));
  }
  if (v.splitting.enabled) {
    auto s = util::Json::object();
    s.set("target", util::Json(v.splitting.target));
    auto levels = util::Json::array();
    for (const std::int64_t t : v.splitting.levels) {
      levels.push_back(json_size(static_cast<std::uint64_t>(t),
                                 "spec.mc.vr.splitting.levels"));
    }
    s.set("levels", std::move(levels));
    s.set("scheme", util::Json(v.splitting.scheme));
    s.set("effort",
          json_size(v.splitting.effort, "spec.mc.vr.splitting.effort"));
    s.set("splitting_factor",
          json_size(v.splitting.splitting_factor,
                    "spec.mc.vr.splitting.splitting_factor"));
    s.set("replicates", json_size(v.splitting.replicates,
                                  "spec.mc.vr.splitting.replicates"));
    j.set("splitting", std::move(s));
  }
  return j;
}

vr::VrOptions vr_options_from_json(const util::Json& j,
                                   const std::string& path) {
  const Reader r{j, path};
  vr::VrOptions v;
  if (j.type() != util::Json::Type::Object) fail(path, "expected an object");
  if (j.find("sobol") != nullptr) {
    const Reader s = r.child("sobol");
    v.sobol.enabled = true;
    v.sobol.replicates = s.size("replicates");
    v.sobol.samples_per_replicate = s.size("samples_per_replicate");
  }
  if (j.find("cv") != nullptr) {
    const Reader c = r.child("cv");
    v.cv.enabled = true;
    v.cv.pilot = c.size("pilot");
    v.cv.replications = c.size("replications");
  }
  if (j.find("splitting") != nullptr) {
    const Reader s = r.child("splitting");
    v.splitting.enabled = true;
    v.splitting.target = s.str("target");
    v.splitting.levels.clear();
    const auto& levels = s.at("levels");
    if (levels.type() != util::Json::Type::Array) {
      fail(path + ".splitting.levels", "expected an array");
    }
    for (std::size_t i = 0; i < levels.size(); ++i) {
      try {
        v.splitting.levels.push_back(
            static_cast<std::int64_t>(levels.at(i).as_size()));
      } catch (const std::exception& e) {
        fail(path + ".splitting.levels[" + std::to_string(i) + "]",
             e.what());
      }
    }
    v.splitting.scheme = s.str("scheme");
    v.splitting.effort = s.size("effort");
    v.splitting.splitting_factor = s.size("splitting_factor");
    v.splitting.replicates = s.size("replicates");
  }
  return v;
}

// --- Schedule / mission codecs. ---------------------------------------
// Both fields are always serialised (empty arrays for the constant
// model) so canonical spec documents stay byte-stable; on read they are
// OPTIONAL, keeping every pre-PR-9 spec file parseable.  Non-finite
// values (the last segment's infinite duration, NaN inherit-overrides)
// travel via util::Json::number's "inf"/"nan" string encoding, which
// to_double() reverses exactly.

util::Json schedule_to_json(const RateSchedule& s) {
  auto j = util::Json::object();
  auto segments = util::Json::array();
  for (const auto& seg : s.segments) {
    auto o = util::Json::object();
    o.set("name", util::Json(seg.name));
    o.set("duration_s", util::Json::number(seg.duration_s));
    o.set("lambda_c", util::Json::number(seg.mult.lambda_c));
    o.set("t_ids", util::Json::number(seg.mult.t_ids));
    o.set("lambda_q", util::Json::number(seg.mult.lambda_q));
    o.set("partition", util::Json::number(seg.mult.partition));
    o.set("merge", util::Json::number(seg.mult.merge));
    segments.push_back(std::move(o));
  }
  j.set("segments", std::move(segments));
  return j;
}

RateSchedule schedule_from_json(const util::Json& j,
                                const std::string& path) {
  const Reader r{j, path};
  const auto& arr = r.at("segments");
  if (arr.type() != util::Json::Type::Array) {
    fail(path + ".segments", "expected an array");
  }
  RateSchedule s;
  s.segments.reserve(arr.size());
  for (std::size_t i = 0; i < arr.size(); ++i) {
    const Reader seg{arr.at(i),
                     path + ".segments[" + std::to_string(i) + "]"};
    ScheduleSegment out;
    out.name = seg.str("name");
    out.duration_s = seg.number("duration_s");
    out.mult.lambda_c = seg.number("lambda_c");
    out.mult.t_ids = seg.number("t_ids");
    out.mult.lambda_q = seg.number("lambda_q");
    out.mult.partition = seg.number("partition");
    out.mult.merge = seg.number("merge");
    s.segments.push_back(std::move(out));
  }
  return s;
}

util::Json mission_to_json(const MissionProfile& m) {
  auto j = util::Json::object();
  auto phases = util::Json::array();
  for (const auto& ph : m.phases) {
    auto o = util::Json::object();
    o.set("name", util::Json(ph.name));
    o.set("duration_s", util::Json::number(ph.duration_s));
    o.set("t_ids", util::Json::number(ph.t_ids));
    o.set("lambda_c", util::Json::number(ph.lambda_c));
    o.set("lambda_q", util::Json::number(ph.lambda_q));
    o.set("p1", util::Json::number(ph.p1));
    o.set("p2", util::Json::number(ph.p2));
    o.set("detection_shape", util::Json(ph.detection_shape));
    o.set("attacker_shape", util::Json(ph.attacker_shape));
    phases.push_back(std::move(o));
  }
  j.set("phases", std::move(phases));
  return j;
}

MissionProfile mission_from_json(const util::Json& j,
                                 const std::string& path) {
  const Reader r{j, path};
  const auto& arr = r.at("phases");
  if (arr.type() != util::Json::Type::Array) {
    fail(path + ".phases", "expected an array");
  }
  MissionProfile m;
  m.phases.reserve(arr.size());
  for (std::size_t i = 0; i < arr.size(); ++i) {
    const Reader ph{arr.at(i), path + ".phases[" + std::to_string(i) + "]"};
    MissionPhase out;
    out.name = ph.str("name");
    out.duration_s = ph.number("duration_s");
    out.t_ids = ph.number("t_ids");
    out.lambda_c = ph.number("lambda_c");
    out.lambda_q = ph.number("lambda_q");
    out.p1 = ph.number("p1");
    out.p2 = ph.number("p2");
    out.detection_shape = ph.str("detection_shape");
    out.attacker_shape = ph.str("attacker_shape");
    m.phases.push_back(std::move(out));
  }
  return m;
}

// --- Enum codecs. -----------------------------------------------------

ids::Shape shape_from(const std::string& name, const std::string& path) {
  try {
    return ids::shape_from_string(name);
  } catch (const std::exception&) {
    fail(path, "unknown shape '" + name +
                   "' (expected logarithmic | linear | polynomial)");
  }
}

std::string progress_name(AttackerProgress p) {
  return p == AttackerProgress::CampaignProgress ? "campaign_progress"
                                                 : "compromise_ratio";
}

AttackerProgress progress_from(const std::string& name,
                               const std::string& path) {
  if (name == "compromise_ratio") return AttackerProgress::CompromiseRatio;
  if (name == "campaign_progress") return AttackerProgress::CampaignProgress;
  fail(path, "unknown attacker progress '" + name +
                 "' (expected compromise_ratio | campaign_progress)");
}

BackendKind backend_from(const std::string& name, const std::string& path) {
  if (name == "analytic") return BackendKind::Analytic;
  if (name == "des") return BackendKind::Des;
  if (name == "protocol_sim") return BackendKind::ProtocolSim;
  fail(path, "unknown backend '" + name +
                 "' (expected analytic | des | protocol_sim)");
}

ShardSpec::Policy policy_from(const std::string& name,
                              const std::string& path) {
  if (name == "all") return ShardSpec::Policy::All;
  if (name == "contiguous") return ShardSpec::Policy::Contiguous;
  if (name == "by_structure") return ShardSpec::Policy::ByStructure;
  if (name == "by_pilot_cost") return ShardSpec::Policy::ByPilotCost;
  if (name == "explicit") return ShardSpec::Policy::Explicit;
  fail(path, "unknown shard policy '" + name +
                 "' (expected all | contiguous | by_structure | "
                 "by_pilot_cost | explicit)");
}

/// The metric names a spec may request.
const std::vector<std::string>& known_metrics() {
  static const std::vector<std::string> kMetrics{
      "mttsf", "ctotal", "cost_breakdown", "p_failure", "survival"};
  return kMetrics;
}

// --- Generic numeric axis registry. -----------------------------------

/// Compact value rendering for validation messages ("1.3", not
/// "1.300000").
std::string fmt_value(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

/// Range predicates shared by axis values and the base params; each
/// returns nullptr when the value is admissible, else the constraint
/// text appended after the value in the error message.
const char* check_unit_interval(double v) {
  return (v >= 0.0 && v <= 1.0) ? nullptr : "outside [0,1]";
}
const char* check_nonnegative_rate(double v) {
  return v >= 0.0 ? nullptr : "is a negative rate";
}
const char* check_open_unit_interval(double v) {
  return (v > 0.0 && v < 1.0) ? nullptr : "outside (0,1)";
}
const char* check_p_index(double v) {
  return v > 1.0 ? nullptr : "must be > 1";
}

struct NumericAxisDef {
  const char* name;
  void (*set)(Params&, double);
  /// nullptr = unconstrained; else rejects bad values at
  /// spec-validation time instead of surfacing as NaN/negative rates
  /// deep in a backend.
  const char* (*check)(double);
};

constexpr NumericAxisDef kNumericAxes[] = {
    {"lambda_join", [](Params& p, double v) { p.lambda_join = v; },
     check_nonnegative_rate},
    {"mu_leave", [](Params& p, double v) { p.mu_leave = v; },
     check_nonnegative_rate},
    {"lambda_q", [](Params& p, double v) { p.lambda_q = v; },
     check_nonnegative_rate},
    {"lambda_c", [](Params& p, double v) { p.lambda_c = v; },
     check_nonnegative_rate},
    {"p_index", [](Params& p, double v) { p.p_index = v; }, check_p_index},
    {"p1", [](Params& p, double v) { p.p1 = v; }, check_unit_interval},
    {"p2", [](Params& p, double v) { p.p2 = v; }, check_unit_interval},
    {"host_ids_error",
     [](Params& p, double v) {
       p.p1 = v;
       p.p2 = v;
     },
     check_unit_interval},
    {"byzantine_fraction",
     [](Params& p, double v) { p.byzantine_fraction = v; },
     check_open_unit_interval},
    {"n_init",
     [](Params& p, double v) { p.n_init = static_cast<std::int32_t>(v); },
     nullptr},
};

const NumericAxisDef* find_numeric_axis(const std::string& name) {
  for (const auto& def : kNumericAxes) {
    if (name == def.name) return &def;
  }
  return nullptr;
}

/// Pluggable-model axes: levels are detector/attacker kind names and
/// apply by swapping Params::detector.kind / Params::attacker.kind
/// (the model's knobs come from the base point).
bool is_model_axis(const std::string& name) {
  return name == "detector_model" || name == "attacker_model";
}

bool is_categorical_axis(const std::string& name) {
  return name == "detection_shape" || name == "attacker_shape" ||
         is_model_axis(name);
}

bool is_known_axis(const std::string& name) {
  return name == "t_ids" || name == "num_voters" ||
         is_categorical_axis(name) || find_numeric_axis(name) != nullptr;
}

ids::DetectorKind detector_kind_from(const std::string& name,
                                     const std::string& path) {
  try {
    return ids::detector_kind_from_string(name);
  } catch (const std::exception& e) {
    fail(path, e.what());
  }
}

sim::AttackerKind attacker_kind_from(const std::string& name,
                                     const std::string& path) {
  try {
    return sim::attacker_kind_from_string(name);
  } catch (const std::exception& e) {
    fail(path, e.what());
  }
}

/// "spec.grid.axes[i]" — every axis-level error anchors here.
std::string axis_path(std::size_t i) {
  return "spec.grid.axes[" + std::to_string(i) + "]";
}

void check_axis(const AxisSpec& axis, std::size_t i) {
  const std::string path = axis_path(i);
  if (!is_known_axis(axis.param)) {
    fail(path + ".param", "unknown axis parameter '" + axis.param + "'");
  }
  if (is_categorical_axis(axis.param)) {
    if (!axis.values.empty()) {
      fail(path + ".values",
           "categorical axis '" + axis.param + "' takes levels, not values");
    }
    if (axis.levels.empty()) {
      fail(path + ".levels", "axis '" + axis.param + "' has no levels");
    }
    for (std::size_t k = 0; k < axis.levels.size(); ++k) {
      const std::string level_path =
          path + ".levels[" + std::to_string(k) + "]";
      if (axis.param == "detector_model") {
        (void)detector_kind_from(axis.levels[k], level_path);
      } else if (axis.param == "attacker_model") {
        (void)attacker_kind_from(axis.levels[k], level_path);
      } else {
        (void)shape_from(axis.levels[k], level_path);
      }
    }
    return;
  }
  if (!axis.levels.empty()) {
    fail(path + ".levels",
         "numeric axis '" + axis.param + "' takes values, not levels");
  }
  if (axis.values.empty()) {
    fail(path + ".values", "axis '" + axis.param + "' has no values");
  }
  if (axis.param == "num_voters" || axis.param == "n_init") {
    for (std::size_t k = 0; k < axis.values.size(); ++k) {
      const double v = axis.values[k];
      if (!(v >= 1.0) || v != std::floor(v)) {
        fail(path + ".values[" + std::to_string(k) + "]",
             "axis '" + axis.param + "' needs positive integers");
      }
    }
  }
  if (axis.param == "t_ids") {
    for (std::size_t k = 0; k < axis.values.size(); ++k) {
      if (!(axis.values[k] > 0.0)) {
        fail(path + ".values[" + std::to_string(k) + "]",
             fmt_value(axis.values[k]) + " must be positive");
      }
    }
  }
  if (const NumericAxisDef* def = find_numeric_axis(axis.param);
      def != nullptr && def->check != nullptr) {
    for (std::size_t k = 0; k < axis.values.size(); ++k) {
      if (const char* err = def->check(axis.values[k])) {
        fail(path + ".values[" + std::to_string(k) + "]",
             fmt_value(axis.values[k]) + " " + err);
      }
    }
  }
}

}  // namespace

std::string to_string(BackendKind kind) {
  switch (kind) {
    case BackendKind::Analytic: return "analytic";
    case BackendKind::Des: return "des";
    case BackendKind::ProtocolSim: return "protocol_sim";
  }
  return "?";
}

std::string to_string(ShardSpec::Policy policy) {
  switch (policy) {
    case ShardSpec::Policy::All: return "all";
    case ShardSpec::Policy::Contiguous: return "contiguous";
    case ShardSpec::Policy::ByStructure: return "by_structure";
    case ShardSpec::Policy::ByPilotCost: return "by_pilot_cost";
    case ShardSpec::Policy::Explicit: return "explicit";
  }
  return "?";
}

std::vector<std::string> numeric_axis_params() {
  std::vector<std::string> out;
  for (const auto& def : kNumericAxes) out.emplace_back(def.name);
  return out;
}

// --- Params codec. ----------------------------------------------------

util::Json params_to_json(const Params& p) {
  auto j = util::Json::object();
  j.set("n_init", util::Json(static_cast<double>(p.n_init)));
  j.set("lambda_join", util::Json::number(p.lambda_join));
  j.set("mu_leave", util::Json::number(p.mu_leave));
  j.set("lambda_q", util::Json::number(p.lambda_q));
  j.set("attacker_shape", util::Json(ids::to_string(p.attacker_shape)));
  j.set("lambda_c", util::Json::number(p.lambda_c));
  j.set("p_index", util::Json::number(p.p_index));
  j.set("attacker_progress", util::Json(progress_name(p.attacker_progress)));
  // The attacker model descriptor is always serialised in full (every
  // knob, whatever the kind) so canonical round-trips are byte-stable
  // across kind changes.
  auto attacker = util::Json::object();
  attacker.set("kind", util::Json(sim::to_string(p.attacker.kind)));
  attacker.set("burst_on_s", util::Json::number(p.attacker.burst_on_s));
  attacker.set("burst_off_s", util::Json::number(p.attacker.burst_off_s));
  attacker.set("batch", util::Json(static_cast<double>(p.attacker.batch)));
  j.set("attacker", std::move(attacker));
  j.set("detection_shape", util::Json(ids::to_string(p.detection_shape)));
  j.set("t_ids", util::Json::number(p.t_ids));
  j.set("num_voters", util::Json(static_cast<double>(p.num_voters)));
  j.set("p1", util::Json::number(p.p1));
  j.set("p2", util::Json::number(p.p2));
  // Detector model descriptor: always full, like "attacker" above.
  auto detector = util::Json::object();
  detector.set("kind", util::Json(ids::to_string(p.detector.kind)));
  detector.set("entropy_weight",
               util::Json::number(p.detector.entropy_weight));
  detector.set("cusum_gain", util::Json::number(p.detector.cusum_gain));
  detector.set("cusum_drift", util::Json::number(p.detector.cusum_drift));
  detector.set("cusum_threshold",
               util::Json::number(p.detector.cusum_threshold));
  detector.set("cusum_alarm_factor",
               util::Json::number(p.detector.cusum_alarm_factor));
  detector.set("logistic_bias", util::Json::number(p.detector.logistic_bias));
  detector.set("logistic_compromise_weight",
               util::Json::number(p.detector.logistic_compromise_weight));
  detector.set("logistic_time_weight",
               util::Json::number(p.detector.logistic_time_weight));
  j.set("detector", std::move(detector));
  j.set("byzantine_fraction", util::Json::number(p.byzantine_fraction));
  j.set("max_groups", util::Json(static_cast<double>(p.max_groups)));
  j.set("partition_rates", numbers_to_json(p.partition_rates));
  j.set("merge_rates", numbers_to_json(p.merge_rates));

  auto cost = util::Json::object();
  cost.set("data_packet_bits", util::Json::number(p.cost.data_packet_bits));
  cost.set("status_packet_bits",
           util::Json::number(p.cost.status_packet_bits));
  cost.set("vote_packet_bits", util::Json::number(p.cost.vote_packet_bits));
  cost.set("beacon_bits", util::Json::number(p.cost.beacon_bits));
  cost.set("status_exchange_rate",
           util::Json::number(p.cost.status_exchange_rate));
  cost.set("beacon_rate", util::Json::number(p.cost.beacon_rate));
  cost.set("mean_hops", util::Json::number(p.cost.mean_hops));
  cost.set("mean_degree", util::Json::number(p.cost.mean_degree));
  cost.set("bandwidth_bps", util::Json::number(p.cost.bandwidth_bps));
  auto rekey = util::Json::object();
  rekey.set("key_element_bits",
            util::Json::number(p.cost.rekey.key_element_bits));
  rekey.set("mean_hops", util::Json::number(p.cost.rekey.mean_hops));
  rekey.set("bandwidth_bps", util::Json::number(p.cost.rekey.bandwidth_bps));
  cost.set("rekey", std::move(rekey));
  j.set("cost", std::move(cost));
  j.set("schedule", schedule_to_json(p.schedule));
  j.set("mission", mission_to_json(p.mission));
  return j;
}

Params params_from_json(const util::Json& j, const std::string& path) {
  const Reader r{j, path};
  Params p;
  p.n_init = static_cast<std::int32_t>(r.size("n_init"));
  p.lambda_join = r.number("lambda_join");
  p.mu_leave = r.number("mu_leave");
  p.lambda_q = r.number("lambda_q");
  p.attacker_shape =
      shape_from(r.str("attacker_shape"), path + ".attacker_shape");
  p.lambda_c = r.number("lambda_c");
  p.p_index = r.number("p_index");
  p.attacker_progress = progress_from(r.str("attacker_progress"),
                                      path + ".attacker_progress");
  const Reader attacker = r.child("attacker");
  p.attacker.kind =
      attacker_kind_from(attacker.str("kind"), path + ".attacker.kind");
  p.attacker.burst_on_s = attacker.number("burst_on_s");
  p.attacker.burst_off_s = attacker.number("burst_off_s");
  p.attacker.batch = static_cast<std::int64_t>(attacker.size("batch"));
  p.detection_shape =
      shape_from(r.str("detection_shape"), path + ".detection_shape");
  p.t_ids = r.number("t_ids");
  p.num_voters = static_cast<std::int64_t>(r.size("num_voters"));
  p.p1 = r.number("p1");
  p.p2 = r.number("p2");
  const Reader detector = r.child("detector");
  p.detector.kind =
      detector_kind_from(detector.str("kind"), path + ".detector.kind");
  p.detector.entropy_weight = detector.number("entropy_weight");
  p.detector.cusum_gain = detector.number("cusum_gain");
  p.detector.cusum_drift = detector.number("cusum_drift");
  p.detector.cusum_threshold = detector.number("cusum_threshold");
  p.detector.cusum_alarm_factor = detector.number("cusum_alarm_factor");
  p.detector.logistic_bias = detector.number("logistic_bias");
  p.detector.logistic_compromise_weight =
      detector.number("logistic_compromise_weight");
  p.detector.logistic_time_weight = detector.number("logistic_time_weight");
  p.byzantine_fraction = r.number("byzantine_fraction");
  p.max_groups = static_cast<std::int32_t>(r.size("max_groups"));
  p.partition_rates = r.numbers("partition_rates");
  p.merge_rates = r.numbers("merge_rates");

  const Reader cost = r.child("cost");
  p.cost.data_packet_bits = cost.number("data_packet_bits");
  p.cost.status_packet_bits = cost.number("status_packet_bits");
  p.cost.vote_packet_bits = cost.number("vote_packet_bits");
  p.cost.beacon_bits = cost.number("beacon_bits");
  p.cost.status_exchange_rate = cost.number("status_exchange_rate");
  p.cost.beacon_rate = cost.number("beacon_rate");
  p.cost.mean_hops = cost.number("mean_hops");
  p.cost.mean_degree = cost.number("mean_degree");
  p.cost.bandwidth_bps = cost.number("bandwidth_bps");
  const Reader rekey = cost.child("rekey");
  p.cost.rekey.key_element_bits = rekey.number("key_element_bits");
  p.cost.rekey.mean_hops = rekey.number("mean_hops");
  p.cost.rekey.bandwidth_bps = rekey.number("bandwidth_bps");
  // Optional on read (pre-PR-9 spec documents carry neither field);
  // absent = the constant model.
  if (const util::Json* sched = j.find("schedule")) {
    p.schedule = schedule_from_json(*sched, path + ".schedule");
  }
  if (const util::Json* mission = j.find("mission")) {
    p.mission = mission_from_json(*mission, path + ".mission");
  }
  return p;
}

// --- Spec (de)serialisation. ------------------------------------------

bool ExperimentSpec::wants(BackendKind kind) const {
  return std::find(backends.begin(), backends.end(), kind) != backends.end();
}

GridSpec ExperimentSpec::grid() const {
  GridSpec spec;
  for (std::size_t i = 0; i < axes.size(); ++i) {
    const AxisSpec& axis = axes[i];
    check_axis(axis, i);
    try {
      if (axis.param == "t_ids") {
        spec.t_ids(axis.values);
      } else if (axis.param == "num_voters") {
        std::vector<std::int64_t> m;
        m.reserve(axis.values.size());
        for (const double v : axis.values) {
          m.push_back(static_cast<std::int64_t>(v));
        }
        spec.num_voters(std::move(m));
      } else if (axis.param == "detector_model") {
        std::vector<ids::DetectorKind> kinds;
        kinds.reserve(axis.levels.size());
        for (const auto& level : axis.levels) {
          kinds.push_back(detector_kind_from(level, axis_path(i)));
        }
        spec.axis("detector_model", axis.levels,
                  [kinds = std::move(kinds)](Params& p, std::size_t k) {
                    p.detector.kind = kinds[k];
                  });
      } else if (axis.param == "attacker_model") {
        std::vector<sim::AttackerKind> kinds;
        kinds.reserve(axis.levels.size());
        for (const auto& level : axis.levels) {
          kinds.push_back(attacker_kind_from(level, axis_path(i)));
        }
        spec.axis("attacker_model", axis.levels,
                  [kinds = std::move(kinds)](Params& p, std::size_t k) {
                    p.attacker.kind = kinds[k];
                  });
      } else if (is_categorical_axis(axis.param)) {
        std::vector<ids::Shape> shapes;
        shapes.reserve(axis.levels.size());
        for (const auto& level : axis.levels) {
          shapes.push_back(shape_from(level, axis_path(i)));
        }
        if (axis.param == "detection_shape") {
          spec.detection_shape(std::move(shapes));
        } else {
          spec.attacker_shape(std::move(shapes));
        }
      } else {
        const NumericAxisDef* def = find_numeric_axis(axis.param);
        spec.axis(axis.param, axis.values,
                  [set = def->set](Params& p, double v) { set(p, v); });
      }
    } catch (const std::invalid_argument& e) {
      fail(axis_path(i), e.what());
    }
  }
  return spec;
}

ShardRange ExperimentSpec::resolve_range(const GridSpec& g) const {
  switch (shard.policy) {
    case ShardSpec::Policy::All:
      return {0, g.num_points()};
    case ShardSpec::Policy::Contiguous:
      return ShardPlan::contiguous(g.num_points(), shard.num_shards)
          .range(shard.shard_index);
    case ShardSpec::Policy::ByStructure:
      return ShardPlan::by_structure(g, base, shard.num_shards)
          .range(shard.shard_index);
    case ShardSpec::Policy::ByPilotCost:
      return ShardPlan::by_pilot_cost(g, base, shard.num_shards, mc,
                                      shard.pilot_replications)
          .range(shard.shard_index);
    case ShardSpec::Policy::Explicit:
      return shard.range;
  }
  throw std::logic_error("ExperimentSpec: unreachable shard policy");
}

void ExperimentSpec::validate() const {
  // Field-level range checks first, so the error names the exact
  // offending path instead of the generic "spec.base" wrapper below.
  if (const char* err = check_unit_interval(base.p1)) {
    fail("spec.base.p1", fmt_value(base.p1) + " " + err);
  }
  if (const char* err = check_unit_interval(base.p2)) {
    fail("spec.base.p2", fmt_value(base.p2) + " " + err);
  }
  try {
    // These throw "<prefix>.segments[i].<field>: ..." — already fully
    // path-named, so anchor without the generic "spec.base" wrapper.
    base.schedule.validate("spec.base.schedule");
    base.mission.validate("spec.base.mission");
  } catch (const std::exception& e) {
    throw std::invalid_argument("ExperimentSpec: " + std::string(e.what()));
  }
  try {
    base.detector.validate();
    base.attacker.validate();
  } catch (const std::exception& e) {
    // The model validators throw "detector.<field>: <msg>" /
    // "attacker.<field>: <msg>" — anchor the path at spec.base.
    throw std::invalid_argument("ExperimentSpec: spec.base." +
                                std::string(e.what()));
  }
  try {
    base.validate();
  } catch (const std::exception& e) {
    fail("spec.base", e.what());
  }

  for (std::size_t i = 0; i < axes.size(); ++i) {
    check_axis(axes[i], i);
    for (std::size_t k = 0; k < i; ++k) {
      if (axes[k].param == axes[i].param) {
        fail(axis_path(i) + ".param",
             "duplicate axis '" + axes[i].param + "'");
      }
    }
  }

  if (backends.empty()) {
    fail("spec.backends", "at least one backend is required");
  }

  // The analytic backend solves a time-homogeneous CTMC; any point of
  // the grid carrying a model outside that class must be rejected HERE,
  // by name, with the routing advice — not as a solver failure later.
  if (wants(BackendKind::Analytic)) {
    const auto reject_detector = [&](ids::DetectorKind kind,
                                     const std::string& path) {
      ids::DetectorModel probe;
      probe.kind = kind;
      if (!probe.analytic_compatible()) {
        fail(path, std::string("detector model '") + ids::to_string(kind) +
                       "' is time-dependent and outside the analytic SPN; "
                       "drop 'analytic' from spec.backends and "
                       "cross-validate with des/protocol_sim — or, if the "
                       "time dependence is piecewise-constant, express it "
                       "with the first-class spec.base.schedule / "
                       "spec.base.mission fields, which the analytic "
                       "backend chains exactly");
      }
    };
    const auto reject_attacker = [&](sim::AttackerKind kind,
                                     const std::string& path) {
      sim::AttackerModel probe;
      probe.kind = kind;
      if (!probe.analytic_compatible()) {
        fail(path, std::string("attacker model '") + sim::to_string(kind) +
                       "' is not a memoryless single-victim process and "
                       "outside the analytic SPN; drop 'analytic' from "
                       "spec.backends and cross-validate with "
                       "des/protocol_sim");
      }
    };
    reject_detector(base.detector.kind, "spec.base.detector.kind");
    reject_attacker(base.attacker.kind, "spec.base.attacker.kind");
    for (std::size_t i = 0; i < axes.size(); ++i) {
      if (!is_model_axis(axes[i].param)) continue;
      for (std::size_t k = 0; k < axes[i].levels.size(); ++k) {
        const std::string path =
            axis_path(i) + ".levels[" + std::to_string(k) + "]";
        if (axes[i].param == "detector_model") {
          reject_detector(detector_kind_from(axes[i].levels[k], path), path);
        } else {
          reject_attacker(attacker_kind_from(axes[i].levels[k], path), path);
        }
      }
    }
  }
  if (analytic.batch == 0) {
    fail("spec.analytic.batch", "must be positive (1 = scalar path)");
  }
  for (std::size_t i = 0; i < backends.size(); ++i) {
    for (std::size_t k = 0; k < i; ++k) {
      if (backends[k] == backends[i]) {
        fail("spec.backends[" + std::to_string(i) + "]",
             "duplicate backend '" + to_string(backends[i]) + "'");
      }
    }
  }

  if (mc.min_replications == 0) {
    fail("spec.mc.min_replications", "must be positive");
  }
  if (mc.block == 0) fail("spec.mc.block", "must be positive");
  if (mc.block > mc.max_replications) {
    fail("spec.mc.block",
         "block (" + std::to_string(mc.block) + ") exceeds max_replications (" +
             std::to_string(mc.max_replications) + ")");
  }
  if (mc.min_replications > mc.max_replications) {
    fail("spec.mc.min_replications",
         "min_replications (" + std::to_string(mc.min_replications) +
             ") exceeds max_replications (" +
             std::to_string(mc.max_replications) + ")");
  }
  for (std::size_t i = 0; i < mc.survival_horizons.size(); ++i) {
    if (!(mc.survival_horizons[i] >= 0.0)) {
      fail("spec.mc.survival_horizons[" + std::to_string(i) + "]",
           "horizons must be non-negative");
    }
  }

  if (vr.any()) {
    // Structural checks first (throws "spec.mc.vr.<field>: ..." —
    // already fully path-named, so anchor like the schedule validator).
    try {
      vr.validate("spec.mc.vr");
    } catch (const std::exception& e) {
      throw std::invalid_argument("ExperimentSpec: " +
                                  std::string(e.what()));
    }
    if (!wants(BackendKind::Des)) {
      fail("spec.mc.vr",
           "variance reduction layers over the des backend; add \"des\" "
           "to spec.backends");
    }
    if (vr.sobol.enabled && mc.antithetic) {
      fail("spec.mc.vr.sobol",
           "Sobol substreams replace the whole draw stream and cannot "
           "compose with spec.mc.antithetic pair flipping; disable one");
    }
    if (vr.cv.enabled) {
      // The control means come from the analytic SPN solution, so the
      // cv estimator inherits the analytic backend's model class.
      if (base.time_varying()) {
        fail("spec.mc.vr.cv",
             "control variates need the exact analytic control means of "
             "the time-homogeneous model; spec.base carries a "
             "schedule/mission");
      }
      if (!base.detector.analytic_compatible()) {
        fail("spec.mc.vr.cv",
             std::string("detector model '") +
                 ids::to_string(base.detector.kind) +
                 "' has no analytic control means; use a static/entropy "
                 "detector or disable cv");
      }
      if (!base.attacker.analytic_compatible()) {
        fail("spec.mc.vr.cv",
             std::string("attacker model '") +
                 sim::to_string(base.attacker.kind) +
                 "' has no analytic control means; use a poisson "
                 "attacker or disable cv");
      }
      for (std::size_t i = 0; i < axes.size(); ++i) {
        if (!is_model_axis(axes[i].param)) continue;
        for (std::size_t k = 0; k < axes[i].levels.size(); ++k) {
          const std::string path =
              axis_path(i) + ".levels[" + std::to_string(k) + "]";
          const bool ok =
              axes[i].param == "detector_model"
                  ? [&] {
                      ids::DetectorModel probe;
                      probe.kind =
                          detector_kind_from(axes[i].levels[k], path);
                      return probe.analytic_compatible();
                    }()
                  : [&] {
                      sim::AttackerModel probe;
                      probe.kind =
                          attacker_kind_from(axes[i].levels[k], path);
                      return probe.analytic_compatible();
                    }();
          if (!ok) {
            fail(path,
                 "model level '" + axes[i].levels[k] +
                     "' has no analytic control means required by "
                     "spec.mc.vr.cv");
          }
        }
      }
    }
  }

  if (wants(BackendKind::ProtocolSim)) {
    if (!(protocol.tick_s > 0.0)) {
      fail("spec.protocol.tick_s", "must be positive");
    }
    if (protocol.topology_refresh_s < protocol.tick_s) {
      fail("spec.protocol.topology_refresh_s",
           "must be at least tick_s");
    }
  }

  const std::size_t points = grid().num_points();
  if (shard.policy != ShardSpec::Policy::All) {
    if (shard.num_shards == 0) {
      fail("spec.shard.num_shards", "must be positive");
    }
    if (shard.policy == ShardSpec::Policy::Explicit) {
      if (shard.range.begin > shard.range.end) {
        fail("spec.shard.range.begin",
             "begin " + std::to_string(shard.range.begin) +
                 " exceeds end " + std::to_string(shard.range.end));
      }
      if (shard.range.end > points) {
        fail("spec.shard.range.end",
             "end " + std::to_string(shard.range.end) + " outside the " +
                 std::to_string(points) + "-point grid");
      }
    } else if (shard.shard_index >= shard.num_shards) {
      fail("spec.shard.shard_index",
           "shard_index " + std::to_string(shard.shard_index) +
               " out of range (num_shards " +
               std::to_string(shard.num_shards) + ")");
    }
  }

  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& known = known_metrics();
    if (std::find(known.begin(), known.end(), metrics[i]) == known.end()) {
      fail("spec.metrics[" + std::to_string(i) + "]",
           "unknown metric '" + metrics[i] + "'");
    }
  }
}

util::Json ExperimentSpec::to_json() const {
  auto j = util::Json::object();
  j.set("format", util::Json(kSpecFormat));
  j.set("name", util::Json(name));
  j.set("mode", util::Json(mode));
  j.set("base", params_to_json(base));

  auto grid_json = util::Json::object();
  auto axes_json = util::Json::array();
  for (const auto& axis : axes) {
    auto a = util::Json::object();
    a.set("param", util::Json(axis.param));
    if (is_categorical_axis(axis.param)) {
      auto levels = util::Json::array();
      for (const auto& level : axis.levels) levels.push_back(util::Json(level));
      a.set("levels", std::move(levels));
    } else {
      a.set("values", numbers_to_json(axis.values));
    }
    axes_json.push_back(std::move(a));
  }
  grid_json.set("axes", std::move(axes_json));
  j.set("grid", std::move(grid_json));

  auto backends_json = util::Json::array();
  for (const BackendKind kind : backends) {
    backends_json.push_back(util::Json(to_string(kind)));
  }
  j.set("backends", std::move(backends_json));

  auto analytic_json = util::Json::object();
  analytic_json.set("batch",
                    json_size(analytic.batch, "spec.analytic.batch"));
  j.set("analytic", std::move(analytic_json));

  auto mc_json = util::Json::object();
  mc_json.set("base_seed", json_size(mc.base_seed, "spec.mc.base_seed"));
  mc_json.set("min_replications",
              json_size(mc.min_replications, "spec.mc.min_replications"));
  mc_json.set("max_replications",
              json_size(mc.max_replications, "spec.mc.max_replications"));
  mc_json.set("block", json_size(mc.block, "spec.mc.block"));
  mc_json.set("rel_ci_target", util::Json::number(mc.rel_ci_target));
  mc_json.set("crn", util::Json(mc.crn));
  mc_json.set("point_stream_offset",
              json_size(mc.point_stream_offset,
                        "spec.mc.point_stream_offset"));
  mc_json.set("antithetic", util::Json(mc.antithetic));
  mc_json.set("threads", json_size(mc.threads, "spec.mc.threads"));
  mc_json.set("capture_trajectories", util::Json(mc.capture_trajectories));
  mc_json.set("survival_horizons", numbers_to_json(mc.survival_horizons));
  // Emitted only when the vr layer is on: a default spec's bytes (and
  // every pre-vr golden) stay untouched.
  if (vr.any()) mc_json.set("vr", vr_options_to_json(vr));
  j.set("mc", std::move(mc_json));

  auto protocol_json = util::Json::object();
  auto mobility = util::Json::object();
  mobility.set("field_radius_m",
               util::Json::number(protocol.mobility.field_radius_m));
  mobility.set("speed_min_mps",
               util::Json::number(protocol.mobility.speed_min_mps));
  mobility.set("speed_max_mps",
               util::Json::number(protocol.mobility.speed_max_mps));
  mobility.set("pause_max_s",
               util::Json::number(protocol.mobility.pause_max_s));
  protocol_json.set("mobility", std::move(mobility));
  protocol_json.set("radio_range_m",
                    util::Json::number(protocol.radio_range_m));
  protocol_json.set("tick_s", util::Json::number(protocol.tick_s));
  protocol_json.set("topology_refresh_s",
                    util::Json::number(protocol.topology_refresh_s));
  protocol_json.set("max_time_s", util::Json::number(protocol.max_time_s));
  j.set("protocol", std::move(protocol_json));

  auto shard_json = util::Json::object();
  shard_json.set("policy", util::Json(to_string(shard.policy)));
  shard_json.set("num_shards",
                 json_size(shard.num_shards, "spec.shard.num_shards"));
  shard_json.set("shard_index",
                 json_size(shard.shard_index, "spec.shard.shard_index"));
  shard_json.set("pilot_replications",
                 json_size(shard.pilot_replications,
                           "spec.shard.pilot_replications"));
  auto range_json = util::Json::object();
  range_json.set("begin",
                 json_size(shard.range.begin, "spec.shard.range.begin"));
  range_json.set("end", json_size(shard.range.end, "spec.shard.range.end"));
  shard_json.set("range", std::move(range_json));
  j.set("shard", std::move(shard_json));

  auto metrics_json = util::Json::array();
  for (const auto& metric : metrics) metrics_json.push_back(util::Json(metric));
  j.set("metrics", std::move(metrics_json));
  return j;
}

ExperimentSpec ExperimentSpec::from_json(const util::Json& j) {
  const Reader r{j, "spec"};
  if (r.str("format") != kSpecFormat) {
    fail("spec.format", "unknown format '" + r.str("format") +
                            "' (expected " + kSpecFormat + ")");
  }
  ExperimentSpec spec;
  spec.name = r.str("name");
  spec.mode = r.str("mode");
  spec.base = params_from_json(r.at("base"), "spec.base");

  const Reader grid = r.child("grid");
  const auto& axes_json = grid.at("axes");
  if (axes_json.type() != util::Json::Type::Array) {
    fail("spec.grid.axes", "expected an array");
  }
  spec.axes.clear();
  for (std::size_t i = 0; i < axes_json.size(); ++i) {
    const Reader a{axes_json.at(i), axis_path(i)};
    AxisSpec axis;
    axis.param = a.str("param");
    if (!is_known_axis(axis.param)) {
      fail(axis_path(i) + ".param",
           "unknown axis parameter '" + axis.param + "'");
    }
    if (is_categorical_axis(axis.param)) {
      axis.levels = a.strings("levels");
    } else {
      axis.values = a.numbers("values");
    }
    check_axis(axis, i);
    spec.axes.push_back(std::move(axis));
  }

  spec.backends.clear();
  const auto backend_names = r.strings("backends");
  for (std::size_t i = 0; i < backend_names.size(); ++i) {
    spec.backends.push_back(backend_from(
        backend_names[i], "spec.backends[" + std::to_string(i) + "]"));
  }

  const Reader analytic = r.child("analytic");
  spec.analytic.batch = analytic.size("batch");

  const Reader mc = r.child("mc");
  spec.mc.base_seed = mc.size("base_seed");
  spec.mc.min_replications = mc.size("min_replications");
  spec.mc.max_replications = mc.size("max_replications");
  spec.mc.block = mc.size("block");
  spec.mc.rel_ci_target = mc.number("rel_ci_target");
  spec.mc.crn = mc.boolean("crn");
  spec.mc.point_stream_offset = mc.size("point_stream_offset");
  spec.mc.antithetic = mc.boolean("antithetic");
  spec.mc.threads = mc.size("threads");
  spec.mc.capture_trajectories = mc.boolean("capture_trajectories");
  spec.mc.survival_horizons = mc.numbers("survival_horizons");
  // Optional (pre-vr files carry no "vr" key and parse unchanged).
  if (const util::Json* vr_json = mc.j.find("vr")) {
    spec.vr = vr_options_from_json(*vr_json, "spec.mc.vr");
  }

  const Reader protocol = r.child("protocol");
  const Reader mobility = protocol.child("mobility");
  spec.protocol.mobility.field_radius_m = mobility.number("field_radius_m");
  spec.protocol.mobility.speed_min_mps = mobility.number("speed_min_mps");
  spec.protocol.mobility.speed_max_mps = mobility.number("speed_max_mps");
  spec.protocol.mobility.pause_max_s = mobility.number("pause_max_s");
  spec.protocol.radio_range_m = protocol.number("radio_range_m");
  spec.protocol.tick_s = protocol.number("tick_s");
  spec.protocol.topology_refresh_s = protocol.number("topology_refresh_s");
  spec.protocol.max_time_s = protocol.number("max_time_s");

  const Reader shard = r.child("shard");
  spec.shard.policy = policy_from(shard.str("policy"), "spec.shard.policy");
  spec.shard.num_shards = shard.size("num_shards");
  spec.shard.shard_index = shard.size("shard_index");
  spec.shard.pilot_replications = shard.size("pilot_replications");
  const Reader range = shard.child("range");
  spec.shard.range = {range.size("begin"), range.size("end")};

  spec.metrics = r.strings("metrics");

  spec.validate();
  return spec;
}

// --- Result payload codecs. --------------------------------------------

util::Json evaluation_to_json(const Evaluation& e) {
  auto j = util::Json::object();
  j.set("mttsf", util::Json::number(e.mttsf));
  j.set("ctotal", util::Json::number(e.ctotal));
  j.set("cost_group_comm", util::Json::number(e.cost_rates.group_comm));
  j.set("cost_status", util::Json::number(e.cost_rates.status));
  j.set("cost_rekey", util::Json::number(e.cost_rates.rekey));
  j.set("cost_ids", util::Json::number(e.cost_rates.ids));
  j.set("cost_beacon", util::Json::number(e.cost_rates.beacon));
  j.set("cost_partition_merge",
        util::Json::number(e.cost_rates.partition_merge));
  j.set("eviction_cost_rate", util::Json::number(e.eviction_cost_rate));
  j.set("p_failure_c1", util::Json::number(e.p_failure_c1));
  j.set("p_failure_c2", util::Json::number(e.p_failure_c2));
  j.set("num_states", util::Json(static_cast<double>(e.num_states)));
  j.set("solver_blocks", util::Json(static_cast<double>(e.solver_blocks)));
  return j;
}

Evaluation evaluation_from_json(const util::Json& j) {
  Evaluation e;
  e.mttsf = j.at("mttsf").to_double();
  e.ctotal = j.at("ctotal").to_double();
  e.cost_rates.group_comm = j.at("cost_group_comm").to_double();
  e.cost_rates.status = j.at("cost_status").to_double();
  e.cost_rates.rekey = j.at("cost_rekey").to_double();
  e.cost_rates.ids = j.at("cost_ids").to_double();
  e.cost_rates.beacon = j.at("cost_beacon").to_double();
  e.cost_rates.partition_merge = j.at("cost_partition_merge").to_double();
  e.eviction_cost_rate = j.at("eviction_cost_rate").to_double();
  e.p_failure_c1 = j.at("p_failure_c1").to_double();
  e.p_failure_c2 = j.at("p_failure_c2").to_double();
  e.num_states = j.at("num_states").as_size();
  e.solver_blocks = j.at("solver_blocks").as_size();
  return e;
}

namespace {

util::Json welford_to_json(const sim::WelfordState& s) {
  auto j = util::Json::object();
  j.set("n", util::Json(static_cast<double>(s.n)));
  j.set("mean", util::Json::number(s.mean));
  j.set("m2", util::Json::number(s.m2));
  return j;
}

sim::WelfordState welford_from_json(const util::Json& j) {
  return {j.at("n").as_size(), j.at("mean").to_double(),
          j.at("m2").to_double()};
}

}  // namespace

util::Json mc_point_to_json(const sim::McPointResult& r) {
  auto j = util::Json::object();
  // Raw accumulator states and counts only: the reader re-derives the
  // Summary fields, which is what makes cross-process results bitwise.
  j.set("ttsf", welford_to_json(r.ttsf_state));
  j.set("cost_rate", welford_to_json(r.cost_rate_state));
  j.set("replications", util::Json(static_cast<double>(r.replications)));
  j.set("failures_c1", util::Json(static_cast<double>(r.failures_c1)));
  j.set("converged", util::Json(r.converged));
  j.set("keys_always_agreed", util::Json(r.keys_always_agreed));
  j.set("timeouts", util::Json(static_cast<double>(r.timeouts)));
  auto survival = util::Json::array();
  for (const std::size_t count : r.survival_counts) {
    survival.push_back(util::Json(static_cast<double>(count)));
  }
  j.set("survival_counts", std::move(survival));
  return j;
}

sim::McPointResult mc_point_from_json(const util::Json& j) {
  sim::McPointResult r;
  r.ttsf_state = welford_from_json(j.at("ttsf"));
  r.cost_rate_state = welford_from_json(j.at("cost_rate"));
  r.ttsf = sim::Welford::from_state(r.ttsf_state).summary();
  r.cost_rate = sim::Welford::from_state(r.cost_rate_state).summary();
  r.replications = j.at("replications").as_size();
  r.failures_c1 = j.at("failures_c1").as_size();
  r.p_failure_c1 = r.replications > 0
                       ? static_cast<double>(r.failures_c1) /
                             static_cast<double>(r.replications)
                       : 0.0;
  r.p_failure = sim::binomial_summary(r.replications, r.failures_c1);
  r.converged = j.at("converged").as_bool();
  r.keys_always_agreed = j.at("keys_always_agreed").as_bool();
  r.timeouts = j.at("timeouts").as_size();
  for (const auto& count : j.at("survival_counts").elements()) {
    r.survival_counts.push_back(count.as_size());
    r.survival.push_back(
        sim::binomial_summary(r.replications, r.survival_counts.back()));
  }
  return r;
}

util::Json mc_stats_to_json(const sim::MonteCarloEngine::Stats& s) {
  auto j = util::Json::object();
  j.set("points", util::Json(static_cast<double>(s.points)));
  j.set("replications", util::Json(static_cast<double>(s.replications)));
  j.set("blocks", util::Json(static_cast<double>(s.blocks)));
  j.set("rounds", util::Json(static_cast<double>(s.rounds)));
  j.set("seconds", util::Json::number(s.seconds));
  return j;
}

sim::MonteCarloEngine::Stats mc_stats_from_json(const util::Json& j) {
  sim::MonteCarloEngine::Stats s;
  s.points = j.at("points").as_size();
  s.replications = j.at("replications").as_size();
  s.blocks = j.at("blocks").as_size();
  s.rounds = j.at("rounds").as_size();
  s.seconds = j.at("seconds").to_double();
  return s;
}

namespace {

// The vr codecs follow the mc-point convention: raw accumulator states,
// replicate estimates, and counts only — every Summary is re-derived on
// read, which keeps round-trips and shard merges bitwise.

util::Json cv_metric_to_json(const vr::CvMetric& m) {
  auto j = util::Json::object();
  j.set("beta", util::Json::number(m.beta));
  j.set("control_mean", util::Json::number(m.control_mean));
  j.set("correlation", util::Json::number(m.correlation));
  j.set("plain", welford_to_json(m.plain_state));
  j.set("adjusted", welford_to_json(m.adjusted_state));
  return j;
}

vr::CvMetric cv_metric_from_json(const util::Json& j) {
  vr::CvMetric m;
  m.beta = j.at("beta").to_double();
  m.control_mean = j.at("control_mean").to_double();
  m.correlation = j.at("correlation").to_double();
  m.plain_state = welford_from_json(j.at("plain"));
  m.adjusted_state = welford_from_json(j.at("adjusted"));
  m.finalize();
  return m;
}

util::Json doubles_json(const std::vector<double>& values) {
  auto a = util::Json::array();
  for (const double v : values) a.push_back(util::Json::number(v));
  return a;
}

std::vector<double> doubles_from_json(const util::Json& j) {
  std::vector<double> out;
  out.reserve(j.size());
  for (const auto& v : j.elements()) out.push_back(v.to_double());
  return out;
}

}  // namespace

util::Json vr_point_to_json(const vr::VrPointResult& r) {
  auto j = util::Json::object();
  if (r.has_sobol) {
    auto s = util::Json::object();
    s.set("replicates",
          util::Json(static_cast<double>(r.sobol.replicates)));
    s.set("samples_per_replicate",
          util::Json(static_cast<double>(r.sobol.samples_per_replicate)));
    s.set("ttsf_means", doubles_json(r.sobol.ttsf_means));
    s.set("cost_rate_means", doubles_json(r.sobol.cost_rate_means));
    j.set("sobol", std::move(s));
  }
  if (r.has_cv) {
    auto c = util::Json::object();
    c.set("pilot", util::Json(static_cast<double>(r.cv.pilot)));
    c.set("replications",
          util::Json(static_cast<double>(r.cv.replications)));
    c.set("ttsf", cv_metric_to_json(r.cv.ttsf));
    c.set("cost", cv_metric_to_json(r.cv.cost));
    j.set("cv", std::move(c));
  }
  if (r.has_splitting) {
    auto s = util::Json::object();
    s.set("target", util::Json(r.splitting.target));
    s.set("scheme", util::Json(r.splitting.scheme));
    s.set("replicates",
          util::Json(static_cast<double>(r.splitting.replicates)));
    s.set("effort", util::Json(static_cast<double>(r.splitting.effort)));
    s.set("trajectories",
          util::Json(static_cast<double>(r.splitting.trajectories)));
    s.set("estimates", doubles_json(r.splitting.estimates));
    auto levels = util::Json::array();
    for (const auto& lv : r.splitting.levels) {
      auto l = util::Json::object();
      l.set("threshold", util::Json(static_cast<double>(lv.threshold)));
      l.set("p_up", util::Json::number(lv.p_up));
      l.set("p_absorb", util::Json::number(lv.p_absorb));
      levels.push_back(std::move(l));
    }
    s.set("levels", std::move(levels));
    j.set("splitting", std::move(s));
  }
  return j;
}

vr::VrPointResult vr_point_from_json(const util::Json& j) {
  vr::VrPointResult r;
  if (const util::Json* s = j.find("sobol")) {
    r.has_sobol = true;
    r.sobol.replicates = s->at("replicates").as_size();
    r.sobol.samples_per_replicate =
        s->at("samples_per_replicate").as_size();
    r.sobol.ttsf_means = doubles_from_json(s->at("ttsf_means"));
    r.sobol.cost_rate_means = doubles_from_json(s->at("cost_rate_means"));
    r.sobol.ttsf = sim::summarize(r.sobol.ttsf_means);
    r.sobol.cost_rate = sim::summarize(r.sobol.cost_rate_means);
  }
  if (const util::Json* c = j.find("cv")) {
    r.has_cv = true;
    r.cv.pilot = c->at("pilot").as_size();
    r.cv.replications = c->at("replications").as_size();
    r.cv.ttsf = cv_metric_from_json(c->at("ttsf"));
    r.cv.cost = cv_metric_from_json(c->at("cost"));
  }
  if (const util::Json* s = j.find("splitting")) {
    r.has_splitting = true;
    r.splitting.target = s->at("target").as_string();
    r.splitting.scheme = s->at("scheme").as_string();
    r.splitting.replicates = s->at("replicates").as_size();
    r.splitting.effort = s->at("effort").as_size();
    r.splitting.trajectories = s->at("trajectories").as_size();
    r.splitting.estimates = doubles_from_json(s->at("estimates"));
    for (const auto& lv : s->at("levels").elements()) {
      vr::SplittingLevel level;
      level.threshold =
          static_cast<std::int64_t>(lv.at("threshold").to_double());
      level.p_up = lv.at("p_up").to_double();
      level.p_absorb = lv.at("p_absorb").to_double();
      r.splitting.levels.push_back(level);
    }
    r.splitting.probability = vr::splitting_probability_summary(
        r.splitting.estimates,
        r.splitting.replicates * r.splitting.effort);
  }
  return r;
}

// --- ExperimentResult. ------------------------------------------------

const BackendRun* ExperimentResult::find(BackendKind kind) const {
  for (const auto& run : backends) {
    if (run.kind == kind) return &run;
  }
  return nullptr;
}

const BackendRun& ExperimentResult::at(BackendKind kind) const {
  const BackendRun* run = find(kind);
  if (run == nullptr) {
    throw std::invalid_argument("ExperimentResult: no '" + to_string(kind) +
                                "' backend in this result");
  }
  return *run;
}

util::Json ExperimentResult::to_json() const {
  auto j = util::Json::object();
  j.set("format", util::Json(kResultFormat));
  // The embedded spec is normalised to the whole grid so every shard of
  // one run carries the IDENTICAL spec document; the slice lives in
  // range/num_shards/shard_index below.
  ExperimentSpec normalised = spec;
  normalised.shard = ShardSpec{};
  j.set("spec", normalised.to_json());
  auto range_json = util::Json::object();
  range_json.set("begin", util::Json(static_cast<double>(range.begin)));
  range_json.set("end", util::Json(static_cast<double>(range.end)));
  j.set("range", std::move(range_json));
  j.set("num_shards", util::Json(static_cast<double>(num_shards)));
  j.set("shard_index", util::Json(static_cast<double>(shard_index)));
  j.set("shard_policy", util::Json(shard_policy));

  auto backends_json = util::Json::array();
  for (const auto& run : backends) {
    auto b = util::Json::object();
    b.set("backend", util::Json(to_string(run.kind)));
    b.set("seconds", util::Json::number(run.seconds));
    if (run.kind == BackendKind::Analytic) {
      auto evals = util::Json::array();
      for (const auto& e : run.evals) evals.push_back(evaluation_to_json(e));
      b.set("evals", std::move(evals));
    } else {
      auto mc = util::Json::array();
      for (const auto& r : run.mc) mc.push_back(mc_point_to_json(r));
      b.set("mc", std::move(mc));
      b.set("mc_stats", mc_stats_to_json(run.mc_stats));
      if (!run.vr.empty()) {
        auto vr_json = util::Json::array();
        for (const auto& v : run.vr) {
          vr_json.push_back(vr_point_to_json(v));
        }
        b.set("vr", std::move(vr_json));
      }
    }
    backends_json.push_back(std::move(b));
  }
  j.set("backends", std::move(backends_json));
  return j;
}

ExperimentResult ExperimentResult::from_json(const util::Json& j) {
  const Reader r{j, "result"};
  if (r.str("format") != kResultFormat) {
    fail("result.format", "unknown format '" + r.str("format") +
                              "' (expected " + kResultFormat + ")");
  }
  ExperimentResult result;
  result.spec = ExperimentSpec::from_json(r.at("spec"));
  const Reader range = r.child("range");
  result.range = {range.size("begin"), range.size("end")};
  result.num_shards = r.size("num_shards");
  result.shard_index = r.size("shard_index");
  result.shard_policy = r.str("shard_policy");

  const auto& backends_json = r.at("backends");
  for (std::size_t i = 0; i < backends_json.size(); ++i) {
    const std::string path = "result.backends[" + std::to_string(i) + "]";
    const Reader b{backends_json.at(i), path};
    BackendRun run;
    run.kind = backend_from(b.str("backend"), path + ".backend");
    run.seconds = b.number("seconds");
    if (run.kind == BackendKind::Analytic) {
      for (const auto& e : b.at("evals").elements()) {
        run.evals.push_back(evaluation_from_json(e));
      }
    } else {
      for (const auto& p : b.at("mc").elements()) {
        run.mc.push_back(mc_point_from_json(p));
      }
      run.mc_stats = mc_stats_from_json(b.at("mc_stats"));
      if (const util::Json* vr_json = b.j.find("vr")) {
        for (const auto& v : vr_json->elements()) {
          run.vr.push_back(vr_point_from_json(v));
        }
      }
    }
    result.backends.push_back(std::move(run));
  }
  return result;
}

util::Json ExperimentResult::canonical_json() const {
  ExperimentResult c = *this;
  for (auto& run : c.backends) {
    run.seconds = 0.0;
    run.mc_stats.seconds = 0.0;
    // parallel_for batching rounds depend on how many points one
    // engine run held — a process-topology artifact, like wall clock:
    // a 4-shard merge legitimately sums more rounds than one whole-grid
    // run.  points/replications/blocks are per-point deterministic and
    // stay: they MUST match across topologies.
    run.mc_stats.rounds = 0;
  }
  return c.to_json();
}

ExperimentResult merge_experiment_results(
    std::span<const ExperimentResult> parts) {
  if (parts.empty()) {
    throw std::invalid_argument(
        "merge_experiment_results: no results to merge");
  }
  const auto normalised_dump = [](const ExperimentSpec& s) {
    ExperimentSpec c = s;
    c.shard = ShardSpec{};
    return c.to_json().dump();
  };
  const std::string ref_dump = normalised_dump(parts.front().spec);
  const GridSpec grid = parts.front().spec.grid();
  const std::size_t points = grid.num_points();

  std::vector<ShardRange> ranges;
  std::vector<std::size_t> labels;
  ranges.reserve(parts.size());
  labels.reserve(parts.size());
  std::vector<char> seen(parts.size(), 0);
  for (const auto& part : parts) {
    if (normalised_dump(part.spec) != ref_dump) {
      throw std::invalid_argument(
          "merge_experiment_results: shard " +
          std::to_string(part.shard_index) +
          " was produced by a different spec");
    }
    if (part.backends.size() != parts.front().backends.size()) {
      throw std::invalid_argument(
          "merge_experiment_results: shard " +
          std::to_string(part.shard_index) + " backend set differs");
    }
    for (std::size_t b = 0; b < part.backends.size(); ++b) {
      if (part.backends[b].kind != parts.front().backends[b].kind) {
        throw std::invalid_argument(
            "merge_experiment_results: shard " +
            std::to_string(part.shard_index) + " backend set differs");
      }
      const auto& run = part.backends[b];
      const std::size_t payload = run.kind == BackendKind::Analytic
                                      ? run.evals.size()
                                      : run.mc.size();
      if (payload != part.range.size()) {
        throw std::invalid_argument(
            "merge_experiment_results: shard " +
            std::to_string(part.shard_index) + " backend '" +
            to_string(run.kind) + "' payload size does not match its range");
      }
      if (run.vr.empty() != parts.front().backends[b].vr.empty()) {
        throw std::invalid_argument(
            "merge_experiment_results: shard " +
            std::to_string(part.shard_index) + " backend '" +
            to_string(run.kind) + "' vr payload presence differs");
      }
      if (!run.vr.empty() && run.vr.size() != part.range.size()) {
        throw std::invalid_argument(
            "merge_experiment_results: shard " +
            std::to_string(part.shard_index) + " backend '" +
            to_string(run.kind) + "' vr payload size does not match its range");
      }
    }
    if (part.shard_index < seen.size()) {
      if (seen[part.shard_index]) {
        throw std::invalid_argument(
            "merge_experiment_results: duplicate shard " +
            std::to_string(part.shard_index));
      }
      seen[part.shard_index] = 1;
    }
    ranges.push_back(part.range);
    labels.push_back(part.shard_index);
  }
  validate_shard_tiling(points, ranges, labels);

  ExperimentResult merged;
  merged.spec = parts.front().spec;
  merged.spec.shard = ShardSpec{};
  merged.range = {0, points};
  merged.num_shards = parts.size();
  merged.shard_index = 0;
  merged.shard_policy = parts.front().shard_policy;
  for (const auto& ref_run : parts.front().backends) {
    BackendRun run;
    run.kind = ref_run.kind;
    if (run.kind == BackendKind::Analytic) {
      run.evals.resize(points);
    } else {
      run.mc.resize(points);
      if (!ref_run.vr.empty()) run.vr.resize(points);
    }
    merged.backends.push_back(std::move(run));
  }
  for (const auto& part : parts) {
    for (std::size_t b = 0; b < part.backends.size(); ++b) {
      const auto& src = part.backends[b];
      auto& dst = merged.backends[b];
      if (src.kind == BackendKind::Analytic) {
        std::copy(src.evals.begin(), src.evals.end(),
                  dst.evals.begin() +
                      static_cast<std::ptrdiff_t>(part.range.begin));
      } else {
        std::copy(src.mc.begin(), src.mc.end(),
                  dst.mc.begin() +
                      static_cast<std::ptrdiff_t>(part.range.begin));
        std::copy(src.vr.begin(), src.vr.end(),
                  dst.vr.begin() +
                      static_cast<std::ptrdiff_t>(part.range.begin));
        dst.mc_stats.points += src.mc_stats.points;
        dst.mc_stats.replications += src.mc_stats.replications;
        dst.mc_stats.blocks += src.mc_stats.blocks;
        dst.mc_stats.rounds += src.mc_stats.rounds;
        dst.mc_stats.seconds += src.mc_stats.seconds;
      }
      dst.seconds += src.seconds;
    }
  }
  return merged;
}

// --- Built-in backends + service. -------------------------------------

namespace {

class AnalyticBackend final : public Backend {
 public:
  AnalyticBackend(SweepEngine& engine, std::size_t threads)
      : engine_(engine), threads_(threads) {}
  [[nodiscard]] BackendKind kind() const override {
    return BackendKind::Analytic;
  }
  [[nodiscard]] BackendRun run(const ExperimentSpec& spec, const GridSpec&,
                               std::span<const Params> points,
                               ShardRange) override {
    const util::Stopwatch watch;
    BackendRun out;
    out.kind = BackendKind::Analytic;
    if (!spec.base.time_varying()) {
      out.evals = engine_.evaluate(points, spec.analytic.batch);
    } else if (resolve_timeline(spec.base).size() == 1) {
      // Constant variation (identity or a single always-on scaling):
      // resolve each point to its one constant segment and keep the
      // batched sweep path.  Identity multipliers are IEEE-exact, so
      // this payload is bitwise the no-schedule one.
      std::vector<Params> constant;
      constant.reserve(points.size());
      for (const auto& p : points) {
        constant.push_back(resolve_timeline(p).front().params);
      }
      out.evals = engine_.evaluate(constant, spec.analytic.batch);
    } else {
      // Phased mission: chain the transient solver across boundaries,
      // one analyzer per grid point.  Points are independent, so the
      // MC thread pool shape applies.
      out.evals.resize(points.size());
      sim::parallel_for(
          points.size(),
          [&](std::size_t i) {
            out.evals[i] = MissionAnalyzer(points[i]).evaluate();
          },
          threads_);
    }
    out.seconds = watch.seconds();
    return out;
  }

 private:
  SweepEngine& engine_;
  std::size_t threads_;
};

/// Shard-invariant MC options: stream keys shifted to GLOBAL point
/// indices, service-level thread default applied.
sim::McOptions effective_mc(const ExperimentSpec& spec, ShardRange range,
                            std::size_t service_threads) {
  sim::McOptions mc = spec.mc;
  mc.point_stream_offset += range.begin;
  if (mc.threads == 0) mc.threads = service_threads;
  return mc;
}

class DesBackend final : public Backend {
 public:
  explicit DesBackend(std::size_t threads) : threads_(threads) {}
  [[nodiscard]] BackendKind kind() const override {
    return BackendKind::Des;
  }
  [[nodiscard]] BackendRun run(const ExperimentSpec& spec, const GridSpec&,
                               std::span<const Params> points,
                               ShardRange range) override {
    const util::Stopwatch watch;
    const sim::McOptions mc = effective_mc(spec, range, threads_);
    sim::MonteCarloEngine engine(mc);
    BackendRun out;
    out.kind = BackendKind::Des;
    out.mc = engine.run_des(points);
    out.mc_stats = engine.stats();
    // The vr layer runs AFTER the plain pass on its own tagged seed
    // domains: the mc payload above is bitwise the payload of a vr-less
    // run of the same spec (the parity harness checks exactly this).
    if (spec.vr.any()) out.vr = vr::run_vr(spec.vr, mc, points);
    out.seconds = watch.seconds();
    return out;
  }

 private:
  std::size_t threads_;
};

class ProtocolSimBackend final : public Backend {
 public:
  explicit ProtocolSimBackend(std::size_t threads) : threads_(threads) {}
  [[nodiscard]] BackendKind kind() const override {
    return BackendKind::ProtocolSim;
  }
  [[nodiscard]] BackendRun run(const ExperimentSpec& spec, const GridSpec&,
                               std::span<const Params> points,
                               ShardRange range) override {
    const util::Stopwatch watch;
    std::vector<sim::ProtocolSimParams> sim_points;
    sim_points.reserve(points.size());
    for (const auto& p : points) {
      sim::ProtocolSimParams q;
      q.model = p;
      q.mobility = spec.protocol.mobility;
      q.radio_range_m = spec.protocol.radio_range_m;
      q.tick_s = spec.protocol.tick_s;
      q.topology_refresh_s = spec.protocol.topology_refresh_s;
      q.max_time_s = spec.protocol.max_time_s;
      sim_points.push_back(std::move(q));
    }
    sim::MonteCarloEngine engine(effective_mc(spec, range, threads_));
    BackendRun out;
    out.kind = BackendKind::ProtocolSim;
    out.mc = engine.run_protocol(sim_points);
    out.mc_stats = engine.stats();
    out.seconds = watch.seconds();
    return out;
  }

 private:
  std::size_t threads_;
};

}  // namespace

ExperimentService::ExperimentService(ExperimentServiceOptions opts)
    : engine_(opts.threads) {
  backends_.push_back(
      std::make_unique<AnalyticBackend>(engine_, opts.threads));
  backends_.push_back(std::make_unique<DesBackend>(opts.threads));
  backends_.push_back(std::make_unique<ProtocolSimBackend>(opts.threads));
}

ExperimentService::~ExperimentService() = default;

ExperimentResult ExperimentService::run(const ExperimentSpec& spec) {
  spec.validate();
  const GridSpec grid = spec.grid();
  const ShardRange range = spec.resolve_range(grid);

  std::vector<Params> points;
  points.reserve(range.size());
  for (std::size_t i = range.begin; i < range.end; ++i) {
    points.push_back(grid.point(spec.base, i));
  }

  ExperimentResult result;
  result.spec = spec;
  result.range = range;
  result.num_shards =
      spec.shard.policy == ShardSpec::Policy::All ? 1 : spec.shard.num_shards;
  result.shard_index =
      spec.shard.policy == ShardSpec::Policy::All ? 0 : spec.shard.shard_index;
  result.shard_policy = to_string(spec.shard.policy);

  for (const BackendKind kind : spec.backends) {
    for (auto& backend : backends_) {
      if (backend->kind() == kind) {
        result.backends.push_back(backend->run(spec, grid, points, range));
        break;
      }
    }
  }
  return result;
}

}  // namespace midas::core
