#include "core/experiment.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string_view>
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
[[noreturn]] void fail(const FieldPath& path, const std::string& msg) {
  fail(path.str(), msg);
}

/// The largest value an integer field of type T carries on the wire:
/// its own maximum, capped at 2^53 where doubles stop being exact.
template <class T>
constexpr double max_wire_integer() {
  return std::min(9007199254740992.0,
                  static_cast<double>(std::numeric_limits<T>::max()));
}

/// Integers are read back through doubles; this bounds them BEFORE any
/// float→int cast (a NaN or 1e300 cast is undefined behaviour).
bool fits_integer(double v, double max) {
  return v >= 0.0 && v <= max && v == std::floor(v);
}
std::string not_an_integer(double v, double max) {
  return format_value(v) + " is not an integer in [0, " + format_value(max) +
         "]";
}

/// `parse(name)`, with an unknown name reported at `path`.
template <class E>
E parse_at(E (*parse)(const std::string&), const std::string& name,
           const FieldPath& path) {
  try {
    return parse(name);
  } catch (const std::exception& e) {
    fail(path, e.what());
  }
}

BackendKind backend_from_string(const std::string& name) {
  if (name == "analytic") return BackendKind::Analytic;
  if (name == "des") return BackendKind::Des;
  if (name == "protocol_sim") return BackendKind::ProtocolSim;
  throw std::invalid_argument("unknown backend '" + name +
                              "' (expected analytic | des | protocol_sim)");
}

ShardSpec::Policy policy_from_string(const std::string& name) {
  if (name == "all") return ShardSpec::Policy::All;
  if (name == "contiguous") return ShardSpec::Policy::Contiguous;
  if (name == "by_structure") return ShardSpec::Policy::ByStructure;
  if (name == "by_pilot_cost") return ShardSpec::Policy::ByPilotCost;
  if (name == "explicit") return ShardSpec::Policy::Explicit;
  throw std::invalid_argument(
      "unknown shard policy '" + name +
      "' (expected all | contiguous | by_structure | by_pilot_cost | "
      "explicit)");
}

/// The metric names a spec may request.
const std::vector<std::string>& known_metrics() {
  static const std::vector<std::string> kMetrics{
      "mttsf", "ctotal", "cost_breakdown", "p_failure", "survival"};
  return kMetrics;
}

// --- Generic numeric axis registry. -----------------------------------

/// A numeric axis writes Params fields from one double.  Its values are
/// judged by the field list's range for `field` (default: the axis
/// name) — the registry keeps no second copy of any range.
struct NumericAxisDef {
  const char* name;
  void (*set)(Params&, double);
  const char* field = nullptr;
};

constexpr NumericAxisDef kNumericAxes[] = {
    {"lambda_join", [](Params& p, double v) { p.lambda_join = v; }},
    {"mu_leave", [](Params& p, double v) { p.mu_leave = v; }},
    {"lambda_q", [](Params& p, double v) { p.lambda_q = v; }},
    {"lambda_c", [](Params& p, double v) { p.lambda_c = v; }},
    {"p_index", [](Params& p, double v) { p.p_index = v; }},
    {"p1", [](Params& p, double v) { p.p1 = v; }},
    {"p2", [](Params& p, double v) { p.p2 = v; }},
    {"host_ids_error",
     [](Params& p, double v) {
       p.p1 = v;
       p.p2 = v;
     },
     "p1"},  // p1 = p2 jointly, so p1's range judges both
    {"byzantine_fraction",
     [](Params& p, double v) { p.byzantine_fraction = v; }},
    {"n_init",
     [](Params& p, double v) { p.n_init = static_cast<std::int32_t>(v); }},
};

const NumericAxisDef* find_numeric_axis(const std::string& name) {
  for (const auto& def : kNumericAxes) {
    if (name == def.name) return &def;
  }
  return nullptr;
}

/// Walker that finds the top-level numeric Params field `key` and keeps
/// what its list entry admits.
struct FieldRange {
  std::string_view key;
  Check check = nullptr;
  double max_integer = 0.0;  ///< > 0: an integer field, [0, max_integer]

  template <class T, class Extra = Check>
  void field(const char* k, const T&, Extra extra = nullptr) {
    if constexpr (std::is_arithmetic_v<T>) {
      if (key != k) return;
      check = extra;
      if constexpr (std::is_integral_v<T>) max_integer = max_wire_integer<T>();
    }
  }
  template <class T>
  void optional(const char*, bool, const T&) {}
};

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

/// A categorical axis's levels, parsed (check_axis has vetted them).
template <class E>
std::vector<E> parse_levels(const AxisSpec& axis,
                           E (*parse)(const std::string&)) {
  std::vector<E> out;
  out.reserve(axis.levels.size());
  for (const auto& level : axis.levels) out.push_back(parse(level));
  return out;
}

/// Whether a model-axis level keeps its points inside the
/// time-homogeneous SPN.
bool analytic_level(const std::string& param, const std::string& level) {
  if (param == "detector_model") {
    ids::DetectorModel probe;
    probe.kind = ids::detector_kind_from_string(level);
    return probe.analytic_compatible();
  }
  sim::AttackerModel probe;
  probe.kind = sim::attacker_kind_from_string(level);
  return probe.analytic_compatible();
}

/// "spec.grid.axes[i]" — every axis-level error anchors here.
std::string axis_path(std::size_t i) {
  return "spec.grid.axes[" + std::to_string(i) + "]";
}

void check_axis(const AxisSpec& axis, std::size_t i) {
  const FieldPath axes("spec.grid.axes");
  const FieldPath path = axes[i];
  if (!is_known_axis(axis.param)) {
    fail(path / "param", "unknown axis parameter '" + axis.param + "'");
  }
  if (is_categorical_axis(axis.param)) {
    if (!axis.values.empty()) {
      fail(path / "values",
           "categorical axis '" + axis.param + "' takes levels, not values");
    }
    if (axis.levels.empty()) {
      fail(path / "levels", "axis '" + axis.param + "' has no levels");
    }
    const FieldPath levels = path / "levels";
    for (std::size_t k = 0; k < axis.levels.size(); ++k) {
      if (axis.param == "detector_model") {
        (void)parse_at(ids::detector_kind_from_string, axis.levels[k],
                       levels[k]);
      } else if (axis.param == "attacker_model") {
        (void)parse_at(sim::attacker_kind_from_string, axis.levels[k],
                       levels[k]);
      } else {
        (void)parse_at(ids::shape_from_string, axis.levels[k], levels[k]);
      }
    }
    return;
  }
  if (!axis.levels.empty()) {
    fail(path / "levels",
         "numeric axis '" + axis.param + "' takes values, not levels");
  }
  if (axis.values.empty()) {
    fail(path / "values", "axis '" + axis.param + "' has no values");
  }
  // Every numeric axis writes a Params field, and that field's list
  // entry judges the values — integer fields bounded before grid()
  // casts them.
  const NumericAxisDef* def = find_numeric_axis(axis.param);
  FieldRange range{def != nullptr && def->field != nullptr
                       ? std::string_view(def->field)
                       : std::string_view(axis.param)};
  static const Params kProbe;
  describe(range, kProbe);
  const FieldPath values = path / "values";
  for (std::size_t k = 0; k < axis.values.size(); ++k) {
    const double v = axis.values[k];
    if (range.max_integer > 0.0 && !fits_integer(v, range.max_integer)) {
      fail(values[k], not_an_integer(v, range.max_integer));
    }
    if (range.check == nullptr) continue;
    if (const char* err = range.check(v)) {
      fail(values[k], format_value(v) + " " + err);
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

// --- Field lists of the spec (core/fields.h), in JSON key order. -------

template <class Io, Of<AxisSpec> A>
void describe(Io& io, A& a) {
  io.field("param", a.param);
  // Categorical axes carry `levels`, numeric axes `values`.
  if (is_categorical_axis(a.param)) {
    io.field("levels", a.levels);
  } else {
    io.field("values", a.values);
  }
}

template <class Io, Of<AnalyticOptions> A>
void describe(Io& io, A& a) {
  io.field("batch", a.batch, positive);
}

template <class Io, Of<sim::McOptions> M>
void describe(Io& io, M& m) {
  io.field("base_seed", m.base_seed);
  io.field("min_replications", m.min_replications, positive);
  io.field("max_replications", m.max_replications);
  io.field("block", m.block, positive);
  io.field("rel_ci_target", m.rel_ci_target);
  io.field("crn", m.crn);
  io.field("point_stream_offset", m.point_stream_offset);
  io.field("antithetic", m.antithetic);
  io.field("threads", m.threads);
  io.field("capture_trajectories", m.capture_trajectories);
  io.field("survival_horizons", m.survival_horizons, nonnegative);
}

template <class Io, Of<vr::SobolOptions> S>
void describe(Io& io, S& s) {
  io.field("replicates", s.replicates);
  io.field("samples_per_replicate", s.samples_per_replicate);
}

template <class Io, Of<vr::ControlVariateOptions> C>
void describe(Io& io, C& c) {
  io.field("pilot", c.pilot);
  io.field("replications", c.replications);
}

template <class Io, Of<vr::SplittingOptions> S>
void describe(Io& io, S& s) {
  io.field("target", s.target);
  io.field("levels", s.levels);
  io.field("scheme", s.scheme);
  io.field("effort", s.effort);
  io.field("splitting_factor", s.splitting_factor);
  io.field("replicates", s.replicates);
}

template <class Io, Of<vr::VrOptions> V>
void describe(Io& io, V& v) {
  // A block is present exactly when its estimator is enabled.
  io.optional("sobol", v.sobol.enabled, v.sobol);
  io.optional("cv", v.cv.enabled, v.cv);
  io.optional("splitting", v.splitting.enabled, v.splitting);
}

template <class Io, Of<manet::MobilityParams> M>
void describe(Io& io, M& m) {
  io.field("field_radius_m", m.field_radius_m);
  io.field("speed_min_mps", m.speed_min_mps);
  io.field("speed_max_mps", m.speed_max_mps);
  io.field("pause_max_s", m.pause_max_s);
}

template <class Io, Of<ProtocolOptions> P>
void describe(Io& io, P& p) {
  io.field("mobility", p.mobility);
  io.field("radio_range_m", p.radio_range_m);
  io.field("tick_s", p.tick_s);
  io.field("topology_refresh_s", p.topology_refresh_s);
  io.field("max_time_s", p.max_time_s);
}

template <class Io, Of<ShardRange> R>
void describe(Io& io, R& r) {
  io.field("begin", r.begin);
  io.field("end", r.end);
}

template <class Io, Of<ShardSpec> S>
void describe(Io& io, S& s) {
  io.field("policy", s.policy, policy_from_string);
  io.field("num_shards", s.num_shards);
  io.field("shard_index", s.shard_index);
  io.field("pilot_replications", s.pilot_replications);
  io.field("range", s.range);
}

template <class Io, Of<ExperimentSpec> S>
void describe(Io& io, S& s) {
  io.tag("format", kSpecFormat);
  io.field("name", s.name);
  io.field("mode", s.mode);
  io.field("base", s.base);
  io.group("grid", [&](auto& grid) { grid.field("axes", s.axes); });
  io.field("backends", s.backends, backend_from_string);
  io.field("analytic", s.analytic);
  io.group("mc", [&](auto& mc) {
    describe(mc, s.mc);
    // Written only when the vr layer is on: a vr-less spec's bytes
    // (and every pre-vr golden) stay untouched.
    bool on = s.vr.any();
    mc.optional("vr", on, s.vr);
  });
  io.field("protocol", s.protocol);
  io.field("shard", s.shard);
  io.field("metrics", s.metrics);
}

// --- Field lists of the result payloads.  Raw accumulator states and
// counts travel; every Summary is re-derived on read, which keeps
// round-trips and shard merges bitwise.

template <class Io, Of<Evaluation> E>
void describe(Io& io, E& e) {
  io.field("mttsf", e.mttsf);
  io.field("ctotal", e.ctotal);
  io.field("cost_group_comm", e.cost_rates.group_comm);
  io.field("cost_status", e.cost_rates.status);
  io.field("cost_rekey", e.cost_rates.rekey);
  io.field("cost_ids", e.cost_rates.ids);
  io.field("cost_beacon", e.cost_rates.beacon);
  io.field("cost_partition_merge", e.cost_rates.partition_merge);
  io.field("eviction_cost_rate", e.eviction_cost_rate);
  io.field("p_failure_c1", e.p_failure_c1);
  io.field("p_failure_c2", e.p_failure_c2);
  io.field("num_states", e.num_states);
  io.field("solver_blocks", e.solver_blocks);
}

template <class Io, Of<sim::WelfordState> W>
void describe(Io& io, W& w) {
  io.field("n", w.n);
  io.field("mean", w.mean);
  io.field("m2", w.m2);
}

template <class Io, Of<sim::McPointResult> R>
void describe(Io& io, R& r) {
  io.field("ttsf", r.ttsf_state);
  io.field("cost_rate", r.cost_rate_state);
  io.field("replications", r.replications);
  io.field("failures_c1", r.failures_c1);
  io.field("converged", r.converged);
  io.field("keys_always_agreed", r.keys_always_agreed);
  io.field("timeouts", r.timeouts);
  io.field("survival_counts", r.survival_counts);
  io.derive(r, [](auto& x) {
    x.ttsf = sim::Welford::from_state(x.ttsf_state).summary();
    x.cost_rate = sim::Welford::from_state(x.cost_rate_state).summary();
    x.p_failure_c1 = x.replications > 0
                         ? static_cast<double>(x.failures_c1) /
                               static_cast<double>(x.replications)
                         : 0.0;
    x.p_failure = sim::binomial_summary(x.replications, x.failures_c1);
    x.survival.clear();
    for (const std::size_t count : x.survival_counts) {
      x.survival.push_back(sim::binomial_summary(x.replications, count));
    }
  });
}

template <class Io, Of<sim::MonteCarloEngine::Stats> S>
void describe(Io& io, S& s) {
  io.field("points", s.points);
  io.field("replications", s.replications);
  io.field("blocks", s.blocks);
  io.field("rounds", s.rounds);
  io.field("seconds", s.seconds);
}

template <class Io, Of<vr::CvMetric> M>
void describe(Io& io, M& m) {
  io.field("beta", m.beta);
  io.field("control_mean", m.control_mean);
  io.field("correlation", m.correlation);
  io.field("plain", m.plain_state);
  io.field("adjusted", m.adjusted_state);
  io.derive(m, [](auto& x) { x.finalize(); });
}

template <class Io, Of<vr::SobolResult> S>
void describe(Io& io, S& s) {
  io.field("replicates", s.replicates);
  io.field("samples_per_replicate", s.samples_per_replicate);
  io.field("ttsf_means", s.ttsf_means);
  io.field("cost_rate_means", s.cost_rate_means);
  io.derive(s, [](auto& x) {
    x.ttsf = sim::summarize(x.ttsf_means);
    x.cost_rate = sim::summarize(x.cost_rate_means);
  });
}

template <class Io, Of<vr::CvResult> C>
void describe(Io& io, C& c) {
  io.field("pilot", c.pilot);
  io.field("replications", c.replications);
  io.field("ttsf", c.ttsf);
  io.field("cost", c.cost);
}

template <class Io, Of<vr::SplittingLevel> L>
void describe(Io& io, L& l) {
  io.field("threshold", l.threshold);
  io.field("p_up", l.p_up);
  io.field("p_absorb", l.p_absorb);
}

template <class Io, Of<vr::SplittingResult> S>
void describe(Io& io, S& s) {
  io.field("target", s.target);
  io.field("scheme", s.scheme);
  io.field("replicates", s.replicates);
  io.field("effort", s.effort);
  io.field("trajectories", s.trajectories);
  io.field("estimates", s.estimates);
  io.field("levels", s.levels);
  io.derive(s, [](auto& x) {
    x.probability = vr::splitting_probability_summary(
        x.estimates, x.replicates * x.effort);
  });
}

template <class Io, Of<vr::VrPointResult> R>
void describe(Io& io, R& r) {
  io.optional("sobol", r.has_sobol, r.sobol);
  io.optional("cv", r.has_cv, r.cv);
  io.optional("splitting", r.has_splitting, r.splitting);
}

template <class Io, Of<BackendRun> B>
void describe(Io& io, B& run) {
  io.field("backend", run.kind, backend_from_string);
  io.field("seconds", run.seconds);
  if (run.kind == BackendKind::Analytic) {
    io.field("evals", run.evals);
    return;
  }
  io.field("mc", run.mc);
  io.field("mc_stats", run.mc_stats);
  // Only vr-enabled DES runs carry "vr", so vr-less bytes never change.
  bool has_vr = !run.vr.empty();
  io.optional("vr", has_vr, run.vr);
}

/// `spec` is the result's own spec on read and its whole-grid
/// normalisation on write (see ExperimentResult::to_json).
template <class Io, Of<ExperimentResult> R, Of<ExperimentSpec> S>
void describe(Io& io, R& r, S& spec) {
  io.tag("format", kResultFormat);
  io.field("spec", spec);
  io.field("range", r.range);
  io.field("num_shards", r.num_shards);
  io.field("shard_index", r.shard_index);
  io.field("shard_policy", r.shard_policy);
  io.field("backends", r.backends);
}

namespace {

// --- The JSON walkers. -------------------------------------------------

/// Writes a field list into a util::Json object.  Doubles round-trip
/// bitwise (non-finite ones as flag strings, util::Json::number).
class Encoder {
 public:
  Encoder(util::Json& out, const FieldPath& path) : out_(out), path_(path) {}

  template <class T, class Extra = Check>
  void field(const char* key, const T& v, Extra = nullptr) {
    out_.set(key, value(v, path_ / key));
  }
  template <class T>
  void optional(const char* key, bool on, const T& v) {
    if (on) field(key, v);
  }
  template <class Fn>
  void group(const char* key, Fn&& fn) {
    auto sub = util::Json::object();
    Encoder e(sub, path_ / key);
    fn(e);
    out_.set(key, std::move(sub));
  }
  void tag(const char* key, const char* text) {
    out_.set(key, util::Json(text));
  }
  template <class T, class Fn>
  void derive(const T&, Fn&&) {}

  template <class T>
  static util::Json value(const T& v, const FieldPath& path) {
    if constexpr (std::is_same_v<T, double>) {
      return util::Json::number(v);
    } else if constexpr (std::is_same_v<T, bool> ||
                         std::is_same_v<T, std::string>) {
      return util::Json(v);
    } else if constexpr (std::is_integral_v<T>) {
      // Integers travel as JSON numbers; past 2^53 they would stop
      // round-tripping exactly, so they are rejected here.
      constexpr std::int64_t kExact = std::int64_t{1} << 53;
      if (std::cmp_greater(v, kExact) || std::cmp_less(v, -kExact)) {
        fail(path, "integer " + std::to_string(v) +
                       " exceeds the 2^53 JSON-exact range");
      }
      return util::Json(static_cast<double>(v));
    } else if constexpr (std::is_enum_v<T>) {
      return util::Json(to_string(v));
    } else if constexpr (is_vector_v<T>) {
      auto arr = util::Json::array();
      for (std::size_t i = 0; i < v.size(); ++i) {
        arr.push_back(value(v[i], path[i]));
      }
      return arr;
    } else {
      auto obj = util::Json::object();
      Encoder e(obj, path);
      describe(e, v);
      return obj;
    }
  }

 private:
  util::Json& out_;
  FieldPath path_;
};

/// Reads a field list out of a util::Json object.  Every failure —
/// missing key, wrong type, out-of-range integer, unknown enum name, a
/// raw state its summary rejects — names the full JSON path.
class Decoder {
 public:
  Decoder(const util::Json& j, const FieldPath& path) : j_(j), path_(path) {
    if (j.type() != util::Json::Type::Object) {
      fail(path, "expected an object");
    }
  }

  /// `extra` is the enum parser for enum fields (a range check,
  /// ignored here, otherwise).
  template <class T, class Extra = Check>
  void field(const char* key, T& v, Extra extra = nullptr) {
    read(at(key), v, path_ / key, extra);
  }
  template <class T>
  void optional(const char* key, bool& on, T& v) {
    if (const util::Json* f = j_.find(key)) {
      on = true;
      read(*f, v, path_ / key, nullptr);
    }
  }
  template <class Fn>
  void group(const char* key, Fn&& fn) {
    Decoder sub(at(key), path_ / key);
    fn(sub);
  }
  void tag(const char* key, const char* text) {
    const util::Json& f = at(key);
    const FieldPath path = path_ / key;
    const std::string have = convert(path, [&] { return f.as_string(); });
    if (have != text) {
      fail(path, "unknown format '" + have + "' (expected " + text + ")");
    }
  }
  template <class T, class Fn>
  void derive(T& v, Fn&& fn) {
    convert(path_, [&] { fn(v); });
  }

  template <class T, class Extra>
  static void read(const util::Json& j, T& v, const FieldPath& path,
                   Extra parse) {
    if constexpr (std::is_same_v<T, double>) {
      v = convert(path, [&] { return j.to_double(); });
    } else if constexpr (std::is_same_v<T, bool>) {
      v = convert(path, [&] { return j.as_bool(); });
    } else if constexpr (std::is_integral_v<T>) {
      const double d = convert(path, [&] { return j.as_number(); });
      constexpr double kMax = max_wire_integer<T>();
      if (!fits_integer(d, kMax)) fail(path, not_an_integer(d, kMax));
      v = static_cast<T>(d);
    } else if constexpr (std::is_same_v<T, std::string>) {
      v = convert(path, [&] { return j.as_string(); });
    } else if constexpr (std::is_enum_v<T>) {
      v = convert(path, [&] { return parse(j.as_string()); });
    } else if constexpr (is_vector_v<T>) {
      if (j.type() != util::Json::Type::Array) {
        fail(path, "expected an array");
      }
      v.clear();
      v.reserve(j.size());
      for (std::size_t i = 0; i < j.size(); ++i) {
        typename T::value_type element{};
        read(j.elements()[i], element, path[i], parse);
        v.push_back(std::move(element));
      }
    } else {
      Decoder sub(j, path);
      describe(sub, v);
    }
  }

 private:
  [[nodiscard]] const util::Json& at(const char* key) const {
    const util::Json* f = j_.find(key);
    if (f == nullptr) fail(path_ / key, "missing required field");
    return *f;
  }

  /// fn(), with any failure re-thrown at `path`.
  template <class Fn>
  static auto convert(const FieldPath& path, Fn&& fn) -> decltype(fn()) {
    try {
      return fn();
    } catch (const std::exception& e) {
      fail(path, e.what());
    }
  }

  const util::Json& j_;
  FieldPath path_;
};

}  // namespace

// --- Spec. ------------------------------------------------------------

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
        spec.axis("detector_model", axis.levels,
                  [kinds = parse_levels(axis, ids::detector_kind_from_string)](
                      Params& p, std::size_t k) {
                    p.detector.kind = kinds[k];
                  });
      } else if (axis.param == "attacker_model") {
        spec.axis("attacker_model", axis.levels,
                  [kinds = parse_levels(axis, sim::attacker_kind_from_string)](
                      Params& p, std::size_t k) {
                    p.attacker.kind = kinds[k];
                  });
      } else if (axis.param == "detection_shape") {
        spec.detection_shape(parse_levels(axis, ids::shape_from_string));
      } else if (axis.param == "attacker_shape") {
        spec.attacker_shape(parse_levels(axis, ids::shape_from_string));
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
  // Every single-field range first (spec.base.p1, spec.mc.block, ...),
  // read off the field lists, so the error names the exact path.
  Checker checker("ExperimentSpec: ", FieldPath("spec"));
  describe(checker, *this);
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
    base.validate();  // what remains: the cross-field rules
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
    const auto reject = [&](const std::string& param,
                            const std::string& level, const FieldPath& path) {
      if (analytic_level(param, level)) return;
      if (param == "detector_model") {
        fail(path, "detector model '" + level +
                       "' is time-dependent and outside the analytic SPN; "
                       "drop 'analytic' from spec.backends and "
                       "cross-validate with des/protocol_sim — or, if the "
                       "time dependence is piecewise-constant, express it "
                       "with the first-class spec.base.schedule / "
                       "spec.base.mission fields, which the analytic "
                       "backend chains exactly");
      }
      fail(path, "attacker model '" + level +
                     "' is not a memoryless single-victim process and "
                     "outside the analytic SPN; drop 'analytic' from "
                     "spec.backends and cross-validate with "
                     "des/protocol_sim");
    };
    reject("detector_model", ids::to_string(base.detector.kind),
           FieldPath("spec.base.detector.kind"));
    reject("attacker_model", sim::to_string(base.attacker.kind),
           FieldPath("spec.base.attacker.kind"));
    const FieldPath axes_path("spec.grid.axes");
    for (std::size_t i = 0; i < axes.size(); ++i) {
      if (!is_model_axis(axes[i].param)) continue;
      const FieldPath axis = axes_path[i];
      const FieldPath levels = axis / "levels";
      for (std::size_t k = 0; k < axes[i].levels.size(); ++k) {
        reject(axes[i].param, axes[i].levels[k], levels[k]);
      }
    }
  }
  for (std::size_t i = 0; i < backends.size(); ++i) {
    for (std::size_t k = 0; k < i; ++k) {
      if (backends[k] == backends[i]) {
        fail("spec.backends[" + std::to_string(i) + "]",
             "duplicate backend '" + to_string(backends[i]) + "'");
      }
    }
  }

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
          if (!analytic_level(axes[i].param, axes[i].levels[k])) {
            fail(axis_path(i) + ".levels[" + std::to_string(k) + "]",
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
  return Encoder::value(*this, FieldPath("spec"));
}

ExperimentSpec ExperimentSpec::from_json(const util::Json& j) {
  ExperimentSpec spec;
  Decoder::read(j, spec, FieldPath("spec"), nullptr);
  spec.validate();
  return spec;
}

util::Json mc_point_to_json(const sim::McPointResult& r) {
  return Encoder::value(r, FieldPath("mc"));
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
  // The embedded spec is normalised to the whole grid so every shard of
  // one run carries the IDENTICAL spec document; the slice lives in
  // range/num_shards/shard_index.
  ExperimentSpec normalised = spec;
  normalised.shard = ShardSpec{};
  auto j = util::Json::object();
  Encoder encoder(j, FieldPath("result"));
  describe(encoder, *this, normalised);
  return j;
}

ExperimentResult ExperimentResult::from_json(const util::Json& j) {
  ExperimentResult result;
  Decoder decoder(j, FieldPath("result"));
  describe(decoder, result, result.spec);
  result.spec.validate();
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
