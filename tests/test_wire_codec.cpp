// The experiment wire codec: every spec/result field is declared once
// (core/fields.h) and walked by the encoder, the decoder and the range
// checker.  These tests pin the uniform path-named errors — per Params
// range check, for out-of-range integers (never wrapped), integer axis
// values (bounded before any float→int cast) and result payloads — and
// run a seeded mutation fuzz over both decoders: a mutated document
// either decodes to a canonical form that re-encodes byte-stably, or is
// rejected with a message naming a spec./result. path.  Never a crash.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/experiment_presets.h"

namespace {

using namespace midas;
using core::BackendKind;
using core::ExperimentResult;
using core::ExperimentSpec;
using core::Params;
using util::Json;

/// The message `call` throws (std::exception), or "" when it does not.
template <class Call>
std::string error_of(Call&& call) {
  try {
    call();
  } catch (const std::exception& e) {
    return e.what();
  }
  return {};
}

/// `j` with the value at `path` replaced; array steps are indices.
Json replaced(const Json& j, std::span<const std::string> path,
              const Json& value) {
  if (path.empty()) return value;
  if (j.type() == Json::Type::Array) {
    const std::size_t at = std::stoul(path[0]);
    auto out = Json::array();
    for (std::size_t i = 0; i < j.size(); ++i) {
      out.push_back(i == at ? replaced(j.at(i), path.subspan(1), value)
                            : j.at(i));
    }
    return out;
  }
  Json out = j;
  out.set(path[0], replaced(j.at(path[0]), path.subspan(1), value));
  return out;
}
Json replaced(const Json& j, const std::vector<std::string>& path,
              const Json& value) {
  return replaced(j, std::span<const std::string>(path), value);
}

/// Tiny population so every backend answers in milliseconds.
ExperimentSpec tiny_spec(std::vector<BackendKind> backends) {
  ExperimentSpec spec;
  spec.name = "wire";
  spec.base = Params::paper_defaults();
  spec.base.n_init = 8;
  spec.base.max_groups = 1;
  spec.base.lambda_c = 1.0 / 500.0;
  core::AxisSpec t_ids;
  t_ids.param = "t_ids";
  t_ids.values = {60.0, 120.0, 240.0};
  spec.axes = {std::move(t_ids)};
  spec.backends = std::move(backends);
  spec.mc.base_seed = 7;
  spec.mc.rel_ci_target = 0.0;
  spec.mc.min_replications = 8;
  spec.mc.max_replications = 8;
  spec.mc.block = 4;
  spec.mc.survival_horizons = {600.0};
  return spec;
}

/// Analytic + DES (with every vr estimator on) and protocol-sim result
/// documents, run once.
const std::vector<Json>& result_documents() {
  static const std::vector<Json> docs = [] {
    core::ExperimentService service({.threads = 2});
    ExperimentSpec des = tiny_spec({BackendKind::Analytic, BackendKind::Des});
    des.vr.sobol.enabled = true;
    des.vr.sobol.replicates = 2;
    des.vr.sobol.samples_per_replicate = 4;
    des.vr.cv.enabled = true;
    des.vr.cv.pilot = 4;
    des.vr.cv.replications = 8;
    des.vr.splitting.enabled = true;
    des.vr.splitting.target = "c2";
    des.vr.splitting.levels = {1, 2};
    des.vr.splitting.effort = 4;
    des.vr.splitting.replicates = 2;
    ExperimentSpec protocol = tiny_spec({BackendKind::ProtocolSim});
    protocol.axes[0].values = {60.0};
    protocol.mc.min_replications = 2;
    protocol.mc.max_replications = 2;
    protocol.mc.block = 2;
    protocol.protocol.max_time_s = 1800.0;
    return std::vector<Json>{service.run(des).to_json(),
                             service.run(protocol).to_json()};
  }();
  return docs;
}

// --- Path-named errors. ------------------------------------------------

TEST(WireCodec, EveryParamsRangeCheckNamesItsPath) {
  struct Case {
    const char* field;
    void (*mutate)(Params&);
    const char* text;
  };
  const Case cases[] = {
      {"n_init", [](Params& p) { p.n_init = 1; }, "1 must be at least 2"},
      {"lambda_join", [](Params& p) { p.lambda_join = -1; },
       "-1 must be non-negative"},
      {"mu_leave", [](Params& p) { p.mu_leave = -1; },
       "-1 must be non-negative"},
      {"lambda_q", [](Params& p) { p.lambda_q = -0.5; },
       "-0.5 must be non-negative"},
      {"lambda_c", [](Params& p) { p.lambda_c = -2; },
       "-2 must be non-negative"},
      {"p_index", [](Params& p) { p.p_index = 1; }, "1 must be > 1"},
      {"t_ids", [](Params& p) { p.t_ids = 0; }, "0 must be positive"},
      {"num_voters", [](Params& p) { p.num_voters = 0; },
       "0 must be positive"},
      {"p1", [](Params& p) { p.p1 = 1.5; }, "1.5 outside [0,1]"},
      {"p2", [](Params& p) { p.p2 = -0.1; }, "-0.1 outside [0,1]"},
      {"byzantine_fraction", [](Params& p) { p.byzantine_fraction = 1; },
       "1 outside (0,1)"},
      {"max_groups", [](Params& p) { p.max_groups = 0; },
       "0 must be positive"},
  };
  for (const Case& c : cases) {
    Params p = Params::paper_defaults();
    c.mutate(p);
    EXPECT_EQ(error_of([&] { p.validate(); }),
              std::string("Params: ") + c.field + ": " + c.text);
    ExperimentSpec spec = core::experiment_preset("fig2", /*smoke=*/true);
    spec.base = p;
    EXPECT_EQ(error_of([&] { spec.validate(); }),
              std::string("ExperimentSpec: spec.base.") + c.field + ": " +
                  c.text);
  }
}

TEST(WireCodec, EveryProtocolRangeCheckNamesItsPath) {
  struct Case {
    const char* path;
    void (*mutate)(core::ProtocolOptions&);
    const char* text;
  };
  constexpr double nan = std::numeric_limits<double>::quiet_NaN();
  const Case cases[] = {
      {"radio_range_m", [](auto& p) { p.radio_range_m = -5; },
       "-5 must be positive"},
      {"radio_range_m", [](auto& p) { p.radio_range_m = nan; },
       "nan must be positive"},
      {"topology_refresh_s", [](auto& p) { p.topology_refresh_s = nan; },
       "nan must be positive"},
      {"max_time_s", [](auto& p) { p.max_time_s = nan; },
       "nan must be positive"},
      {"mobility.field_radius_m",
       [](auto& p) { p.mobility.field_radius_m = nan; },
       "nan must be positive"},
      {"mobility.speed_min_mps", [](auto& p) { p.mobility.speed_min_mps = 0; },
       "0 must be positive"},
      {"mobility.speed_max_mps",
       [](auto& p) { p.mobility.speed_max_mps = nan; },
       "nan must be positive"},
      {"mobility.pause_max_s", [](auto& p) { p.mobility.pause_max_s = -1; },
       "-1 must be non-negative"},
      {"mobility.speed_max_mps",
       [](auto& p) {
         p.mobility.speed_min_mps = 5;
         p.mobility.speed_max_mps = 2;
       },
       "must be at least speed_min_mps"},
  };
  for (const Case& c : cases) {
    ExperimentSpec spec = core::experiment_preset("val_protocol", true);
    c.mutate(spec.protocol);
    EXPECT_EQ(error_of([&] { spec.validate(); }),
              std::string("ExperimentSpec: spec.protocol.") + c.path + ": " +
                  c.text);
  }
  // +inf stays a legal horizon (the protocol backend's "never time out").
  ExperimentSpec spec = core::experiment_preset("val_protocol", true);
  spec.protocol.max_time_s = std::numeric_limits<double>::infinity();
  EXPECT_EQ(error_of([&] { spec.validate(); }), "");
}

TEST(WireCodec, NegativeRateInASpecFileNamesItsPath) {
  const Json j = replaced(core::experiment_preset("fig2", true).to_json(),
                          {"base", "mu_leave"}, Json(-1.0));
  EXPECT_EQ(error_of([&] { (void)ExperimentSpec::from_json(j); }),
            "ExperimentSpec: spec.base.mu_leave: -1 must be non-negative");
}

TEST(WireCodec, OutOfRangeIntegersAreRejectedNotWrapped) {
  // 2^32 + 10 would wrap to 10 through an int32 cast.
  const Json spec = core::experiment_preset("fig2", true).to_json();
  for (const char* field : {"n_init", "max_groups"}) {
    const Json j = replaced(spec, {"base", field}, Json(4294967306.0));
    EXPECT_EQ(error_of([&] { (void)ExperimentSpec::from_json(j); }),
              std::string("ExperimentSpec: spec.base.") + field +
                  ": 4294967306 is not an integer in [0, 2147483647]");
  }
  // Integer fields reject fractions, negatives and non-numbers too.
  for (const Json& bad : {Json(2.5), Json(-3.0), Json("nan")}) {
    const Json j = replaced(spec, {"mc", "block"}, bad);
    EXPECT_NE(error_of([&] { (void)ExperimentSpec::from_json(j); })
                  .find("ExperimentSpec: spec.mc.block: "),
              std::string::npos);
  }
}

TEST(WireCodec, IntegerAxisValuesAreBoundedBeforeTheCast) {
  for (const char* param : {"n_init", "num_voters"}) {
    for (const double bad : {1e10, 1e300, 2.5, -1.0}) {
      if (std::string(param) == "num_voters" && bad == 1e10) continue;
      ExperimentSpec spec = core::experiment_preset("fig2", true);
      core::AxisSpec axis;
      axis.param = param;
      axis.values = {4.0, bad};
      spec.axes = {axis};
      const std::string want =
          "ExperimentSpec: spec.grid.axes[0].values[1]: ";
      // grid() bounds the value before it casts, validate() likewise.
      EXPECT_EQ(error_of([&] { (void)spec.grid(); }).rfind(want, 0), 0u)
          << param << " " << bad;
      EXPECT_EQ(error_of([&] { spec.validate(); }).rfind(want, 0), 0u)
          << param << " " << bad;
    }
  }
  ExperimentSpec spec = core::experiment_preset("fig2", true);
  core::AxisSpec axis;
  axis.param = "n_init";
  axis.values = {1e10};
  spec.axes = {axis};
  EXPECT_EQ(error_of([&] { spec.validate(); }),
            "ExperimentSpec: spec.grid.axes[0].values[0]: 1e+10 is not an "
            "integer in [0, 2147483647]");
}

TEST(WireCodec, ResultPayloadErrorsNameTheirPath) {
  const Json& doc = result_documents()[0];  // backends: analytic, des
  const auto expect_path = [&](const std::vector<std::string>& path,
                               const Json& value, const std::string& want) {
    const Json j = replaced(doc, path, value);
    const std::string msg =
        error_of([&] { (void)ExperimentResult::from_json(j); });
    EXPECT_NE(msg.find(want), std::string::npos) << msg;
  };
  expect_path({"backends", "1", "mc", "2", "ttsf", "m2"}, Json("x"),
              "result.backends[1].mc[2].ttsf.m2");
  expect_path({"backends", "0", "evals", "1", "num_states"}, Json(-1.0),
              "result.backends[0].evals[1].num_states");
  // A raw state its summary rejects is named at the owning object.
  expect_path({"backends", "1", "mc", "0", "ttsf", "m2"}, Json(-1.0),
              "result.backends[1].mc[0]: Welford");
  // Splitting thresholds are integers: NaN and 1e300 are rejected, not
  // cast.
  for (const Json& bad : {Json("nan"), Json(1e300)}) {
    expect_path({"backends", "1", "vr", "0", "splitting", "levels", "0",
                 "threshold"},
                bad, "result.backends[1].vr[0].splitting.levels[0].threshold");
  }
  // A missing key names the point it is missing from.
  Json evals = Json::object();
  for (const auto& [key, value] : doc.at("backends").at(0).at("evals")
                                      .at(2).members()) {
    if (key != "mttsf") evals.set(key, value);
  }
  expect_path({"backends", "0", "evals", "2"}, evals,
              "result.backends[0].evals[2].mttsf: missing required field");
}

// --- Seeded mutation fuzz. ---------------------------------------------

enum class Mutation { DeleteKey, ChangeType, SetNumber, Truncate, Duplicate };

/// Applies one mutation at pre-order node `target` (the root is node 0
/// and never mutated) while copying a JSON tree.
class Mutator {
 public:
  Mutator(Mutation op, std::size_t target, std::mt19937_64& rng)
      : op_(op), target_(target), rng_(rng) {}

  /// Pre-order indices of the nodes `op` applies to.
  static std::vector<std::size_t> eligible(const Json& root, Mutation op) {
    std::vector<std::size_t> out;
    std::size_t next = 0;
    collect(root, op, /*member=*/false, next, out);
    return out;
  }

  Json copy(const Json& j) {
    const std::size_t self = next_++;
    if (self == target_) return mutated(j);
    if (j.type() == Json::Type::Object) {
      auto out = Json::object();
      for (const auto& [key, value] : j.members()) {
        const bool drop = op_ == Mutation::DeleteKey && next_ == target_;
        Json v = copy(value);
        if (!drop) out.set(key, std::move(v));
      }
      return out;
    }
    if (j.type() == Json::Type::Array) {
      auto out = Json::array();
      for (const auto& e : j.elements()) out.push_back(copy(e));
      return out;
    }
    return j;
  }

 private:
  static void collect(const Json& j, Mutation op, bool member,
                      std::size_t& next, std::vector<std::size_t>& out) {
    const std::size_t self = next++;
    const bool array = j.type() == Json::Type::Array && j.size() > 0;
    const bool ok = self != 0 && [&] {
      switch (op) {
        case Mutation::DeleteKey: return member;
        case Mutation::ChangeType: return true;
        case Mutation::SetNumber: return j.type() == Json::Type::Number;
        case Mutation::Truncate:
        case Mutation::Duplicate: return array;
      }
      return false;
    }();
    if (ok) out.push_back(self);
    if (j.type() == Json::Type::Object) {
      for (const auto& [key, value] : j.members()) {
        collect(value, op, true, next, out);
      }
    } else if (j.type() == Json::Type::Array) {
      for (const auto& e : j.elements()) collect(e, op, false, next, out);
    }
  }

  Json mutated(const Json& j) {
    switch (op_) {
      case Mutation::DeleteKey:
        return j;  // dropped by the parent
      case Mutation::ChangeType:
        switch (j.type()) {
          case Json::Type::Number: return Json("x");
          case Json::Type::String: return Json(7.0);
          case Json::Type::Bool: return Json(1.0);
          case Json::Type::Array: return Json::object();
          case Json::Type::Object:
            return rng_() % 2 ? Json::array() : Json(0.0);
          case Json::Type::Null: return Json(true);
        }
        return j;
      case Mutation::SetNumber: {
        static const Json kValues[] = {Json(-1.0), Json(0.5), Json(1e300),
                                       Json(4294967306.0), Json("nan")};
        return kValues[rng_() % 5];
      }
      case Mutation::Truncate:
      case Mutation::Duplicate: {
        const std::size_t pick = rng_() % j.size();
        auto out = Json::array();
        for (std::size_t i = 0; i < j.size(); ++i) {
          if (i == pick && op_ == Mutation::Truncate) continue;
          out.push_back(j.at(i));
          if (i == pick) out.push_back(j.at(i));
        }
        return out;
      }
    }
    return j;
  }

  Mutation op_;
  std::size_t target_;
  std::mt19937_64& rng_;
  std::size_t next_ = 0;
};

/// Either `doc` decodes to a canonical form that is a fixed point of
/// decode + encode, or decoding fails naming a spec./result. path.
template <class Doc>
void check_mutant(const Json& doc, const std::string& label) {
  std::string once;
  try {
    once = Doc::from_json(doc).to_json().dump();
  } catch (const std::exception& e) {
    const std::string msg = e.what();
    EXPECT_TRUE(msg.find("spec.") != std::string::npos ||
                msg.find("result.") != std::string::npos)
        << label << ": " << msg;
    return;
  }
  const std::string twice = Doc::from_json(Json::parse(once)).to_json().dump();
  EXPECT_EQ(once, twice) << label;
}

template <class Doc>
void fuzz(const Json& doc, const std::string& name, std::size_t rounds,
          std::mt19937_64& rng) {
  for (std::size_t round = 0; round < rounds; ++round) {
    const auto op = static_cast<Mutation>(rng() % 5);
    const auto nodes = Mutator::eligible(doc, op);
    if (nodes.empty()) continue;
    const std::size_t target = nodes[rng() % nodes.size()];
    Mutator mutator(op, target, rng);
    check_mutant<Doc>(mutator.copy(doc),
                      name + " round " + std::to_string(round) + " op " +
                          std::to_string(static_cast<int>(op)) + " node " +
                          std::to_string(target));
  }
}

TEST(WireFuzz, MutatedSpecsFailByPathOrRoundTripByteStably) {
  std::mt19937_64 rng(0x5EC5);
  for (const auto& name : core::experiment_preset_names()) {
    fuzz<ExperimentSpec>(core::experiment_preset(name, true).to_json(), name,
                         48, rng);
  }
}

TEST(WireFuzz, MutatedResultsFailByPathOrRoundTripByteStably) {
  std::mt19937_64 rng(0xF22);
  for (const Json& doc : result_documents()) {
    fuzz<ExperimentResult>(doc, "result", 400, rng);
  }
}

}  // namespace
