#include "workload.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "core/sweep_engine.h"
#include "ids/voting.h"
#include "sim/des.h"

namespace perfbench {

namespace mc = midas::core;
using midas::util::Json;

namespace {

/// The benchmark's own SplitMix64, so a library change to sim::rng
/// cannot change the generated inputs.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

constexpr std::uint64_t kJsonExact = (std::uint64_t{1} << 53) - 1;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("perfbench: cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{
      "des_fig2val", "protocol_val", "mission_phased", "analytic_sweep"};
  return names;
}

void require_workload(const std::string& name) {
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), name) != names.end()) return;
  std::string known;
  for (const auto& n : names) known += known.empty() ? n : " | " + n;
  throw std::invalid_argument("unknown workload '" + name + "' (expected " +
                              known + ")");
}

std::size_t traced_requests(const std::string& workload) {
  return workload == "analytic_sweep" ? 4 : 2;
}

RequestGenerator::RequestGenerator(std::string workload, std::uint64_t seed,
                                   Json spec_template)
    : workload_(std::move(workload)),
      seed_(seed),
      template_(std::move(spec_template)) {
  require_workload(workload_);
  const auto& names = workload_names();
  tag_ = static_cast<std::uint64_t>(
      std::find(names.begin(), names.end(), workload_) - names.begin());
}

std::uint64_t RequestGenerator::base_seed(std::size_t index) const {
  const std::uint64_t stream = mix(seed_ ^ mix(tag_ + 1));
  return mix(stream + mix(static_cast<std::uint64_t>(index) + 1)) &
         kJsonExact;
}

std::vector<double> RequestGenerator::t_ids(std::size_t index) const {
  if (workload_ != "analytic_sweep") return {};
  constexpr std::size_t kPoints = 40;
  constexpr double kLo = 5.0, kHi = 1200.0;
  std::uint64_t state = mix(base_seed(index) ^ 0x7D5A11CEULL);
  std::vector<double> values;
  values.reserve(kPoints);
  for (std::size_t k = 0; k < kPoints; ++k) {
    state = mix(state);
    const double u = static_cast<double>(state >> 11) * 0x1.0p-53;
    values.push_back(kLo * std::pow(kHi / kLo, u));
  }
  std::sort(values.begin(), values.end());
  return values;
}

std::string RequestGenerator::request(std::size_t index) const {
  Json spec = template_;
  Json mc_json = spec.at("mc");
  mc_json.set("base_seed", Json(static_cast<double>(base_seed(index))));
  spec.set("mc", mc_json);

  const auto draws = t_ids(index);
  if (!draws.empty()) {
    Json axes = Json::array();
    for (const auto& axis : spec.at("grid").at("axes").elements()) {
      if (axis.at("param").as_string() != "t_ids") {
        axes.push_back(axis);
        continue;
      }
      Json values = Json::array();
      for (const double t : draws) values.push_back(Json(t));
      Json replaced = Json::object();
      replaced.set("param", "t_ids");
      replaced.set("values", values);
      axes.push_back(replaced);
    }
    Json grid = spec.at("grid");
    grid.set("axes", axes);
    spec.set("grid", grid);
  }
  return spec.dump_compact();
}

Ready set_up(const std::string& spec_dir, const std::string& workload,
             std::size_t threads, SetupProbe* probe) {
  SetupProbe none;
  SetupProbe& p = probe != nullptr ? *probe : none;
  Ready ready;

  p.begin("setup.service");
  mc::ExperimentServiceOptions opts;
  opts.threads = threads;
  ready.service = std::make_unique<mc::ExperimentService>(opts);
  p.end();

  p.begin("setup.spec");
  ready.spec_json = Json::parse(read_file(spec_dir + "/" + workload + ".json"));
  ready.spec = mc::ExperimentSpec::from_json(ready.spec_json);
  ready.spec.validate();
  const auto grid = ready.spec.grid();
  const auto points = grid.expand(ready.spec.base);
  p.end();

  // Every constant parameterisation a backend will build: the grid
  // points themselves, or each point's resolved mission segments.
  std::vector<mc::Params> constant;
  for (const auto& point : points) {
    if (!point.time_varying()) {
      constant.push_back(point);
      continue;
    }
    for (const auto& seg : mc::resolve_timeline(point)) {
      constant.push_back(seg.params);
    }
  }

  std::set<std::tuple<std::int64_t, double, double, std::int64_t>> voting;
  for (const auto& c : constant) {
    if (!voting.emplace(c.num_voters, c.p1, c.p2, c.n_init).second) continue;
    p.begin("ids.voting_table");
    (void)midas::ids::shared_voting_table(
        midas::ids::VotingParams{c.num_voters, c.p1, c.p2}, c.n_init,
        c.n_init);
    p.end();
  }
  ready.voting_tables = voting.size();

  // The service's structure cache serves constant analytic grids only;
  // MissionAnalyzer explores per call, so phased grids have nothing to
  // warm there.
  if (ready.spec.wants(mc::BackendKind::Analytic) &&
      !ready.spec.base.time_varying()) {
    p.begin("setup.structures");
    std::map<std::string, mc::Params> per_structure;
    for (const auto& point : points) {
      per_structure.emplace(mc::structure_key(point), point);
    }
    std::vector<mc::Params> representatives;
    for (const auto& [key, point] : per_structure) {
      representatives.push_back(point);
    }
    (void)ready.service->sweep_engine().evaluate(representatives,
                                                 ready.spec.analytic.batch);
    p.end();
  }

  if (ready.spec.wants(mc::BackendKind::Des)) {
    p.begin("setup.des_contexts");
    for (const auto& point : points) (void)midas::sim::DesContext(point);
    p.end();
  }
  return ready;
}

}  // namespace perfbench
