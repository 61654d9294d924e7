#include "core/mission.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_map>

#include "core/sweep_engine.h"
#include "spn/marking.h"

namespace midas::core {

MissionAnalyzer::MissionAnalyzer(Params params, MissionOptions options)
    : options_(options) {
  params.validate();
  timeline_ = resolve_timeline(params);
  segments_.reserve(timeline_.size());
  for (const auto& seg : timeline_) {
    Segment s;
    s.model = std::make_unique<GcsSpnModel>(seg.params);
    segments_.push_back(std::move(s));
  }
  if (segments_.size() == 1) return;  // constant: the model IS the answer

  // Graph per segment: the first segment explores; later segments with
  // the same structure key re-rate that graph through its plan (a batch
  // of one point per phase — the sweep-engine reuse idiom), others
  // explore their own and get their own plan.
  const auto& graph0 = segments_[0].model->graph();
  const std::string key0 = structure_key(timeline_[0].params);
  for (std::size_t k = 0; k < segments_.size(); ++k) {
    auto& s = segments_[k];
    if (k > 0 && structure_key(timeline_[k].params) == key0) {
      s.graph = &graph0;
      s.plan = segments_[0].plan;
    } else {
      s.graph = &s.model->graph();
      plans_.push_back(
          std::make_unique<const StructurePlan>(*s.model, *s.graph));
      s.plan = plans_.back().get();
    }
    // A phase that alters the edge structure fails here, not mid-chain.
    (void)rate_segment(k);
  }
}

MissionAnalyzer::SegmentRates MissionAnalyzer::rate_segment(
    std::size_t k) const {
  const auto& seg = segments_[k];
  SegmentRates out;
  out.rates.resize(seg.graph->edges.size());
  out.impulses.resize(seg.graph->edges.size());
  const GcsSpnModel* model = seg.model.get();
  seg.plan->rate({&model, 1}, out.rates, out.impulses);
  return out;
}

std::vector<double> MissionAnalyzer::remap_weights(
    std::span<const double> weights, std::size_t from,
    std::size_t to) const {
  const auto& src = *segments_[from].graph;
  const auto& dst = *segments_[to].graph;
  if (&src == &dst) return {weights.begin(), weights.end()};

  std::unordered_map<spn::Marking, spn::StateId, spn::MarkingHash> index;
  index.reserve(dst.num_states());
  for (std::size_t s = 0; s < dst.num_states(); ++s) {
    index.emplace(dst.states[s], static_cast<spn::StateId>(s));
  }
  std::vector<double> out(dst.num_states(), 0.0);
  double total = 0.0;
  double lost = 0.0;
  const spn::Marking* first_lost = nullptr;
  for (std::size_t s = 0; s < src.num_states(); ++s) {
    const double w = weights[s];
    if (w == 0.0) continue;
    total += w;
    const auto it = index.find(src.states[s]);
    if (it != index.end()) {
      out[it->second] = w;
    } else {
      lost += w;
      if (first_lost == nullptr) first_lost = &src.states[s];
    }
  }
  if (lost > 1e-12 * std::max(total, 1e-300)) {
    throw std::runtime_error(
        "MissionAnalyzer: phase boundary '" + timeline_[from].label +
        "' -> '" + timeline_[to].label + "' leaves probability mass " +
        std::to_string(lost) + " in marking " + first_lost->to_string() +
        " (and possibly others) that the next phase's chain cannot "
        "represent — its rate structure makes the marking unreachable; "
        "keep the phases structurally compatible (same zero-rate "
        "pattern) or route the spec to the des backend");
  }
  return out;
}

Evaluation MissionAnalyzer::evaluate() const {
  if (segments_.size() == 1) return segments_[0].model->evaluate();

  // Every segment is rewarded by the one reward pass of every
  // constant-rate evaluation, as a batch of one: a finite phase with
  // its occupancy and absorbed mass, the tail with its sojourn and
  // absorption probabilities.
  RewardSums acc;
  const auto reward = [&](std::size_t k, const SegmentRates& r,
                          std::span<const double> sojourn,
                          std::span<const double> absorbed) {
    const GcsSpnModel* model = segments_[k].model.get();
    acc += accumulate_rewards({&model, 1}, *segments_[k].plan, sojourn,
                              absorbed, r.rates, r.impulses)
               .front();
  };
  std::vector<double> w;  // boundary weights (full-state, per graph)
  double mttsf = 0.0;
  for (std::size_t k = 0; k + 1 < segments_.size(); ++k) {
    const auto& seg = segments_[k];
    const double duration =
        timeline_[k + 1].start_s - timeline_[k].start_s;
    const auto r = rate_segment(k);
    const spn::ReliabilityOde ode(*seg.graph, r.rates);
    const auto res = ode.propagate(w, duration, {}, options_.ode);
    // accumulate_rewards skips non-positive sojourn: a negative entry
    // must fail here rather than drop out of every reward.
    spn::check_transient_mass(
        res.occupancy, *seg.graph,
        "MissionAnalyzer: phase '" + timeline_[k].label + "' occupancy");
    mttsf += res.survival_integral;
    reward(k, r, res.occupancy, res.absorbed);
    w = remap_weights(res.weights, k, k + 1);
  }

  // Final (infinite-horizon) segment: close the chain analytically from
  // the boundary distribution.
  const std::size_t last = segments_.size() - 1;
  const auto r = rate_segment(last);
  const spn::AbsorbingAnalyzer analyzer(*segments_[last].graph);
  const auto res = analyzer.solve_from(w, r.rates);
  reward(last, r, res.sojourn, res.absorb_probability);

  Evaluation ev;
  ev.num_states = segments_[0].graph->num_states();
  ev.solver_blocks = res.solver_blocks;
  ev.mttsf = mttsf + res.mtta;
  acc.normalise(ev);
  return ev;
}

std::vector<double> MissionAnalyzer::reliability_at(
    std::span<const double> times) const {
  if (segments_.size() == 1) {
    return segments_[0].model->reliability_at(times);
  }
  if (!std::is_sorted(times.begin(), times.end())) {
    throw std::invalid_argument(
        "MissionAnalyzer::reliability_at: times must be ascending");
  }
  for (const double t : times) {
    if (t < 0.0 || !std::isfinite(t)) {
      throw std::invalid_argument(
          "MissionAnalyzer::reliability_at: times must be finite and "
          "non-negative");
    }
  }
  std::vector<double> out(times.size(), 1.0);
  if (times.empty()) return out;

  std::vector<double> w;
  std::size_t next = 0;
  for (std::size_t k = 0; k < segments_.size() && next < times.size();
       ++k) {
    const double start = timeline_[k].start_s;
    // The last segment only needs to reach the last requested time; the
    // infinite horizon never enters a forward integration.
    const double end = k + 1 < segments_.size()
                           ? timeline_[k + 1].start_s
                           : std::max(times.back(), start);
    std::vector<double> emit;
    std::size_t first = next;
    while (next < times.size() && times[next] <= end) {
      emit.push_back(times[next] - start);
      ++next;
    }
    const spn::ReliabilityOde ode(*segments_[k].graph,
                                  rate_segment(k).rates);
    const auto res =
        ode.propagate(w, end - start, emit, options_.ode);
    for (std::size_t j = 0; j < emit.size(); ++j) {
      out[first + j] = res.survival_at[j];
    }
    if (k + 1 < segments_.size()) {
      w = remap_weights(res.weights, k, k + 1);
    }
  }
  return out;
}

}  // namespace midas::core
