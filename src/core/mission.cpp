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
  // the same structure key re-rate that graph (a batch of one net per
  // phase — the sweep-engine reuse idiom), others explore their own.
  const auto& graph0 = segments_[0].model->graph();
  const std::string key0 = structure_key(timeline_[0].params);
  for (std::size_t k = 0; k < segments_.size(); ++k) {
    auto& s = segments_[k];
    if (k > 0 && structure_key(timeline_[k].params) == key0) {
      s.graph = &graph0;
      s.rates.resize(graph0.edges.size());
      s.impulses.resize(graph0.edges.size());
      const spn::PetriNet* net = &s.model->net();
      graph0.compute_rates_batch({&net, 1}, s.rates, s.impulses);
    } else {
      s.graph = k == 0 ? &graph0 : &s.model->graph();
      s.rates.reserve(s.graph->edges.size());
      s.impulses.reserve(s.graph->edges.size());
      for (const auto& e : s.graph->edges) {
        s.rates.push_back(e.rate);
        s.impulses.push_back(e.impulse);
      }
    }
  }
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

  // Functional layout per segment: 6 cost components in CostBreakdown
  // member order, then eviction impulse flux, then C1/C2 absorption
  // fluxes.
  constexpr std::size_t kEvict = 6, kC1 = 7, kC2 = 8, kNumF = 9;
  std::vector<double> w;  // boundary weights (full-state, per graph)
  double mttsf = 0.0;
  RewardSums acc;

  for (std::size_t k = 0; k + 1 < segments_.size(); ++k) {
    const auto& seg = segments_[k];
    const auto& graph = *seg.graph;
    const std::size_t n = graph.num_states();
    const auto absorbing = graph.absorbing_mask();

    std::vector<std::vector<double>> f(kNumF, std::vector<double>(n, 0.0));
    for (std::size_t s = 0; s < n; ++s) {
      if (absorbing[s]) continue;
      const auto c = seg.model->cost_rates(graph.states[s]);
      f[0][s] = c.group_comm;
      f[1][s] = c.status;
      f[2][s] = c.rekey;
      f[3][s] = c.ids;
      f[4][s] = c.beacon;
      f[5][s] = c.partition_merge;
    }
    for (std::size_t i = 0; i < graph.edges.size(); ++i) {
      const auto& e = graph.edges[i];
      if (seg.impulses[i] != 0.0) {
        f[kEvict][e.src] += seg.rates[i] * seg.impulses[i];
      }
      if (e.src != e.dst && absorbing[e.dst]) {
        if (seg.model->failed_c1(graph.states[e.dst])) {
          f[kC1][e.src] += seg.rates[i];
        } else if (seg.model->failed_c2(graph.states[e.dst])) {
          f[kC2][e.src] += seg.rates[i];
        }
      }
    }

    const double duration =
        timeline_[k + 1].start_s - timeline_[k].start_s;
    const spn::ReliabilityOde ode(graph, seg.rates);
    const auto res = ode.propagate(w, duration, f, {}, options_.ode);
    mttsf += res.survival_integral;
    const auto& fi = res.functional_integrals;
    acc += RewardSums{{fi[0], fi[1], fi[2], fi[3], fi[4], fi[5]},
                      fi[kEvict], fi[kC1], fi[kC2]};
    w = remap_weights(res.weights, k, k + 1);
  }

  // Final (infinite-horizon) segment: close the chain analytically from
  // the boundary distribution, rewarded by the same pass as every
  // constant-rate evaluation (a batch of one).
  const auto& seg = segments_.back();
  const spn::AbsorbingAnalyzer analyzer(*seg.graph);
  const auto res = analyzer.solve_from(w, seg.rates);
  const GcsSpnModel* model = seg.model.get();
  acc += accumulate_rewards({&model, 1}, *seg.graph, res.sojourn,
                            res.absorb_probability, seg.rates, seg.impulses)
             .front();

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
                                  segments_[k].rates);
    const auto res =
        ode.propagate(w, end - start, {}, emit, options_.ode);
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
