#include "spn/reachability.h"

#include <deque>
#include <stdexcept>
#include <unordered_map>

namespace midas::spn {

namespace {

/// A tangible marking reached from a vanishing expansion, with the path
/// probability and the impulse rewards collected along the immediate
/// firings.
struct TangibleTarget {
  Marking marking;
  double probability;
  double impulse;
};

constexpr std::size_t kMaxVanishingDepth = 4096;

/// Expands a (possibly vanishing) marking through immediate firings to
/// its tangible successors.  Immediate conflicts resolve by relative
/// weight (the transition's rate function).  Throws on immediate cycles
/// (depth bound) and on zero total weight.
void expand_vanishing(const PetriNet& net, const Marking& m,
                      double probability, double impulse, std::size_t depth,
                      std::vector<TangibleTarget>& out) {
  if (depth > kMaxVanishingDepth) {
    throw std::runtime_error(
        "reachability: immediate-transition cycle (or chain deeper than " +
        std::to_string(kMaxVanishingDepth) + ") at marking " + m.to_string());
  }
  // Collect enabled immediate transitions and their weights.
  std::vector<std::pair<TransitionId, double>> enabled;
  double total_weight = 0.0;
  const auto n = static_cast<TransitionId>(net.num_transitions());
  for (TransitionId t = 0; t < n; ++t) {
    if (net.transition_kind(t) != TransitionKind::Immediate) continue;
    if (!net.enabled(t, m)) continue;
    const double w = net.rate(t, m);
    if (w <= 0.0) continue;
    enabled.emplace_back(t, w);
    total_weight += w;
  }
  if (enabled.empty()) {
    out.push_back({m, probability, impulse});
    return;
  }
  for (const auto& [t, w] : enabled) {
    expand_vanishing(net, net.fire(t, m), probability * (w / total_weight),
                     impulse + net.impulse(t, m), depth + 1, out);
  }
}

}  // namespace

std::vector<char> ReachabilityGraph::absorbing_mask() const {
  std::vector<char> mask(states.size(), 1);
  for (StateId s = 0; s < states.size(); ++s) {
    for (const auto& e : out_edges(s)) {
      if (e.dst != s) {
        mask[s] = 0;
        break;
      }
    }
  }
  return mask;
}

std::runtime_error rerate_error(const char* who,
                                const ReachabilityGraph& graph,
                                std::size_t edge,
                                const std::string& transition, double rate,
                                std::size_t point) {
  const Edge& e = graph.edges[edge];
  return std::runtime_error(
      std::string(who) + ": edge " + std::to_string(edge) + " (" +
      std::to_string(e.src) + " -> " + std::to_string(e.dst) +
      ", transition " + transition + ") re-rates to " +
      std::to_string(rate) + " at marking " +
      graph.states[e.src].to_string() + " for batch point " +
      std::to_string(point) +
      "; the parameter change alters the edge structure and requires a "
      "fresh exploration");
}

void ReachabilityGraph::compute_rates_batch(
    std::span<const PetriNet* const> nets, std::span<double> rates,
    std::span<double> impulses, const BatchRateFn& fast) const {
  const std::size_t P = nets.size();
  if (P == 0) {
    throw std::invalid_argument("compute_rates_batch: empty net batch");
  }
  if (rates.size() != edges.size() * P || impulses.size() != edges.size() * P) {
    throw std::invalid_argument(
        "compute_rates_batch: output spans must be edge count x batch size");
  }
  std::vector<double> base_rate(P, 0.0);
  std::vector<double> timed_impulse(P, 0.0);
  for (StateId s = 0; s < states.size(); ++s) {
    const Marking& m = states[s];
    const auto begin = edge_offsets[s];
    const auto end = edge_offsets[s + 1];
    // One (transition, marking) evaluation serves every vanishing-
    // expansion edge of the firing, for all P points at once.
    TransitionId last_t = UINT32_MAX;
    for (std::uint32_t i = begin; i < end; ++i) {
      const Edge& e = edges[i];
      if (e.transition != last_t) {
        last_t = e.transition;
        // The hook evaluates all P points in one call (hoisting the
        // marking-derived work a per-net evaluation repeats P times);
        // declined pairs take the generic per-net path.  Both produce
        // bitwise-identical values (BatchRateFn contract).
        if (!fast || !fast(e.transition, m, base_rate, timed_impulse)) {
          for (std::size_t p = 0; p < P; ++p) {
            base_rate[p] = nets[p]->rate(e.transition, m);
            timed_impulse[p] = nets[p]->impulse(e.transition, m);
          }
        }
      }
      double* rate_row = rates.data() + static_cast<std::size_t>(i) * P;
      double* imp_row = impulses.data() + static_cast<std::size_t>(i) * P;
      for (std::size_t p = 0; p < P; ++p) {
        const double rate = base_rate[p] * e.prob;
        if (rate <= 0.0) {
          throw rerate_error("compute_rates_batch", *this, i,
                             nets[p]->transition_name(e.transition), rate,
                             p);
        }
        rate_row[p] = rate;
        imp_row[p] = timed_impulse[p] + e.vanishing_impulse;
      }
    }
  }
}

ReachabilityGraph explore(const PetriNet& net, const ExploreOptions& opts) {
  ReachabilityGraph g;
  std::unordered_map<Marking, StateId, MarkingHash> index;

  // The initial marking may itself be vanishing; it must collapse to a
  // single tangible marking (an initial distribution over several is not
  // representable in this graph).
  Marking init = net.initial_marking();
  if (net.is_vanishing(init)) {
    std::vector<TangibleTarget> targets;
    expand_vanishing(net, init, 1.0, 0.0, 0, targets);
    if (targets.size() != 1 || targets[0].probability < 1.0 - 1e-12) {
      throw std::runtime_error(
          "reachability: vanishing initial marking expands to multiple "
          "tangible markings; not supported");
    }
    init = targets[0].marking;
  }

  g.states.push_back(init);
  index.emplace(init, 0);
  g.initial = 0;

  std::deque<StateId> frontier{0};
  const auto num_transitions =
      static_cast<TransitionId>(net.num_transitions());
  std::vector<TangibleTarget> targets;

  auto intern = [&](const Marking& m) -> StateId {
    auto [it, inserted] =
        index.emplace(m, static_cast<StateId>(g.states.size()));
    if (inserted) {
      if (g.states.size() >= opts.max_states) {
        throw std::runtime_error(
            "reachability: state space exceeds max_states = " +
            std::to_string(opts.max_states));
      }
      g.states.push_back(it->first);
      frontier.push_back(it->second);
    }
    return it->second;
  };

  while (!frontier.empty()) {
    const StateId sid = frontier.front();
    frontier.pop_front();
    // Copy: g.states may reallocate as successors are appended.
    const Marking m = g.states[sid];

    bool has_progress_edge = false;
    bool has_self_loop = false;
    for (TransitionId t = 0; t < num_transitions; ++t) {
      if (net.transition_kind(t) != TransitionKind::Timed) continue;
      if (!net.enabled(t, m)) continue;
      const double rate = net.rate(t, m);
      if (rate <= 0.0) continue;

      const Marking fired = net.fire(t, m);
      targets.clear();
      if (net.is_vanishing(fired)) {
        expand_vanishing(net, fired, 1.0, 0.0, 0, targets);
      } else {
        targets.push_back({fired, 1.0, 0.0});
      }

      const double timed_impulse = net.impulse(t, m);
      for (const auto& target : targets) {
        StateId dst;
        if (target.marking == m) {
          dst = sid;
          has_self_loop = true;
        } else {
          dst = intern(target.marking);
          has_progress_edge = true;
        }
        g.edges.push_back({sid, dst, rate * target.probability, t,
                           timed_impulse + target.impulse,
                           target.probability, target.impulse});
      }
    }
    if (has_self_loop && !has_progress_edge) {
      throw std::runtime_error(
          "reachability: state " + m.to_string() +
          " has only self-loop firings; mean time to absorption diverges");
    }
  }
  // CSR offsets: the BFS pops states in increasing id order, so edges are
  // already grouped by src ascending — a counting pass suffices.
  g.edge_offsets.assign(g.states.size() + 1, 0);
  for (const auto& e : g.edges) ++g.edge_offsets[e.src + 1];
  for (std::size_t s = 0; s < g.states.size(); ++s) {
    g.edge_offsets[s + 1] += g.edge_offsets[s];
  }
  return g;
}

}  // namespace midas::spn
